"""Output checks behind the benchmark's failure count.

Each check uses only properties that any correct implementation has, and
reads only the written report and the generated inputs; nothing here calls
the program again.
"""

from __future__ import annotations

import json
import math

ALLOWED_EXIT_CODES = (0, 1, 3)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def load_report(text: str) -> dict:
    """Parse a report; NaN and bare infinities are errors (the CLI writes
    infinities as the string "inf")."""
    return json.loads(text, parse_constant=_reject_constant)


def _coords(pair_list) -> list:
    return [complex(re, im) for re, im in pair_list]


def _check_pack(rep: dict, dim: int, delta: float, h: float) -> list:
    problems = []
    if rep.get("disjoint") is not True:
        problems.append("pack: balls not pairwise disjoint")
    centers = [_coords(c) for c in rep["centers"]]
    if len(centers) != rep["n_balls"] or not centers:
        problems.append("pack: center list does not match n_balls")
    # the target ball is centered at e_1, so <c, e_1> = c_1
    far = [c for c in centers if abs(1.0 - c[0]) > 2.0 * delta + 1e-12]
    if far:
        problems.append(f"pack: {len(far)} centers outside 2Q")
    if dim == 1:
        if rep["doubled_cover_fraction"] != 1.0:
            problems.append("pack: d = 1 doubled cover fraction is not 1")
        angles = sorted(math.atan2(c[0].imag, c[0].real) for c in centers)
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + 2.0 * math.pi - angles[-1])
        if len(angles) > 1 and min(gaps) <= 4.0 * math.asin(h / 2.0):
            problems.append("pack: d = 1 arcs closer than 4 asin(h/2)")
    return problems


def _check_criteria_sigma(rep: dict) -> list:
    ext = rep["profiles"]["iii"]["extremal"]
    if not abs(ext - 1.0) <= 1e-12:
        return [f"criteria on sigma: condition (iii) extremal {ext!r} != 1"]
    return []


def _check_origin_degenerate(rep: dict) -> list:
    verdicts = {t: rep["conditions"][t]["verdict"] for t in ("i", "ii", "iii")}
    if set(verdicts.values()) != {"degenerate"}:
        return [f"equivalence on the origin atom: verdicts {verdicts}"]
    return []


def _check_dbr_constant(rep: dict, c_abs: float) -> list:
    problems = []
    expected = 1.0 / (1.0 - c_abs ** 2)
    got = rep["necessary_constant"]
    if not (isinstance(got, float)
            and abs(got - expected) <= 1e-12 * expected):
        problems.append(f"dbr-check: necessary constant {got!r}, "
                        f"expected {expected!r}")
    if rep["one_minus_b"]["verdict"] != "finite":
        problems.append("dbr-check: integrability verdict is not finite")
    return problems


def _check_refute_inconclusive(rep: dict) -> list:
    if rep["verdict"] != "inconclusive":
        return [f"refute-sampling with a Blaschke symbol: {rep['verdict']}"]
    return []


CHECKS = {"pack": _check_pack, "criteria_sigma": _check_criteria_sigma,
          "origin_degenerate": _check_origin_degenerate,
          "dbr_constant": _check_dbr_constant,
          "refute_inconclusive": _check_refute_inconclusive}


def check_op(op, exit_code, report_text) -> list:
    """Problems with one op's outcome; an empty list means it passed.

    ``exit_code`` is the CLI's return value (or a string naming the
    exception it raised); ``report_text`` is None when no report was
    written.
    """
    if exit_code not in ALLOWED_EXIT_CODES:
        return [f"exit code {exit_code!r}"]
    if report_text is None:
        return ["no report written"]
    try:
        rep = load_report(report_text)
    except ValueError as exc:
        return [f"report is not valid JSON: {exc}"]
    if not isinstance(rep, dict) or rep.get("command") != op.command:
        return ["report has the wrong command field"]
    problems = []
    for name, params in op.checks:
        try:
            problems += CHECKS[name](rep, **params)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            problems.append(f"{name}: malformed report ({exc!r})")
    return problems
