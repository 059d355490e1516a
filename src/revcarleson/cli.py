"""Experiment runner.

Subcommands: verify-kernels, criteria, equivalence, pack, dbr-check,
refute-sampling.  Inputs are YAML measure/symbol/points/config files; output
is a human-readable table on stdout plus a JSON report (and CSV profile
curves) when --out is given.  Identical configuration and seed produce
byte-identical reports.

Exit codes: 0 success, 1 verdict failure, 2 input error, 3 numerical
diagnostic (e.g. the equivalence harness flagged a verdict disagreement).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass

import numpy as np
import yaml

from . import __version__
from .criteria import SearchGrid, criteria_profiles, equivalence_report
from .dbr import (is_inner_estimate, kernel_test, load_symbol,
                  necessary_condition_constant, one_minus_b_integral,
                  refute_sampling)
from .geometry import NonisotropicBall, SpherePoint, greedy_packing
from .kernels import Exponents, _norm_factor, kernel_norm, poisson_kernel_at
from .measures import _load_yaml, _parse_point, load_measure, sigma_measure
from .quadrature import integrate_sphere, radial_rule, sphere_grid

EXIT_OK, EXIT_VERDICT, EXIT_INPUT, EXIT_DIAGNOSTIC = 0, 1, 2, 3


@dataclass
class ExperimentConfig:
    dim: int = 1
    p: float = 2.0
    resolution: int = 2048
    radial_resolution: int = 24
    search_centers: int = 8
    search_kmax: int = 6
    refinements: int = 3
    seed: int = 0
    threshold: float = 1e-3
    eps_inner: float = 1e-6
    out: str | None = None

    def validate(self):
        """Reject the first field out of its range, naming it; a nan is in
        no range."""
        for name, ok, rule in (
                ("dim", self.dim >= 1, "be >= 1"),
                ("p", self.p > 1, "exceed 1"),
                ("resolution", self.resolution >= 4, "be at least 4"),
                ("radial_resolution", self.radial_resolution >= 1, "be >= 1"),
                ("refinements", self.refinements >= 1, "be at least 1"),
                ("search_centers", self.search_centers >= 1, "be >= 1"),
                # the finest search grid's radii 1 - 2^-k round to 1 past
                # k = 53
                ("search_kmax", 1 <= self.search_kmax
                 <= 54 - self.refinements,
                 "be >= 1 with search_kmax + refinements - 1 <= 53"),
                ("seed", self.seed >= 0, "be >= 0"),
                ("threshold", 0 <= self.threshold < math.inf,
                 "be a finite number >= 0"),
                ("eps_inner", 0 <= self.eps_inner < 1, "lie in [0, 1)")):
            if not ok:
                raise ValueError(f"{name} must {rule}, "
                                 f"got {getattr(self, name)}")

    def sphere(self):
        res = self.resolution
        if self.dim == 2:
            res = max(4, round(res ** (1 / 3)))
        return sphere_grid(self.dim, res, seed=self.seed)

    def radial(self):
        return radial_rule(self.dim, self.radial_resolution)

    def search(self) -> SearchGrid:
        return SearchGrid(self.dim, self.search_centers, self.search_kmax,
                          seed=self.seed)


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _coerce(name: str, value):
    """A config-file value as its field's annotated type: int, float, or
    str | None.  Anything else, such as `resolution: abc`, is an input
    error."""
    kind = _FIELD_TYPES[name]
    if kind in (int, float):
        readable = (int, str) if kind is int else (int, float, str)
        if isinstance(value, readable) and not isinstance(value, bool):
            try:
                return kind(value)
            except ValueError:
                pass
    elif value is None or isinstance(value, str):
        return value
    expected = kind.__name__ if kind in (int, float) else "a string"
    raise ValueError(f"config field {name!r} must be {expected}, "
                     f"got {value!r}")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        doc = _load_yaml(args.config) or {}
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a mapping of fields")
        unknown = set(doc) - set(cfg.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for k, v in doc.items():
            setattr(cfg, k, _coerce(k, v))
    for k in cfg.__dataclass_fields__:
        v = getattr(args, k, None)
        if v is not None:
            setattr(cfg, k, v)
    cfg.validate()
    return cfg


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return "inf" if math.isinf(f) else f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(report: dict, out: str | None, curves: dict | None = None) -> None:
    doc = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(doc + "\n")
        if curves:
            base = os.path.splitext(out)[0]
            for name, rows in curves.items():
                with open(f"{base}.{name}.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerows(rows)
    else:
        print(doc)


def _profile_rows(profile) -> list:
    rows = [["index", "value"]]
    rows += [[i, repr(float(v))] for i, v in enumerate(profile.values)]
    return rows


def _print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


# ---------------------------------------------------------------------------
# subcommands: each computes from (args, cfg) and returns an Outcome, which
# _run prints and writes

@dataclass
class Outcome:
    """What a subcommand computed: its table (header row first), the lines
    printed after the table, its report body, its CSV curves and its exit
    code."""

    title: str
    rows: list
    report: dict
    notes: tuple = ()
    curves: dict | None = None
    code: int = EXIT_OK


def _run(args) -> int:
    """Load the config, run the subcommand, print its table and notes,
    and write its report under the common header; return its exit code."""
    cfg = _load_config(args)
    outcome = args.func(args, cfg)
    _print_table(outcome.title, outcome.rows)
    for line in outcome.notes:
        print(line)
    config = asdict(cfg)
    config.pop("out")  # keep reports byte-identical across destinations
    header = {"command": args.command, "version": __version__,
              "config": config}
    _emit({**header, **outcome.report}, cfg.out, outcome.curves)
    return outcome.code


def cmd_verify_kernels(args, cfg) -> Outcome:
    tol = args.tol
    if not 0 <= tol < math.inf:
        raise ValueError(f"--tol must be a finite number >= 0, got {tol}")
    ex = Exponents(cfg.p, cfg.dim)
    grid = cfg.sphere()
    rows = [("|w|", "closed", "exact", "quadrature", "rel_err")]
    report_rows = []
    worst = 0.0
    e1 = np.eye(cfg.dim, dtype=complex)[0]
    e = cfg.dim - cfg.p * cfg.dim / 2      # the upper parameters of 2F1
    for a in (0.0, 0.3, 0.6, 0.9):
        w = a * e1
        closed = kernel_norm(w, ex)
        # the exact norm; the 2F1 factor is 1 at p = 2, whose rows keep
        # their layout without a separate exact value
        exact = closed * _norm_factor(a * a, ex) ** (1 / cfg.p)
        quad = kernel_norm(w, ex, grid)
        rel = abs(quad - exact) / exact
        worst = max(worst, rel)
        rows.append((f"{a:.1f}", f"{closed:.9g}", f"{exact:.9g}",
                     f"{quad:.9g}", f"{rel:.3e}"))
        row = {"abs_w": a, "closed_form": closed, "quadrature": quad,
               "rel_err": rel}
        if e != 0:
            row["exact"] = exact
        report_rows.append(row)
    pois = []
    for a in (0.0, 0.5, 0.9):
        w = a * e1
        val = float(np.real(integrate_sphere(
            lambda pts: poisson_kernel_at(w, pts), grid)))
        pois.append({"abs_w": a, "poisson_mass": val,
                     "rel_err": abs(val - 1.0)})
        worst = max(worst, abs(val - 1.0))
    return Outcome(
        f"kernel norms (d={cfg.dim}, p={cfg.p})", rows,
        {"kernel_norms": report_rows, "poisson_normalization": pois,
         "max_rel_err": worst, "tolerance": tol, "passed": worst <= tol},
        notes=(f"max relative error {worst:.3e} (tolerance {tol:.1e})",),
        code=EXIT_OK if worst <= tol else EXIT_VERDICT)


def _of_dim(obj, what: str, cfg):
    """obj, a measure or symbol read from a file, if it has dimension
    --dim."""
    if obj.d != cfg.dim:
        raise ValueError(f"{what} dimension does not match --dim")
    return obj


def _load_mu(args, cfg):
    if getattr(args, "measure", None):
        return _of_dim(load_measure(args.measure), "measure", cfg)
    return sigma_measure(cfg.dim)


def cmd_criteria(args, cfg) -> Outcome:
    ex = Exponents(cfg.p, cfg.dim)
    mu = _load_mu(args, cfg)
    profiles = criteria_profiles(mu, ex, cfg.search(), cfg.sphere(),
                                 cfg.radial())
    rows = [("condition", "extremal", "argext")] + [
        (prof.condition, f"{prof.extremal:.6g}",
         str(_jsonable(prof.arg_extremal))[:60]) for prof in profiles]
    return Outcome(
        f"criterion profiles (d={cfg.dim}, p={cfg.p})", rows,
        {"profiles": {prof.condition: {
            "extremal": prof.extremal,
            "arg_extremal": _jsonable(prof.arg_extremal),
            "values": _jsonable(prof.values)} for prof in profiles}},
        curves={prof.condition: _profile_rows(prof) for prof in profiles})


def cmd_equivalence(args, cfg) -> Outcome:
    ex = Exponents(cfg.p, cfg.dim)
    mu = _load_mu(args, cfg)
    rep = equivalence_report(mu, ex, cfg.search(), cfg.sphere(), cfg.radial(),
                             refinements=cfg.refinements, tau=cfg.threshold,
                             witness_seed=cfg.seed)
    rows = [("condition", "trend", "verdict")]
    for tag in ("i", "ii", "iii"):
        c = rep.conditions[tag]
        rows.append((tag, "[" + ", ".join(f"{v:.4g}" for v in c.trend) + "]",
                     c.verdict))
    notes = (f"forward extremal {rep.forward_extremal:.6g}; "
             f"agreement={rep.agreement}",)
    if rep.diagnostic:
        notes += (f"DIAGNOSTIC: {rep.diagnostic}",)
    return Outcome(
        f"equivalence harness (d={cfg.dim}, p={cfg.p}, tau={cfg.threshold})",
        rows,
        {"conditions": {t: {"trend": _jsonable(c.trend),
                            "arg_extremal": _jsonable(c.arg_extremal),
                            "verdict": c.verdict}
                        for t, c in rep.conditions.items()},
         "forward_extremal": rep.forward_extremal,
         "agreement": rep.agreement, "diagnostic": rep.diagnostic},
        notes=notes, code=EXIT_OK if rep.agreement else EXIT_DIAGNOSTIC)


def cmd_pack(args, cfg) -> Outcome:
    if args.grid_points <= 0:
        raise ValueError("--grid-points must be positive")
    e1 = np.eye(cfg.dim, dtype=complex)[0]
    Q = NonisotropicBall(SpherePoint(e1), args.delta)
    try:
        balls, cert = greedy_packing(Q, args.h, seed=cfg.seed,
                                     certificate_grid=args.grid_points)
    except ValueError as exc:       # greedy_packing checks h alone
        raise ValueError(f"--h {args.h}: {exc}") from None
    rows = [("quantity", "value"),
            ("balls", len(balls)),
            ("pairwise_disjoint", cert.disjoint),
            ("doubled_cover_fraction", f"{cert.covered_fraction:.4f}")]
    return Outcome(
        f"greedy packing (d={cfg.dim}, delta={args.delta}, h={args.h})", rows,
        {"delta": args.delta, "h": args.h, "n_balls": len(balls),
         "centers": [_jsonable(tuple(b.center.coords)) for b in balls],
         "disjoint": cert.disjoint,
         "doubled_cover_fraction": cert.covered_fraction,
         "certificate_grid": cert.grid_size},
        code=EXIT_OK if cert.disjoint else EXIT_VERDICT)


def cmd_dbr_check(args, cfg) -> Outcome:
    b = _of_dim(load_symbol(args.symbol), "symbol", cfg)
    grid, rad, sg = cfg.sphere(), cfg.radial(), cfg.search()
    mu = _load_mu(args, cfg)
    inner_frac = is_inner_estimate(b, grid, cfg.eps_inner)
    nc = necessary_condition_constant(b, mu.boundary_density or 0.0, grid,
                                      cfg.eps_inner)
    integ = one_minus_b_integral(b, grid, cfg.refinements)
    kt = kernel_test(mu, b, sg, grid, rad)
    rows = [("quantity", "value"),
            ("inner_fraction", f"{inner_frac:.6f}"),
            ("necessary_constant", "inf" if math.isinf(nc.value)
             else f"{nc.value:.6g}"),
            ("integrability", integ.verdict),
            ("kernel_test_min", f"{kt.extremal:.6g}")]
    return Outcome(
        f"H(b) checks (d={cfg.dim})", rows,
        {"inner_fraction": inner_frac, "necessary_constant": nc.value,
         "violating_nodes": _jsonable(nc.violating_nodes),
         "exempt_fraction": nc.exempt_fraction,
         "one_minus_b": {"estimates": _jsonable(integ.estimates),
                         "verdict": integ.verdict},
         "kernel_test": {"extremal": kt.extremal,
                         "values": _jsonable(kt.values)}},
        curves={"kernel_test": _profile_rows(kt)})


def _load_points(path) -> list:
    doc = _load_yaml(path)
    if not isinstance(doc, dict):
        raise ValueError("points file must hold a mapping with a points list")
    entries = doc.get("points")
    if not isinstance(entries, list):
        raise ValueError("points field 'points' must be a list, "
                         f"got {entries!r}")
    points = []
    for i, p in enumerate(entries):
        try:
            points.append(_parse_point(p))
        except (TypeError, IndexError, ValueError):
            raise ValueError(f"points field 'points' entry {i} must be "
                             f"[[re, im], ...], got {p!r}") from None
    return points


def cmd_refute_sampling(args, cfg) -> Outcome:
    b = _of_dim(load_symbol(args.symbol), "symbol", cfg)
    ref = refute_sampling(b, _load_points(args.points), cfg.search(),
                          cfg.sphere(), cfg.radial(),
                          refinements=cfg.refinements, eps_inner=cfg.eps_inner,
                          tau=cfg.threshold)
    rows = [("quantity", "value"),
            ("verdict", ref.verdict),
            ("inner_fraction", f"{ref.inner_fraction:.6f}"),
            ("kernel_test_trend", "[" + ", ".join(
                f"{v:.4g}" for v in ref.kernel_test_trend) + "]")]
    return Outcome(
        f"sampling refutation (d={cfg.dim})", rows,
        {"verdict": ref.verdict, "inner_fraction": ref.inner_fraction,
         "boundary_density_zero": ref.boundary_density_zero,
         "kernel_test_trend": _jsonable(ref.kernel_test_trend),
         "detail": ref.detail},
        notes=(ref.detail,))


# ---------------------------------------------------------------------------

def _subcommand(subs, name, func, help):
    """A subparser with the flags every subcommand takes, run by func."""
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--config", help="YAML experiment config")
    sub.add_argument("--dim", type=int)
    sub.add_argument("--p", type=float)
    sub.add_argument("--resolution", type=int)
    sub.add_argument("--refinements", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--threshold", type=float)
    sub.add_argument("--out")
    sub.set_defaults(func=func)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revcarleson",
        description="reverse Carleson criteria on the unit ball: estimators, "
                    "packings, and H(b) necessary tests")
    subs = parser.add_subparsers(dest="command", required=True)

    s = _subcommand(subs, "verify-kernels", cmd_verify_kernels,
                    "exact vs quadrature kernel norms")
    s.add_argument("--tol", type=float, default=1e-6)

    s = _subcommand(subs, "criteria", cmd_criteria,
                    "single-level criterion profiles")
    s.add_argument("--measure", help="YAML measure file (default: sigma)")

    s = _subcommand(subs, "equivalence", cmd_equivalence,
                    "equivalence harness across grid refinements")
    s.add_argument("--measure")

    s = _subcommand(subs, "pack", cmd_pack,
                    "greedy maximal packing of a ball")
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--h", type=float, required=True)
    s.add_argument("--grid-points", type=int, default=10000)

    s = _subcommand(subs, "dbr-check", cmd_dbr_check,
                    "H(b) necessary-condition checks")
    s.add_argument("--symbol", required=True)
    s.add_argument("--measure")

    s = _subcommand(subs, "refute-sampling", cmd_refute_sampling,
                    "refute a sampling-sequence candidate")
    s.add_argument("--symbol", required=True)
    s.add_argument("--points", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError, KeyError, yaml.YAMLError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC


if __name__ == "__main__":
    sys.exit(main())
