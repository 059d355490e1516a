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
import sys
import typing
from dataclasses import asdict, dataclass

import numpy as np
import yaml
from scipy.special import hyp2f1

from . import __version__
from .criteria import (SearchGrid, condition_ii_profile, condition_iii_profile,
                       equivalence_report, window_profiles)
from .dbr import (is_inner_estimate, kernel_test, load_symbol,
                  necessary_condition_constant, one_minus_b_integral,
                  refute_sampling)
from .geometry import NonisotropicBall, SpherePoint, greedy_packing
from .kernels import Exponents, kernel_norm, poisson_kernel_at
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
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 1.0 < self.p:
            raise ValueError("p must exceed 1")
        if self.resolution < 4:
            raise ValueError("resolution must be at least 4")
        if self.refinements < 1:
            raise ValueError("refinements must be at least 1")

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


def _config_dict(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    doc.pop("out")  # keep reports byte-identical across destinations
    return doc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
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
            base = out.rsplit(".", 1)[0]
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
# subcommands

def cmd_verify_kernels(args) -> int:
    cfg = _load_config(args)
    ex = Exponents(cfg.p, cfg.dim)
    grid = cfg.sphere()
    rows = [("|w|", "closed", "exact", "quadrature", "rel_err")]
    report_rows = []
    worst = 0.0
    e1 = np.zeros(cfg.dim, dtype=complex)
    e1[0] = 1.0
    e = cfg.dim - cfg.p * cfg.dim / 2      # the upper parameters of 2F1
    for a in (0.0, 0.3, 0.6, 0.9):
        w = a * e1
        closed = kernel_norm(w, ex)
        # the exact norm (kernels module docstring); the 2F1 factor is 1 at
        # p = 2, whose rows keep their layout without a separate exact value
        exact = closed * float(hyp2f1(e, e, cfg.dim, a * a)) ** (1 / cfg.p)
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
    tol = args.tol
    report = {"command": "verify-kernels", "version": __version__,
              "config": _config_dict(cfg), "kernel_norms": report_rows,
              "poisson_normalization": pois, "max_rel_err": worst,
              "tolerance": tol, "passed": worst <= tol}
    _print_table(f"kernel norms (d={cfg.dim}, p={cfg.p})", rows)
    print(f"max relative error {worst:.3e} (tolerance {tol:.1e})")
    _emit(report, cfg.out)
    return EXIT_OK if worst <= tol else EXIT_VERDICT


def _load_mu(args, cfg):
    if getattr(args, "measure", None):
        mu = load_measure(args.measure)
        if mu.d != cfg.dim:
            raise ValueError("measure dimension does not match --dim")
        return mu
    return sigma_measure(cfg.dim)


def cmd_criteria(args) -> int:
    cfg = _load_config(args)
    ex = Exponents(cfg.p, cfg.dim)
    mu = _load_mu(args, cfg)
    grid, rad, sg = cfg.sphere(), cfg.radial(), cfg.search()
    p3 = condition_iii_profile(mu, sg, grid)
    p2 = condition_ii_profile(mu, ex, sg, grid, rad)
    pw, pf = window_profiles(mu, sg, grid, rad)
    rows = [("condition", "extremal", "argext")]
    for prof in (p3, p2, pw, pf):
        rows.append((prof.condition, f"{prof.extremal:.6g}",
                     str(_jsonable(prof.arg_extremal))[:60]))
    _print_table(f"criterion profiles (d={cfg.dim}, p={cfg.p})", rows)
    report = {"command": "criteria", "version": __version__,
              "config": _config_dict(cfg),
              "profiles": {prof.condition: {
                  "extremal": prof.extremal,
                  "arg_extremal": _jsonable(prof.arg_extremal),
                  "values": _jsonable(prof.values)}
                  for prof in (p3, p2, pw, pf)}}
    curves = {prof.condition: _profile_rows(prof) for prof in (p3, p2, pw, pf)}
    _emit(report, cfg.out, curves)
    return EXIT_OK


def cmd_equivalence(args) -> int:
    cfg = _load_config(args)
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
    _print_table(f"equivalence harness (d={cfg.dim}, p={cfg.p}, "
                 f"tau={cfg.threshold})", rows)
    print(f"forward extremal {rep.forward_extremal:.6g}; "
          f"agreement={rep.agreement}")
    if rep.diagnostic:
        print(f"DIAGNOSTIC: {rep.diagnostic}")
    report = {"command": "equivalence", "version": __version__,
              "config": _config_dict(cfg),
              "conditions": {t: {"trend": _jsonable(c.trend),
                                 "arg_extremal": _jsonable(c.arg_extremal),
                                 "verdict": c.verdict}
                             for t, c in rep.conditions.items()},
              "forward_extremal": rep.forward_extremal,
              "agreement": rep.agreement, "diagnostic": rep.diagnostic}
    _emit(report, cfg.out)
    return EXIT_OK if rep.agreement else EXIT_DIAGNOSTIC


def cmd_pack(args) -> int:
    if args.grid_points <= 0:
        raise ValueError("--grid-points must be positive")
    cfg = _load_config(args)
    e1 = np.zeros(cfg.dim, dtype=complex)
    e1[0] = 1.0
    Q = NonisotropicBall(SpherePoint(e1), args.delta)
    balls, cert = greedy_packing(Q, args.h, seed=cfg.seed,
                                 certificate_grid=args.grid_points)
    rows = [("quantity", "value"),
            ("balls", len(balls)),
            ("pairwise_disjoint", cert.disjoint),
            ("doubled_cover_fraction", f"{cert.covered_fraction:.4f}")]
    _print_table(f"greedy packing (d={cfg.dim}, delta={args.delta}, "
                 f"h={args.h})", rows)
    report = {"command": "pack", "version": __version__,
              "config": _config_dict(cfg), "delta": args.delta, "h": args.h,
              "n_balls": len(balls),
              "centers": [_jsonable(tuple(b.center.coords)) for b in balls],
              "disjoint": cert.disjoint,
              "doubled_cover_fraction": cert.covered_fraction,
              "certificate_grid": cert.grid_size}
    _emit(report, cfg.out)
    return EXIT_OK if cert.disjoint else EXIT_VERDICT


def cmd_dbr_check(args) -> int:
    cfg = _load_config(args)
    b = load_symbol(args.symbol)
    if b.d != cfg.dim:
        raise ValueError("symbol dimension does not match --dim")
    grid, rad, sg = cfg.sphere(), cfg.radial(), cfg.search()
    mu = _load_mu(args, cfg)
    inner_frac = is_inner_estimate(b, grid, cfg.eps_inner)
    if mu.boundary_density is not None:
        nc = necessary_condition_constant(b, mu.boundary_density, grid,
                                          cfg.eps_inner)
    else:
        nc = necessary_condition_constant(b, 0.0, grid, cfg.eps_inner)
    integ = one_minus_b_integral(b, grid, cfg.refinements)
    kt = kernel_test(mu, b, sg, grid, rad)
    rows = [("quantity", "value"),
            ("inner_fraction", f"{inner_frac:.6f}"),
            ("necessary_constant", "inf" if math.isinf(nc.value)
             else f"{nc.value:.6g}"),
            ("integrability", integ.verdict),
            ("kernel_test_min", f"{kt.extremal:.6g}")]
    _print_table(f"H(b) checks (d={cfg.dim})", rows)
    report = {"command": "dbr-check", "version": __version__,
              "config": _config_dict(cfg), "inner_fraction": inner_frac,
              "necessary_constant": nc.value,
              "violating_nodes": _jsonable(nc.violating_nodes),
              "exempt_fraction": nc.exempt_fraction,
              "one_minus_b": {"estimates": _jsonable(integ.estimates),
                              "verdict": integ.verdict},
              "kernel_test": {"extremal": kt.extremal,
                              "values": _jsonable(kt.values)}}
    _emit(report, cfg.out, {"kernel_test": _profile_rows(kt)})
    return EXIT_OK


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


def cmd_refute_sampling(args) -> int:
    cfg = _load_config(args)
    b = load_symbol(args.symbol)
    ref = refute_sampling(b, _load_points(args.points), cfg.search(),
                          cfg.sphere(), cfg.radial(),
                          refinements=cfg.refinements, eps_inner=cfg.eps_inner,
                          tau=cfg.threshold)
    rows = [("quantity", "value"),
            ("verdict", ref.verdict),
            ("inner_fraction", f"{ref.inner_fraction:.6f}"),
            ("kernel_test_trend", "[" + ", ".join(
                f"{v:.4g}" for v in ref.kernel_test_trend) + "]")]
    _print_table(f"sampling refutation (d={cfg.dim})", rows)
    print(ref.detail)
    report = {"command": "refute-sampling", "version": __version__,
              "config": _config_dict(cfg), "verdict": ref.verdict,
              "inner_fraction": ref.inner_fraction,
              "boundary_density_zero": ref.boundary_density_zero,
              "kernel_test_trend": _jsonable(ref.kernel_test_trend),
              "detail": ref.detail}
    _emit(report, cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="YAML experiment config")
    sub.add_argument("--dim", type=int)
    sub.add_argument("--p", type=float)
    sub.add_argument("--resolution", type=int)
    sub.add_argument("--refinements", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--threshold", type=float)
    sub.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revcarleson",
        description="reverse Carleson criteria on the unit ball: estimators, "
                    "packings, and H(b) necessary tests")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("verify-kernels",
                        help="exact vs quadrature kernel norms")
    _add_common(s)
    s.add_argument("--tol", type=float, default=1e-6)
    s.set_defaults(func=cmd_verify_kernels)

    s = subs.add_parser("criteria", help="single-level criterion profiles")
    _add_common(s)
    s.add_argument("--measure", help="YAML measure file (default: sigma)")
    s.set_defaults(func=cmd_criteria)

    s = subs.add_parser("equivalence",
                        help="equivalence harness across grid refinements")
    _add_common(s)
    s.add_argument("--measure")
    s.set_defaults(func=cmd_equivalence)

    s = subs.add_parser("pack", help="greedy maximal packing of a ball")
    _add_common(s)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--h", type=float, required=True)
    s.add_argument("--grid-points", type=int, default=10000)
    s.set_defaults(func=cmd_pack)

    s = subs.add_parser("dbr-check", help="H(b) necessary-condition checks")
    _add_common(s)
    s.add_argument("--symbol", required=True)
    s.add_argument("--measure")
    s.set_defaults(func=cmd_dbr_check)

    s = subs.add_parser("refute-sampling",
                        help="refute a sampling-sequence candidate")
    _add_common(s)
    s.add_argument("--symbol", required=True)
    s.add_argument("--points", required=True)
    s.set_defaults(func=cmd_refute_sampling)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, yaml.YAMLError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC


if __name__ == "__main__":
    sys.exit(main())
