"""Finite positive measures on the closed unit ball, represented by their
Lebesgue decomposition: interior atoms, an interior density against volume,
a boundary density against sigma, and finitely many boundary singular atoms.

Densities come from a small closed expression grammar so that measures are
serializable (YAML) and reproducible.  L^2-type integrals may legitimately be
infinite; infinity is produced deliberately (math.inf), never by overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from .geometry import (BallPoint, CarlesonWindow, NonisotropicBall,
                       SpherePoint, TOL, niso_gap)
from .quadrature import (RadialRule, SphereGrid, WindowNodes, integrate_window,
                         radial_rule, window_nodes, window_sum)

__all__ = ["DensityExpr", "parse_density", "BallMeasure", "sigma_measure",
           "measure_of_ball", "measure_of_window", "integrate_measure",
           "radon_nikodym_profile", "load_measure", "dump_measure"]


# ---------------------------------------------------------------------------
# density expressions

# the argument each density op takes, as error messages name it
_DENSITY_ARGS = {
    "const": "a number", "abs_z": "null", "re": "a coordinate index",
    "im": "a coordinate index", "abs_inner": "a mapping {w: point}",
    "indicator": "a mapping {center: point, delta: number}",
    "sum": "a list of nodes", "prod": "a list of nodes",
    "pow": "a list [node, exponent]"}


class DensityExpr:
    """A nonnegative closed-form density on ball/sphere points.

    Grammar (nested dicts / numbers):
      number                               constant
      {"const": c}
      {"abs_z": null}                      Euclidean |z|
      {"re": k} / {"im": k}                Re/Im of coordinate k
      {"abs_inner": {"w": point}}          |<z, w0>|
      {"indicator": {"center": point, "delta": d}}   cap indicator (radial projection)
      {"sum": [...]}, {"prod": [...]}, {"pow": [expr, exponent]}
    """

    def __init__(self, spec):
        self.spec = spec
        self._check(spec)

    @staticmethod
    def _check(spec, d=None):
        """Raise ValueError naming the first malformed node; given d, also
        a point without d coordinates or an index outside [0, d)."""
        if isinstance(spec, (int, float)):
            return
        if not isinstance(spec, dict) or len(spec) != 1:
            raise ValueError(f"malformed density node: {spec!r}")
        (op, arg), = spec.items()
        if op not in _DENSITY_ARGS:
            raise ValueError(f"unknown density op {op!r}")
        form = ValueError(f"density node {spec!r} must take "
                          f"{_DENSITY_ARGS[op]}")
        container = {"abs_inner": dict, "indicator": dict, "sum": list,
                     "prod": list, "pow": list}.get(op, object)
        keys = {"abs_inner": ("w",), "indicator": ("center", "delta")}
        if not isinstance(arg, container) or (op == "pow" and len(arg) != 2) \
                or any(k not in arg for k in keys.get(op, ())):
            raise form
        try:
            if op in ("re", "im"):
                index = int(arg)
            elif op in ("const", "indicator", "pow"):
                float(arg if op == "const" else arg[-1] if op == "pow"
                      else arg["delta"])
        except (TypeError, ValueError):
            raise form from None
        if op in ("re", "im") and d is not None and not 0 <= index < d:
            raise ValueError(f"density node {spec!r} reads coordinate {index}, "
                             f"but the measure has dimension {d}")
        if op in ("sum", "prod", "pow"):
            for a in arg[:1] if op == "pow" else arg:
                DensityExpr._check(a, d)
        elif op in keys:
            n = len(_parse_point(arg[keys[op][0]]))
            if d is not None and n != d:
                raise ValueError(f"density node {spec!r} has a point with {n} "
                                 f"coordinates, but the measure has dimension "
                                 f"{d}")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=complex))
        return self._eval(self.spec, pts)

    @classmethod
    def _eval(cls, spec, pts: np.ndarray) -> np.ndarray:
        n = len(pts)
        if isinstance(spec, (int, float)):
            return np.full(n, float(spec))
        (op, arg), = spec.items()
        if op == "const":
            return np.full(n, float(arg))
        if op == "abs_z":
            return np.linalg.norm(pts, axis=1)
        if op == "re":
            return pts[:, int(arg)].real
        if op == "im":
            return pts[:, int(arg)].imag
        if op == "abs_inner":
            w0 = _parse_point(arg["w"])
            return np.abs(pts @ np.conj(w0))
        if op == "indicator":
            center = _parse_point(arg["center"])
            delta = float(arg["delta"])
            r = np.linalg.norm(pts, axis=1)
            out = np.zeros(n)
            ok = r > 0
            proj = pts[ok] / r[ok, None]
            out[ok] = (np.abs(1.0 - proj @ np.conj(center)) <= delta + TOL)
            return out
        if op == "sum":
            return np.sum([cls._eval(a, pts) for a in arg], axis=0)
        if op == "prod":
            return np.prod([cls._eval(a, pts) for a in arg], axis=0)
        if op == "pow":
            base, e = cls._eval(arg[0], pts), float(arg[1])
            if not e.is_integer():
                bad = base < -TOL
                if bad.any():
                    i = int(np.argmax(bad))
                    raise ValueError(
                        f"density node {spec!r} raises the negative value "
                        f"{base[i]} at point {pts[i]} to the non-integer "
                        f"power {e}")
                # within TOL of zero a negative base counts as zero
                base = np.maximum(base, 0.0)
            return base ** e
        raise ValueError(f"unknown density op {op!r}")


def parse_density(spec) -> DensityExpr | None:
    return None if spec is None else DensityExpr(spec)


def _parse_point(obj) -> np.ndarray:
    """Point serialization: list of [re, im] pairs, one per coordinate."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2 or not np.all(np.isfinite(arr)):
        raise ValueError("a point must be a list [[re, im], ...] of finite "
                         f"numbers, one pair per coordinate, got {obj!r}")
    return arr[:, 0] + 1j * arr[:, 1]


def _dump_point(coords: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(coords)]


# ---------------------------------------------------------------------------
# the composite measure

@dataclass(frozen=True)
class BallMeasure:
    """mu = interior atoms + density * volume + g * sigma + boundary atoms."""

    d: int
    interior_atoms: tuple = ()              # ((BallPoint, mass), ...)
    interior_density: DensityExpr | None = None
    boundary_density: DensityExpr | None = None
    boundary_atoms: tuple = ()              # ((SpherePoint, mass), ...)

    def __post_init__(self):
        for pt, mass in self.interior_atoms:
            if mass <= 0:
                raise ValueError("atom masses must be positive")
            if not pt.is_interior:
                raise ValueError("interior atoms must satisfy |z| < 1")
        for pt, mass in self.boundary_atoms:
            if mass <= 0:
                raise ValueError("atom masses must be positive")
        for dens in (self.interior_density, self.boundary_density):
            if dens is not None:
                DensityExpr._check(dens.spec, self.d)

    def scaled(self, c: float) -> "BallMeasure":
        if c <= 0:
            raise ValueError("scaling must be positive")

        def s(dens):
            if dens is None:
                return None
            return DensityExpr({"prod": [{"const": c}, dens.spec]})

        return BallMeasure(
            self.d,
            tuple((p, c * m) for p, m in self.interior_atoms),
            s(self.interior_density),
            s(self.boundary_density),
            tuple((p, c * m) for p, m in self.boundary_atoms),
        )

    def boundary_density_values(self, grid: SphereGrid) -> np.ndarray:
        if self.boundary_density is None:
            return np.zeros(len(grid))
        vals = self.boundary_density(grid.nodes)
        if np.any(vals < -TOL):
            raise ValueError("boundary density is negative at a grid node")
        if not np.all(np.isfinite(vals)):
            raise ArithmeticError("boundary density not finite at a grid node")
        return np.clip(vals, 0.0, None)

    def total_mass(self, grid: SphereGrid, radial: RadialRule) -> float:
        return integrate_measure(self, lambda z: np.ones(len(z)), grid, radial)


def sigma_measure(d: int) -> BallMeasure:
    """The normalized surface measure itself (g identically 1)."""
    return BallMeasure(d, boundary_density=DensityExpr(1.0))


def measure_of_ball(mu: BallMeasure, Q: NonisotropicBall,
                    grid: SphereGrid) -> float:
    """mu(Q) for a cap Q on the sphere; only boundary parts contribute."""
    return _NodeTable.build(mu, grid).ball_mass(
        Q, Q.contains_coords(grid.nodes))


def measure_of_window(mu: BallMeasure, S: CarlesonWindow, grid: SphereGrid,
                      radial: RadialRule) -> float:
    """mu(S) = interior density over S + interior atoms in S
    + (if the window is outer-closed) the boundary parts over its cap."""
    return _NodeTable.build(mu, grid).window_mass(
        S, S.ball.contains_coords(grid.nodes), radial)


def integrate_measure(mu: BallMeasure, f, grid: SphereGrid,
                      radial: RadialRule,
                      boundary_f=None, atom_f=None) -> float:
    """integral of a nonnegative f against mu over the closed ball.

    f maps an (n, d) complex array of interior points to values; boundary_f
    (default f) is evaluated at sphere nodes for the density part; atom_f
    (default boundary_f) is evaluated at boundary singular atoms and may
    return math.inf when a radial limit diverges there.
    """
    return _NodeTable.build(mu, grid, radial).integrate(f, boundary_f, atom_f)


def _match_depth(radial: RadialRule, S: CarlesonWindow) -> RadialRule:
    if abs(radial.depth - S.depth) < 1e-12 and radial.d == S.d:
        return radial
    return radial_rule(S.d, radial.resolution, S.depth)


@dataclass(frozen=True)
class _NodeTable:
    """The parts of mu evaluated once on the quadrature nodes of a grid.

    A loop that integrates many functions against one measure (every w of
    a kernel profile, every cell of a window profile) builds the table once
    and passes it on, so no density is evaluated twice on the same nodes;
    the cap and window profiles walk their cells through its cell pass.
    wg holds sigma's weight times the validated boundary density at each
    sphere node; interior and density hold the full-ball tensor nodes of
    the radial rule and the interior density on them, and wint the volume
    weight times that density, wr_j * w_ang_i * density(r_j zeta_i), in the
    radius-major order of interior.points.  Each is None when mu has no
    such part (interior, density and wint also when no radial rule is
    given).

    radii holds the radius of each node of a kernel pass, one row per
    radius over the grid's nodes: row 0 is the sphere (radius 1), row j the
    interior radius r_j (only row 0 without interior nodes).  work is a
    float buffer of two arrays of radii's shape that a kernel pass
    overwrites on each call, so a table serves one pass at a time: it is
    not reentrant.
    """

    mu: BallMeasure
    grid: SphereGrid
    wg: np.ndarray | None
    interior: WindowNodes | None
    density: np.ndarray | None
    wint: np.ndarray | None
    radii: np.ndarray
    work: np.ndarray

    @classmethod
    def build(cls, mu: BallMeasure, grid: SphereGrid,
              radial: RadialRule | None = None) -> "_NodeTable":
        interior = density = wint = wg = None
        radii = np.ones(1)
        if radial is not None and mu.interior_density is not None:
            full = CarlesonWindow(NonisotropicBall(_pole(mu.d), 2.0), 1.0)
            interior = window_nodes(full, grid, _match_depth(radial, full))
            density = mu.interior_density(interior.points)
            # the full-ball cap holds every sphere node, so the tensor nodes
            # are r_j zeta_i over the grid's nodes in grid order
            assert len(interior.zeta) == len(grid)
            r = interior.radial
            wint = (r.weights[:, None] * interior.w_ang
                    * density.reshape(len(r.nodes), -1)).ravel()
            radii = np.concatenate((radii, r.nodes))
        if mu.boundary_density is not None:
            wg = grid.weights * mu.boundary_density_values(grid)
        radii = np.repeat(radii[:, None], len(grid), axis=1)
        return cls(mu, grid, wg, interior, density, wint, radii,
                   np.empty((2,) + radii.shape))

    def cells(self, centers, deltas):
        """The cell pass, the one place the node-indicator rule lives.

        Yields (i, j, Q, mask, s) for each cell Q = Q(centers[i], deltas[j]),
        center-major: mask marks the grid nodes with |1 - <zeta, c>| <=
        delta + TOL, and s, the weight under it, is the grid estimate of
        sigma(Q).  The gaps are taken once per center, from its raw row;
        cells with s = 0 are skipped.
        """
        for i, c in enumerate(centers):
            center, gaps = SpherePoint(c), niso_gap(c, self.grid.nodes)
            for j, delta in enumerate(deltas):
                mask = gaps <= delta + TOL
                s = float(self.grid.weights[mask].sum())
                if s > 0.0:
                    yield i, j, NonisotropicBall(center, float(delta)), mask, s

    def ball_mass(self, Q: NonisotropicBall, mask: np.ndarray) -> float:
        """mu(Q), see measure_of_ball; mask marks the grid nodes in Q."""
        total = 0.0
        if self.wg is not None:
            total = float(np.sum(self.wg[mask]))
        for pt, mass in self.mu.boundary_atoms:
            if Q.contains_coords(pt.coords[None, :])[0]:
                total += mass
        return total

    def window_mass(self, S: CarlesonWindow, mask: np.ndarray,
                    radial: RadialRule) -> float:
        """mu(S), see measure_of_window; mask marks the grid nodes in the
        cap of S."""
        mu = self.mu
        total = 0.0
        if mu.interior_density is not None:
            total += float(np.real(integrate_window(
                mu.interior_density, S, self.grid, _match_depth(radial, S))))
        for pt, mass in mu.interior_atoms:
            if S.contains_coords(pt.coords[None, :])[0]:
                total += mass
        if S.closed_outer:
            total += self.ball_mass(S.ball, mask)
        return total

    def integrate(self, f, boundary_f=None, atom_f=None) -> float:
        """The integral of f against mu, see integrate_measure; needs a
        table built with a radial rule when mu has an interior density."""
        boundary_f = boundary_f if boundary_f is not None else f
        return self.integrate_values(
            None if self.mu.interior_density is None
            else f(self.interior.points),
            None if self.wg is None else boundary_f(self.grid.nodes),
            f, atom_f if atom_f is not None else boundary_f)

    def integrate_values(self, interior, boundary, f, atom_f=None) -> float:
        """The integral against mu of an integrand given by its values on
        the table's interior nodes (unread when mu has no interior density)
        and on its sphere nodes (unread when mu has no boundary density);
        f is called at the interior atoms and atom_f (default f) at the
        boundary atoms, as in integrate."""
        inner = outer = None
        if self.mu.interior_density is not None:
            vals = np.asarray(interior) * self.density
            inner = float(np.real(window_sum(self.interior, vals)))
        if self.wg is not None:
            vals = np.real(np.asarray(boundary))
            if np.any(vals < -1e-10):
                raise ValueError("integrand must be nonnegative")
            outer = float(np.sum(self.wg * vals))
        return self.integrate_sums(inner, outer, f, atom_f)

    def integrate_sums(self, inner, outer, f, atom_f=None) -> float:
        """The integral against mu of an integrand whose integrals against
        the interior density and the boundary density are inner and outer
        (each None when mu has no such part), plus its atoms: f is called
        at the interior atoms and atom_f (default f) at the boundary atoms,
        as in integrate."""
        mu = self.mu
        atom_f = atom_f if atom_f is not None else f
        total = 0.0
        if inner is not None:
            total += inner
        for pt, mass in mu.interior_atoms:
            v = float(np.real(f(pt.coords[None, :])[0]))
            if v < -1e-10:
                raise ValueError("integrand must be nonnegative")
            total += mass * v
        if outer is not None:
            total += outer
        for pt, mass in mu.boundary_atoms:
            v = float(np.real(atom_f(pt.coords[None, :])[0]))
            if math.isinf(v):
                return math.inf
            total += mass * v
        return total


def _pole(d: int) -> SpherePoint:
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    return SpherePoint(e1)


@dataclass(frozen=True)
class RadonNikodymProfile:
    centers: tuple
    deltas: tuple
    ratios: np.ndarray         # (n_centers, n_deltas)


def radon_nikodym_profile(mu: BallMeasure, centers, deltas,
                          grid: SphereGrid) -> RadonNikodymProfile:
    """Ratios mu(Q(center, delta)) / sigma(Q(center, delta)) on a table.

    Numerator and denominator both use node-indicator sums on the same grid,
    so the ratio is consistent even where the grid's sigma estimate is crude.
    Cells whose grid estimate of sigma(Q) vanishes give nan.
    """
    deltas = tuple(deltas)
    if any(b <= 0 for b in deltas):
        raise ValueError("deltas must be positive")
    if any(b1 <= b2 for b1, b2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    table = _NodeTable.build(mu, grid)
    out = np.full((len(centers), len(deltas)), np.nan)
    for i, j, Q, mask, s in table.cells([c.coords for c in centers], deltas):
        out[i, j] = table.ball_mass(Q, mask) / s
    return RadonNikodymProfile(tuple(centers), deltas, out)


# ---------------------------------------------------------------------------
# serialization

def measure_to_dict(mu: BallMeasure) -> dict:
    return {
        "dimension": mu.d,
        "interior_atoms": [
            {"point": _dump_point(p.coords), "mass": float(m)}
            for p, m in mu.interior_atoms],
        "interior_density": None if mu.interior_density is None
        else mu.interior_density.spec,
        "boundary_density": None if mu.boundary_density is None
        else mu.boundary_density.spec,
        "boundary_atoms": [
            {"point": _dump_point(p.coords), "mass": float(m)}
            for p, m in mu.boundary_atoms],
    }


def _atoms_from_dict(doc: dict, key: str, kind) -> tuple:
    entries = doc.get(key) or []
    if not isinstance(entries, list):
        raise ValueError(f"measure field {key!r} must be a list, "
                         f"got {entries!r}")
    atoms = []
    for i, e in enumerate(entries):
        try:
            mass, point = float(e["mass"]), _parse_point(e["point"])
        except (TypeError, KeyError, IndexError, ValueError):
            raise ValueError(f"measure field {key!r} entry {i} must be "
                             "{point: [[re, im], ...], mass: number}, "
                             f"got {e!r}") from None
        if mass <= 0:
            raise ValueError(f"non-positive mass in {key}")
        atoms.append((kind(point), mass))
    return tuple(atoms)


def measure_from_dict(doc: dict) -> BallMeasure:
    if not isinstance(doc, dict):
        raise ValueError("measure file must hold a mapping of fields")
    try:
        d = int(doc["dimension"])
    except (TypeError, ValueError):
        raise ValueError("measure field 'dimension' must be an integer, "
                         f"got {doc['dimension']!r}") from None
    return BallMeasure(
        d, _atoms_from_dict(doc, "interior_atoms", BallPoint),
        parse_density(doc.get("interior_density")),
        parse_density(doc.get("boundary_density")),
        _atoms_from_dict(doc, "boundary_atoms", SpherePoint))


# libyaml's safe loader when PyYAML was built with it: it builds the same
# objects as the pure-Python one and raises the same YAMLError classes
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(path):
    """The document of the YAML file at path, read by the safe loader."""
    with open(path) as fh:
        return yaml.load(fh, Loader=_YAML_LOADER)


def load_measure(path) -> BallMeasure:
    return measure_from_dict(_load_yaml(path))


def dump_measure(mu: BallMeasure, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(measure_to_dict(mu), fh, sort_keys=True)
