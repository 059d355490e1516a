"""Finite positive measures on the closed unit ball, represented by their
Lebesgue decomposition: interior atoms, an interior density against volume,
a boundary density against sigma, and finitely many boundary singular atoms.

Densities come from a small closed expression grammar so that measures are
read from YAML and reproducible.  L^2-type integrals may legitimately be
infinite; infinity is produced deliberately (math.inf), never by overflow.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .geometry import (BallPoint, CarlesonWindow, NonisotropicBall,
                       SpherePoint, TOL, niso_gap)
from .kernels import Exponents, _modulus_rows, _norms_p, cauchy_modulus_p
from .quadrature import (RadialRule, SphereGrid, WindowNodes, _radial_rows,
                         integrate_window, radial_rule, sphere_sum,
                         window_nodes, window_sum)

__all__ = ["DensityExpr", "parse_density", "BallMeasure", "sigma_measure",
           "measure_of_ball", "measure_of_window", "integrate_measure",
           "radon_nikodym_profile", "load_measure"]


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
      {"indicator": {"center": point, "delta": d}}   cap indicator, 0 < d <= 2
                                           (radial projection)
      {"sum": [...]}, {"prod": [...]}, {"pow": [expr, exponent]}

    The spec is compiled once, by _compile, into its evaluator.  radial
    is True when every leaf of the spec is a number or abs_z, so that the
    density depends on |z| alone.
    """

    def __init__(self, spec):
        self.spec = spec
        self._fn, self.radial = _compile(spec)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self._fn(np.atleast_2d(np.asarray(pts, dtype=complex)))


def _finite(x, spec, form: ValueError) -> float:
    """x as a float; form when it is no number (_real), and an error naming
    spec when it is not finite."""
    try:
        x = _real(x)
    except (TypeError, OverflowError):
        raise form from None
    if not math.isfinite(x):
        raise ValueError(f"density node {spec!r} needs a finite number, "
                         f"got {x}")
    return x


def _compile(spec, d=None):
    """(evaluator, radial) of a density spec: the evaluator maps an
    (n, d) complex array of points to n values, and radial tells whether
    every leaf is a number or abs_z.  One walk over the spec raises
    ValueError naming the first malformed node; given d, also a point
    without d coordinates or an index outside [0, d).  Points and numbers
    are parsed here, once, so an evaluation walks no dict."""
    if isinstance(spec, (int, float)):
        op, arg = "const", spec
    elif not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"malformed density node: {spec!r}")
    else:
        (op, arg), = spec.items()
    if op not in _DENSITY_ARGS:
        raise ValueError(f"unknown density op {op!r}")
    form = ValueError(f"density node {spec!r} must take {_DENSITY_ARGS[op]}")
    container = {"abs_z": type(None), "re": (int, float), "im": (int, float),
                 "abs_inner": dict, "indicator": dict, "sum": list,
                 "prod": list, "pow": list}.get(op, object)
    keys = {"abs_inner": ("w",), "indicator": ("center", "delta")}.get(op, ())
    if not isinstance(arg, container) or (op == "pow" and len(arg) != 2) \
            or (op in ("re", "im") and (isinstance(arg, bool) or arg % 1)) \
            or any(k not in arg for k in keys):
        raise form
    if op == "const":
        c = _finite(arg, spec, form)
        return lambda pts: np.full(len(pts), c), True
    if op == "abs_z":
        return _row_norms, True
    if op in ("re", "im"):
        k = int(arg)
        if d is not None and not 0 <= k < d:
            raise ValueError(f"density node {spec!r} reads coordinate {k}, "
                             f"but the measure has dimension {d}")
        if op == "re":
            return lambda pts: pts[:, k].real, False
        return lambda pts: pts[:, k].imag, False
    if op in ("sum", "prod"):
        if not arg:
            raise ValueError(f"density node {spec!r} must take at least "
                             "one node")
        fns, radial = zip(*(_compile(a, d) for a in arg))
        reduce = getattr(np, op)
        return (lambda pts: reduce([fn(pts) for fn in fns], axis=0),
                all(radial))
    if op == "pow":
        e = _finite(arg[1], spec, form)
        base, radial = _compile(arg[0], d)
        if e.is_integer():
            return lambda pts: base(pts) ** e, radial

        def power(pts):
            vals = base(pts)
            bad = vals < -TOL
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"density node {spec!r} raises the negative value "
                    f"{vals[i]} at point {pts[i]} to the non-integer power "
                    f"{e}")
            # within TOL of zero a negative base counts as zero
            return np.maximum(vals, 0.0) ** e
        return power, radial
    if op == "indicator":      # its delta is checked before its point
        delta = _finite(arg["delta"], spec, form)
        if not 0.0 < delta <= 2.0:
            raise ValueError(f"density node {spec!r} needs a delta in "
                             f"(0, 2], got {delta}")
        bound = delta + TOL
    point = _parse_point(arg[keys[0]])
    if d is not None and len(point) != d:
        raise ValueError(f"density node {spec!r} has a point with "
                         f"{len(point)} coordinates, but the measure has "
                         f"dimension {d}")
    conj = np.conj(point)
    if op == "abs_inner":
        return lambda pts: np.abs(pts @ conj), False

    def indicator(pts):
        r = _row_norms(pts)
        out = np.zeros(len(pts))
        ok = r > 0
        proj = pts[ok] / r[ok, None]
        out[ok] = (np.abs(1.0 - proj @ conj) <= bound)
        return out
    return indicator, False


def _row_norms(pts: np.ndarray) -> np.ndarray:
    """|z| of each row of pts with the bits of np.linalg.norm(pts, axis=1):
    up to d = 3 the columns of |z_k|^2 are added left to right, faster."""
    if pts.shape[1] > 3:
        return np.linalg.norm(pts, axis=1)
    return np.sqrt(functools.reduce(np.add, (pts.conj() * pts).real.T))


def parse_density(spec) -> DensityExpr | None:
    return None if spec is None else DensityExpr(spec)


def _real(x) -> float:
    """x, a number as files write it, as a float: a bool or a string is
    none (TypeError), and an integer no float holds raises OverflowError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _parse_point(obj) -> np.ndarray:
    """A point as files write it: a list of [re, im] pairs of numbers
    (_real), one per coordinate."""
    try:
        arr = np.array([[_real(re), _real(im)] for re, im in obj])
    except (TypeError, ValueError, OverflowError):
        arr = np.empty(0)
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise ValueError("a point must be a list [[re, im], ...] of finite "
                         f"numbers, one pair per coordinate, got {obj!r}")
    return arr[:, 0] + 1j * arr[:, 1]


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
        for key in ("interior_atoms", "boundary_atoms"):
            for i, (pt, mass) in enumerate(getattr(self, key)):
                _check_mass(key, i, mass)
                if pt.d != self.d:
                    raise ValueError(f"measure field {key!r} entry {i} has a "
                                     f"point with {pt.d} coordinates, but "
                                     f"the measure has dimension {self.d}")
                if key == "interior_atoms" and not pt.is_interior:
                    raise _atom_norm_error(key, i, pt.norm)
        for dens in (self.interior_density, self.boundary_density):
            if dens is not None:
                _compile(dens.spec, self.d)

    def boundary_density_values(self, grid: SphereGrid) -> np.ndarray:
        if self.boundary_density is None:
            return np.zeros(len(grid))
        vals = self.boundary_density(grid.nodes)
        if np.any(vals < -TOL):
            raise ValueError("boundary density is negative at a grid node")
        if not np.all(np.isfinite(vals)):
            raise ArithmeticError("boundary density not finite at a grid node")
        return np.clip(vals, 0.0, None)

    def interior_density_values(self, pts: np.ndarray) -> np.ndarray:
        """The interior density at the ball points pts; a value below -TOL
        is an error (a value that is not finite is left to the sums, which
        name its node)."""
        vals = self.interior_density(pts)
        if np.any(vals < -TOL):
            raise ValueError("interior density is negative at a ball node")
        return vals


def sigma_measure(d: int) -> BallMeasure:
    """The normalized surface measure itself (g identically 1)."""
    return BallMeasure(d, boundary_density=DensityExpr(1.0))


def measure_of_ball(mu: BallMeasure, Q: NonisotropicBall,
                    grid: SphereGrid) -> float:
    """mu(Q) for a cap Q on the sphere; only boundary parts contribute."""
    return float(_NodeTable.build(mu, grid).caps(Q.center.coords,
                                                 [Q.delta])[1][0])


def measure_of_window(mu: BallMeasure, S: CarlesonWindow, grid: SphereGrid,
                      radial: RadialRule) -> float:
    """mu(S) = interior density over S + interior atoms in S + the boundary
    parts over its cap (windows are outer-closed)."""
    table = _NodeTable.build(mu, grid)
    s, m = table.caps(S.ball.center.coords, [S.ball.delta])
    return table.window_masses(radial, [(S, m[0], s[0])])[0]


def integrate_measure(mu: BallMeasure, f, grid: SphereGrid,
                      radial: RadialRule) -> float:
    """integral of a nonnegative f against mu over the closed ball.

    f maps an (n, d) complex array of points to values and is called once
    on each of mu's node sets (see _NodeTable): the interior nodes, the
    sphere nodes, the interior atoms and the boundary atoms.  It may return
    math.inf at a boundary atom where a radial limit diverges.
    """
    table = _NodeTable.build(mu, grid, radial)
    return table.integrate_values(
        [None if pts is None else f(pts) for pts in table.sets])


def _match_depth(radial: RadialRule, d: int, depth: float) -> RadialRule:
    if abs(radial.depth - depth) < 1e-12 and radial.d == d:
        return radial
    return radial_rule(d, radial.resolution, depth)


def _scaled(rows: np.ndarray, factors) -> np.ndarray:
    """A new stack of rows, row k times factors[k] (an array of the row's
    length or one number): each row one multiply, with no stacked copy of
    the factors."""
    out = np.empty(rows.shape)
    for row, src, f in zip(out, rows, factors):
        np.multiply(src, f, out=row)
    return out


# moduli per tile of a ray pass: its two float buffers of 2^15 values
# stay in cache while a tile's rows are formed and summed
_TILE = 2 ** 15


@dataclass(frozen=True)
class _NodeTable:
    """The parts of mu evaluated once on the quadrature nodes of a grid.

    A loop that integrates many functions against one measure (every w of
    a kernel profile, every cell of a window profile) builds the table once
    and passes it on, so no density is evaluated twice on the same nodes;
    the cap and window profiles take each search centre's nested caps from
    one cap pass (caps) and all their windows' masses from one
    window_masses call, where a radial interior density g(|z|) needs one
    radial sum per window.

    sets holds mu's node sets, each an (n, d) array, in the order every
    integral reads them: the full-ball tensor nodes of the radial rule
    (interior.points, radius-major), the grid's sphere nodes, the interior
    atoms and the boundary atoms, stacked in atom order.  A set is None
    when mu has no such part (the interior nodes also when no radial rule
    is given).  wg holds sigma's weight times the validated boundary
    density at each sphere node, wint the volume weight times the interior
    density, wr_j * w_ang_i * density(r_j zeta_i); each is None with its
    set.  An integral against the table is one dot product with wint and
    one with wg, plus the atoms.

    A radial interior density g(|z|) is read once, on the points (r_j, 0,
    ..., 0), and slices holds wr_j * g(r_j), one per radius (None for a
    density with an angular factor); wint is then wr_j * w_ang_i * g(r_j).
    On a slice the ray pass needs no angular nodes: the sphere integral
    of |k_w(r_j .)|^p is ||k_{r_j w}||_p^p in closed form.  Nor does
    condition (i)'s combination or monomial witness f at p = 2
    (criteria._function_ratio): its sphere integral there is
    ||f(r_j .)||^2_{H^2} in Gram form.  slice_sum sums both.

    tile is ray_pass's buffer, two float arrays of rows of the grid's
    length: as many rows as fit in _TILE moduli, and at least one per
    sphere and interior radius, so that one w's rows always fit.  A pass
    overwrites it tile by tile, so a table is not reentrant: no pass may
    start while another is reading its rows.
    """

    mu: BallMeasure
    grid: SphereGrid
    sets: tuple
    wg: np.ndarray | None
    interior: WindowNodes | None
    wint: np.ndarray | None
    slices: np.ndarray | None
    tile: np.ndarray

    @classmethod
    def build(cls, mu: BallMeasure, grid: SphereGrid,
              radial: RadialRule | None = None) -> "_NodeTable":
        """The table of mu on grid (and on the full-ball tensor nodes of
        radial); the boundary density is checked before the interior one."""
        wg = interior = wint = slices = None
        if mu.boundary_density is not None:
            wg = grid.weights * mu.boundary_density_values(grid)
        dens = mu.interior_density
        if radial is not None and dens is not None:
            interior = window_nodes(grid, None, _match_depth(radial, mu.d, 1))
            r = interior.radial
            if dens.radial:
                pts = np.zeros((len(r.nodes), mu.d), dtype=complex)
                pts[:, 0] = r.nodes
                density = mu.interior_density_values(pts)
                slices = r.weights * density
                density = density[:, None]
            else:
                density = mu.interior_density_values(
                    interior.points).reshape(len(r.nodes), -1)
            wint = (r.weights[:, None] * interior.w_ang * density).ravel()
        sets = (None if interior is None else interior.points,
                None if wg is None else grid.nodes,
                *(np.array([pt.coords for pt, _ in atoms]) if atoms else None
                  for atoms in (mu.interior_atoms, mu.boundary_atoms)))
        rows = max(_TILE // len(grid),
                   1 + (0 if interior is None else len(interior.radial.nodes)))
        return cls(mu, grid, sets, wg, interior, wint, slices,
                   np.empty((2, rows, len(grid))))

    def caps(self, c: np.ndarray, deltas, t: np.ndarray | None = None):
        """(s, m) over the nested caps Q_j = Q(c, deltas[j]), deltas strictly
        decreasing: the grid estimates of sigma(Q_j), 0 when Q_j holds no
        grid node, and of mu(Q_j).  The one place the node-indicator rule
        lives: a grid node or boundary atom is in Q_j when its gap
        |1 - <zeta, c>| (niso_gap's bits; the grid's from t = <zeta_i, c>,
        c's ray's if given) is at most deltas[j] + TOL.  Each point is
        ranked once, by the number of caps that hold it; s and m are suffix
        sums of sigma's and mu's weights binned by rank, so that on sigma
        m / s is exactly 1."""
        if t is None:
            t = self.grid.nodes @ np.conj(c)
        n, k = len(t), len(deltas)
        gaps = np.abs(1.0 - t)
        mass = np.zeros(n) if self.wg is None else self.wg
        if self.mu.boundary_atoms:
            gaps = np.concatenate([gaps, niso_gap(c, self.sets[3])])
            mass = np.concatenate([mass, [m for _, m in
                                          self.mu.boundary_atoms]])
        # -gap >= -(delta_j + TOL) for each cap Q_j that holds the point
        ranks = np.searchsorted(-(np.asarray(deltas, dtype=float) + TOL),
                                -gaps, side="right")
        return tuple(np.cumsum(np.bincount(r, w, k + 1)[:0:-1])[::-1]
                     for r, w in ((ranks[:n], self.grid.weights),
                                  (ranks, mass)))

    def window_masses(self, radial: RadialRule, windows) -> list[float]:
        """mu(S) of each window S, see measure_of_window, in order.

        windows holds one (S, cap_mass, s) per window: s and cap_mass are
        the grid estimates of sigma and mu on the cap of S (caps).  The
        interior density is integrated over S by the radial rule of depth
        S.depth: window by window by integrate_window when it has an
        angular factor, and for all windows at once when it is radial (see
        _radial_sums).  Either way the first window at fault raises.

        An interior atom is in S as S.contains_coords decides, with its
        norm and radial projection taken once per call, not per window.
        """
        mu = self.mu
        dens = mu.interior_density
        if dens is None:
            inner = [0.0] * len(windows)
        elif dens.radial:
            inner = self._radial_sums(radial, windows)
        else:
            inner = [float(np.real(integrate_window(
                mu.interior_density_values, S, self.grid,
                _match_depth(radial, mu.d, S.depth)))) for S, *_ in windows]
        atoms = []
        for pt, mass in mu.interior_atoms:
            z = pt.coords[None, :]
            r = np.linalg.norm(z, axis=1)
            atoms.append((float(r[0]), z / r[:, None] if r[0] > 0 else None,
                          mass))
        out = []
        for (S, cap_mass, _), total in zip(windows, inner):
            for r, proj, mass in atoms:
                # the origin lies only in the full-depth window
                if 1 - S.depth - TOL <= r <= 1 + TOL and (
                        S.depth >= 1 - TOL if proj is None
                        else S.ball.contains_coords(proj)[0]):
                    total += mass
            out.append(total + cap_mass)
        return out

    def _radial_sums(self, radial: RadialRule, windows) -> list[float]:
        """The radial interior density g integrated over each window, as
        s * sum_j wr_j g(r_j): over the cap's grid nodes g(r_j zeta_i) is
        g(r_j), and their weights add to s.  The rules of every depth are
        built at once (_radial_rows; the given rule serves a depth within
        1e-12 of its own, as in _match_depth) and g is evaluated once, on
        the points (r_j, 0, ..., 0) of every window whose cap holds a node:
        a negative value raises interior_density_values' error, and the
        first of those windows where g is not finite integrate_window's,
        naming the radius and the cap's first node."""
        d = self.mu.d
        s = np.array([w[2] for w in windows], dtype=float)
        live = np.flatnonzero(s > 0.0)
        depths = np.array([windows[k][0].depth for k in live], dtype=float)
        r, wr = _radial_rows(d, radial.resolution, depths)
        if radial.d == d:
            same = np.abs(radial.depth - depths) < 1e-12
            r[same], wr[same] = radial.nodes, radial.weights
        pts = np.zeros((r.size, d), dtype=complex)
        pts[:, 0] = r.ravel()
        g = self.mu.interior_density_values(pts).reshape(r.shape)
        bad = np.flatnonzero(~np.isfinite(g).all(axis=1))
        if bad.size:
            integrate_window(self.mu.interior_density_values,
                             windows[live[bad[0]]][0], self.grid,
                             _match_depth(radial, d, depths[bad[0]]))
        out = np.zeros(len(windows))
        out[live] = s[live] * np.sum(wr * g, axis=1)
        return out.tolist()

    def integrate_values(self, vals, inner: float | None = None) -> float:
        """The integral against mu of one integrand given by its values on
        each node set of sets (None where the set is None): integrals for
        a stack of one."""
        return next(self.integrals(
            [None if v is None else np.asarray(v)[None] for v in vals],
            [inner]))

    def integrals(self, vals, inners):
        """Yields the integral against mu of each integrand of a stack, in
        order: vals holds each node set's values, one row per integrand
        (None where the set is None), and inners each integrand's interior
        part already integrated (ray_pass's slices; the interior values
        are then None) or None.  One summation rule: a dot product with
        wint and one with wg (one np.vecdot per set for the stack, a BLAS
        dot per row with the bits of np.dot on the row alone), then the
        atoms' masses times their values in atom order.  An integrand's
        inner is read and its sums checked only when it is yielded, so a
        caller's checks between yields keep their order: an interior sum
        that is not finite is taken again by window_sum, which names the
        node at fault, and a negative value is an error.  A boundary
        atom's value may be inf, and then so is the integral."""
        if self.mu.interior_density is not None and self.sets[0] is None:
            raise ValueError("an integral against a measure with an interior "
                             "density needs a table built with a radial rule")
        interior, boundary, inner_atoms, outer_atoms = vals
        if interior is not None:
            dots = np.vecdot(self.wint, interior)
        if boundary is not None:
            boundary = np.real(boundary)
            negative = np.any(boundary < -1e-10, axis=1)
            sums = np.vecdot(self.wg, boundary)
        inner_atoms, outer_atoms = (
            None if a is None else np.real(a).tolist()
            for a in (inner_atoms, outer_atoms))
        for k, inner in enumerate(inners):
            total = 0.0
            if interior is not None:
                inner = float(np.real(dots[k]))
                if not math.isfinite(inner):
                    window_sum(self.interior, interior[k] * self.wint)
            if inner is not None:
                total += inner
            if inner_atoms is not None:
                for (_, mass), v in zip(self.mu.interior_atoms,
                                        inner_atoms[k]):
                    if v < -1e-10:
                        raise ValueError("integrand must be nonnegative")
                    total += mass * v
            if boundary is not None:
                if negative[k]:
                    raise ValueError("integrand must be nonnegative")
                total += float(sums[k])
            if outer_atoms is not None:
                for (_, mass), v in zip(self.mu.boundary_atoms,
                                        outer_atoms[k]):
                    if math.isinf(v):
                        total = math.inf
                        break
                    total += mass * v
            yield total

    def ray_pass(self, c: np.ndarray, rhos, p: float, ms=None,
                 norms: bool = True, t: np.ndarray | None = None):
        """(I, G) on the ray toward c, one entry per w = rho c for rho in
        rhos (each w interior): I the integral of m |k_w|^p against mu, G
        the sigma sum of |k_w|^p (None when not norms); the one place a
        Cauchy kernel is integrated against a table.  ms is None (m = 1)
        or an iterable of one m per w, taken a tile at a time: m's values
        on each node set, None where the set is None, and on the interior
        nodes maybe one number (then for every w).

        As <r zeta, w> = (rho r) <zeta, c> and <a, w> = rho <a, c>, every
        modulus comes from t = <zeta_i, c> (taken here unless given, and
        only when a row needs it) and <a, c>, one modulus call per atom
        set for all of rhos.  The sphere row (formed only when sets reads
        it or G is asked for) and the interior rows r_j are written into
        tile, as many w's at a time as fit in _TILE moduli (at least
        one), and a tile's sums are taken together (integrals; G by one
        np.vecdot).  With slices (a radial density) and m one number
        inside, the interior is instead m sum_j wr_j g(r_j)
        ||k_{rho r_j c}||_p^p, exact in angle (|k_w(r_j zeta)| =
        |k_{r_j w}(zeta)|), with no interior row.  Each w's checks are
        taken in the order of rhos, so the first w at fault raises:
        slice_sum's and integrals' errors, then sphere_sum's where G is
        not finite or a zero-norm error where G <= 0.
        """
        d, n = c.size, len(self.grid)
        rhos = np.asarray(rhos, dtype=float)
        if ms is not None:
            ms = iter(ms)
            first = next(ms, None)
            ms = itertools.chain([first], ms)
        sliced = self.slices is not None and (
            ms is None or first is None or np.ndim(first[0]) == 0)
        sphere = norms or self.sets[1] is not None
        tensor = self.sets[0] is not None and not sliced
        radii = np.concatenate([np.ones(int(sphere))] + (
            [self.interior.radial.nodes] if tensor else []))
        atoms = [None if pts is None else cauchy_modulus_p(
            pts @ np.conj(c), d, p, rhos) for pts in self.sets[2:]]
        if sliced:
            slices = _norms_p(np.square(np.multiply.outer(
                rhos, self.interior.radial.nodes)), Exponents(p, d))
        per = max(1, _TILE // n // len(radii) if len(radii) else len(rhos))
        if len(radii):
            if t is None:
                t = self.grid.nodes @ np.conj(c)
            re, im = np.ascontiguousarray(t.real), np.ascontiguousarray(t.imag)
        I, G = [], [] if norms else None
        for k0 in range(0, len(rhos), per):
            chunk = rhos[k0:k0 + per]
            mt = None if ms is None else [next(ms) for _ in chunk]
            vals = [None, None] + [None if u is None else u[k0:k0 + per]
                                   for u in atoms]
            if len(radii):
                r = np.multiply.outer(chunk, radii).ravel()
                block = _modulus_rows(re, im, d, p, r, self.tile[:, :len(r)])
                block = block.reshape(len(chunk), -1)     # a w's rows each
                vals[0] = block[:, n * sphere:] if tensor else None
                vals[1] = block[:, :n]
                if norms:
                    g = np.vecdot(self.grid.weights, block[:, :n]).tolist()
            vals = [None if pts is None or u is None else u if mt is None
                    else _scaled(u, [m[j] for m in mt])
                    for j, (pts, u) in enumerate(zip(self.sets, vals))]
            inners = (self.slice_sum(slices[k]) * (
                1.0 if mt is None else float(mt[k - k0][0])) if sliced
                else None for k in range(k0, k0 + len(chunk)))
            for k, total in enumerate(self.integrals(vals, inners)):
                I.append(total)
                if norms:
                    G.append(g[k])
                    if not math.isfinite(g[k]):
                        sphere_sum(self.grid, block[k, :n])
                    if g[k] <= 0:
                        raise ValueError("zero-norm test function in the "
                                         "family")
        return I, G

    def slice_sum(self, sphere: np.ndarray) -> float:
        """sum_j slices_j sphere_j, the integral against the radial interior
        density of an integrand whose sphere integral at radius r_j is
        sphere_j.  A sum that is not finite is taken again by window_sum,
        which names the first radius at fault and the grid's first node."""
        terms = self.slices * sphere
        inner = float(np.sum(terms))
        if not math.isfinite(inner):
            window_sum(WindowNodes(self.grid.nodes[:1], self.grid.weights[:1],
                                   self.interior.radial, None), terms)
        return inner


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
    for i, c in enumerate(centers):
        s, m = table.caps(c.coords, deltas)
        np.divide(m, s, out=out[i], where=s > 0.0)
    return RadonNikodymProfile(tuple(centers), deltas, out)


# ---------------------------------------------------------------------------
# measure files

def _field(doc: dict, key: str, kind: str):
    """doc[key], the field key of a kind ("measure", "symbol") file."""
    if key not in doc:
        raise ValueError(f"{kind} field {key!r} is missing")
    return doc[key]


def _dimension(dim, kind: str) -> int:
    """dim, the dimension field of a kind ("measure", "symbol") file, as an
    int.  A bool, a string that is no integer, or a number that is not
    integral or not finite is an input error."""
    if not isinstance(dim, bool) and (
            isinstance(dim, (numbers.Integral, str))
            or isinstance(dim, float) and dim.is_integer()):
        try:
            return int(dim)
        except ValueError:
            pass
    raise ValueError(f"{kind} field 'dimension' must be an integer, "
                     f"got {dim!r}")


def _check_mass(key: str, i: int, mass) -> None:
    if not 0.0 < mass < math.inf:       # nan fails both comparisons
        raise ValueError(f"measure field {key!r} entry {i} has mass {mass}; "
                         "atom masses must be finite and positive")


def _atom_norm_error(key: str, i: int, norm: float) -> ValueError:
    rule = "|z| < 1" if key == "interior_atoms" else "|z| = 1"
    return ValueError(f"measure field {key!r} entry {i} has a point of norm "
                      f"{norm}; its atoms must satisfy {rule}")


def _atoms_from_dict(doc: dict, key: str, kind) -> tuple:
    entries = doc.get(key) or []
    if not isinstance(entries, list):
        raise ValueError(f"measure field {key!r} must be a list, "
                         f"got {entries!r}")
    atoms = []
    for i, e in enumerate(entries):
        try:
            mass, point = _real(e["mass"]), _parse_point(e["point"])
        except (TypeError, KeyError, IndexError, ValueError, OverflowError):
            raise ValueError(f"measure field {key!r} entry {i} must be "
                             "{point: [[re, im], ...], mass: number}, "
                             f"got {e!r}") from None
        _check_mass(key, i, mass)
        try:
            atoms.append((kind(point), mass))
        except ValueError:
            raise _atom_norm_error(
                key, i, float(np.linalg.norm(point))) from None
    return tuple(atoms)


def measure_from_dict(doc: dict) -> BallMeasure:
    if not isinstance(doc, dict):
        raise ValueError("measure file must hold a mapping of fields")
    return BallMeasure(
        _dimension(_field(doc, "dimension", "measure"), "measure"),
        _atoms_from_dict(doc, "interior_atoms", BallPoint),
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
