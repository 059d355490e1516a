"""Finite positive measures on the closed unit ball, represented by their
Lebesgue decomposition: interior atoms, an interior density against volume,
a boundary density against sigma, and finitely many boundary singular atoms.

Densities come from a small closed expression grammar so that measures are
read from YAML and reproducible.  L^2-type integrals may legitimately be
infinite; infinity is produced deliberately (math.inf), never by overflow.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .geometry import (BallPoint, CarlesonWindow, NonisotropicBall,
                       SpherePoint, TOL, niso_gap)
from .kernels import Exponents, _norms_p, cauchy_modulus_p
from .quadrature import (RadialRule, SphereGrid, WindowNodes, _radial_rows,
                         radial_rule, window_nodes, window_sum)

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
    """x as a float; form when it is no number (a bool or a string is
    none), and an error naming spec when it is not finite."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise form
    try:
        x = float(x)
    except OverflowError:
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


def _parse_point(obj) -> np.ndarray:
    """A point as files write it: a list of [re, im] pairs, one per
    coordinate."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2 or not np.all(np.isfinite(arr)):
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
    return _NodeTable.build(mu, grid).ball_mass(
        Q, Q.contains_coords(grid.nodes))


def measure_of_window(mu: BallMeasure, S: CarlesonWindow, grid: SphereGrid,
                      radial: RadialRule) -> float:
    """mu(S) = interior density over S + interior atoms in S + the boundary
    parts over its cap (windows are outer-closed)."""
    mask = S.ball.contains_coords(grid.nodes)
    table = _NodeTable.build(mu, grid)
    s = float(grid.weights[mask].sum())
    return table.window_masses(
        radial, [(S, table.ball_mass(S.ball, mask), mask, s)])[0]


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


@dataclass(frozen=True)
class _NodeTable:
    """The parts of mu evaluated once on the quadrature nodes of a grid.

    A loop that integrates many functions against one measure (every w of
    a kernel profile, every cell of a window profile) builds the table once
    and passes it on, so no density is evaluated twice on the same nodes;
    the cap and window profiles walk their cells through its cell pass and
    take all their windows' masses in one window_masses call, where a
    radial interior density g(|z|) needs one radial sum per window and no
    angular nodes.

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
    On a slice the kernel pass needs no angular nodes: the sphere integral
    of |k_w(r_j .)|^p is ||k_{r_j w}||_p^p in closed form.  Nor does
    condition (i)'s combination or monomial witness f at p = 2
    (criteria._function_ratio): its sphere integral there is
    ||f(r_j .)||^2_{H^2} in Gram form.  slice_sum sums both.

    radii is the column of kernel_pass's row radii (1, the sphere, then
    each r_j), and kernel_pass overwrites work, two float arrays of a row
    per radius by a column per grid node: a table is not reentrant.
    """

    mu: BallMeasure
    grid: SphereGrid
    sets: tuple
    wg: np.ndarray | None
    interior: WindowNodes | None
    wint: np.ndarray | None
    slices: np.ndarray | None
    radii: np.ndarray
    work: np.ndarray

    @classmethod
    def build(cls, mu: BallMeasure, grid: SphereGrid,
              radial: RadialRule | None = None) -> "_NodeTable":
        """The table of mu on grid (and on the full-ball tensor nodes of
        radial); the boundary density is checked before the interior one."""
        wg = interior = wint = slices = None
        radii = np.ones(1)
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
            radii = np.concatenate((radii, r.nodes))
        sets = (None if interior is None else interior.points,
                None if wg is None else grid.nodes,
                *(np.array([pt.coords for pt, _ in atoms]) if atoms else None
                  for atoms in (mu.interior_atoms, mu.boundary_atoms)))
        return cls(mu, grid, sets, wg, interior, wint, slices,
                   radii[:, None], np.empty((2, len(radii), len(grid))))

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

    def window_masses(self, radial: RadialRule, windows) -> list[float]:
        """mu(S) of each window S, see measure_of_window, in order.

        windows holds one (S, cap_mass, mask, s) per window: mask marks the
        grid nodes in the cap of S (it may be None when mu has no interior
        density), s is their weight and cap_mass their mu (ball_mass).  The
        interior density is integrated over S by the radial rule of depth
        S.depth: window by window on the tensor nodes of the cap when it has
        an angular factor, and for all windows at once when it is radial
        (see _radial_sums).  Either way the first window at fault raises.

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
            inner = [self._tensor_sum(radial, S, mask)
                     for S, _, mask, _ in windows]
        atoms = []
        for pt, mass in mu.interior_atoms:
            z = pt.coords[None, :]
            r = np.linalg.norm(z, axis=1)
            atoms.append((float(r[0]), z / r[:, None] if r[0] > 0 else None,
                          mass))
        out = []
        for (S, cap_mass, _, _), total in zip(windows, inner):
            for r, proj, mass in atoms:
                # the origin lies only in the full-depth window
                if 1 - S.depth - TOL <= r <= 1 + TOL and (
                        S.depth >= 1 - TOL if proj is None
                        else S.ball.contains_coords(proj)[0]):
                    total += mass
            out.append(total + cap_mass)
        return out

    def _tensor_sum(self, radial: RadialRule, S: CarlesonWindow,
                    mask: np.ndarray) -> float:
        """The interior density's integral over S: window_sum over the
        tensor nodes of the cap's grid nodes (mask) and the radial rule of
        depth S.depth."""
        if not mask.any():
            return 0.0
        nodes = window_nodes(self.grid, mask,
                             _match_depth(radial, self.mu.d, S.depth))
        return float(np.real(window_sum(
            nodes, self.mu.interior_density_values(nodes.points))))

    def _radial_sums(self, radial: RadialRule, windows) -> list[float]:
        """The radial interior density g integrated over each window, as
        s * sum_j wr_j g(r_j): over the cap's grid nodes g(r_j zeta_i) is
        g(r_j), and their weights add to s.  The rules of every depth are
        built at once (_radial_rows; the given rule serves a depth within
        1e-12 of its own, as in _match_depth) and g is evaluated once, on
        the points (r_j, 0, ..., 0) of every window whose cap holds a node:
        a negative value raises interior_density_values' error, and the
        first of those windows where g is not finite raises window_sum's,
        naming the radius and the cap's first node."""
        d = self.mu.d
        s = np.array([w[3] for w in windows], dtype=float)
        live = np.flatnonzero(s > 0.0)
        depths = np.array([windows[k][0].depth for k in live], dtype=float)
        r, wr = _radial_rows(d, radial.resolution, depths)
        if radial.d == d:
            same = np.abs(radial.depth - depths) < 1e-12
            r[same], wr[same] = radial.nodes, radial.weights
        pts = np.zeros((r.size, d), dtype=complex)
        pts[:, 0] = r.ravel()
        g = self.mu.interior_density_values(pts).reshape(r.shape)
        bad = ~np.isfinite(g).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            mask = windows[live[i]][2]
            rule = RadialRule(d, r[i], wr[i], depths[i], radial.resolution)
            window_sum(WindowNodes(self.grid.nodes[mask][:1],
                                   self.grid.weights[mask][:1], rule, None),
                       g[i])
        out = np.zeros(len(windows))
        out[live] = s[live] * np.sum(wr * g, axis=1)
        return out.tolist()

    def integrate_values(self, vals, inner: float | None = None) -> float:
        """The integral against mu of an integrand given by its values on
        each node set of sets, None where the set is None: one dot product
        with wint and one with wg, and the atoms' masses times their values
        in atom order.  A boundary atom's value may be inf, and then so is
        the integral.  An interior sum that is not finite is taken again by
        window_sum, which names the node at fault.  inner, when given, is
        the interior part already integrated (kernel_pass's slices), and
        the interior values are then None."""
        if self.mu.interior_density is not None and self.sets[0] is None:
            raise ValueError("an integral against a measure with an interior "
                             "density needs a table built with a radial rule")
        interior, boundary, inner_atoms, outer_atoms = vals
        total = 0.0
        if interior is not None:
            inner = float(np.real(np.dot(interior, self.wint)))
            if not math.isfinite(inner):
                window_sum(self.interior, interior * self.wint)
        if inner is not None:
            total += inner
        if inner_atoms is not None:
            for (_, mass), v in zip(self.mu.interior_atoms,
                                    np.real(inner_atoms).tolist()):
                if v < -1e-10:
                    raise ValueError("integrand must be nonnegative")
                total += mass * v
        if boundary is not None:
            boundary = np.real(boundary)
            if np.any(boundary < -1e-10):
                raise ValueError("integrand must be nonnegative")
            total += float(np.dot(self.wg, boundary))
        if outer_atoms is not None:
            for (_, mass), v in zip(self.mu.boundary_atoms,
                                    np.real(outer_atoms).tolist()):
                if math.isinf(v):
                    return math.inf
                total += mass * v
        return total

    def ray(self, c: np.ndarray, row: bool = True) -> tuple:
        """(c, t, atoms), kernel_pass's ray toward c: t = <zeta_i, c> on the
        sphere nodes (None when not row and no node set reads them), atoms
        <a, c> on each atom set (None where there is none)."""
        read = row or self.sets[0] is not None or self.sets[1] is not None
        return c, self.grid.nodes @ np.conj(c) if read else None, [
            None if pts is None else pts @ np.conj(c) for pts in self.sets[2:]]

    def kernel_pass(self, ray: tuple, rho: float, p: float, m=None):
        """(I, v) at w = rho c on a ray toward c: I the integral of
        m |k_w|^p against mu, v the row of |k_w|^p on the grid's nodes (None
        when the ray has no t); the one place a Cauchy kernel is integrated
        against a table.  m is None (m = 1) or m's values on each node set,
        None where the set is None; on the interior nodes it may be one
        number, the same at every node.

        As <r zeta, w> = (rho r) <zeta, c> and <a, w> = rho <a, c>, one
        cauchy_modulus_p call at the radii rho * radii writes the sphere
        and interior moduli into work (v is a view, valid until the next
        pass) and one takes each kind of atom.  When the table has slices
        (a radial density) and m is one number inside, the interior is
        instead m sum_j wr_j g(r_j) ||k_{rho r_j c}||_p^p, exact in angle
        (slice_sum; on the sphere of radius r_j, |k_w(r_j zeta)| =
        |k_{r_j w}(zeta)|), and only the sphere row is formed.
        """
        c, t, atoms = ray
        d, v, inner = c.size, None, None
        sliced = self.slices is not None and (m is None or np.ndim(m[0]) == 0)
        vals = [None, None] + [None if a is None else cauchy_modulus_p(
            a, d, p, rho) for a in atoms]
        if t is not None:
            rows = 1 if sliced else len(self.radii)
            v = cauchy_modulus_p(t, d, p, rho * self.radii[:rows],
                                 self.work[:, :rows])
            vals[:2] = None if sliced else v[1:].ravel(), v[0]
        if sliced:
            inner = self.slice_sum(_norms_p(np.square(
                rho * self.interior.radial.nodes), Exponents(p, d)))
            if m is not None:
                inner *= float(m[0])
        vals = [None if pts is None or u is None else u if m is None
                else u * m[k]
                for k, (pts, u) in enumerate(zip(self.sets, vals))]
        return (self.integrate_values(vals, inner),
                None if v is None else v[0])

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
    for i, j, Q, mask, s in table.cells([c.coords for c in centers], deltas):
        out[i, j] = table.ball_mass(Q, mask) / s
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
            mass, point = float(e["mass"]), _parse_point(e["point"])
        except (TypeError, KeyError, IndexError, ValueError):
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
