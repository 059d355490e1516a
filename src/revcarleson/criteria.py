"""Estimators for the reverse Carleson conditions on the closed ball.

Each "for all balls / for all w" condition is discretized by a dyadic search
grid; profiles report every sampled value plus the extremal one, and the
equivalence harness compares verdicts across grid refinements so that genuine
degeneration to zero is distinguishable from a small positive infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (CarlesonWindow, NonisotropicBall, SpherePoint,
                       sample_sphere)
from .kernels import (Exponents, TestFunction, _closed_norm, _lp_norm,
                      _moduli, _pole_modulus, _slice_norms2)
from .measures import BallMeasure, _NodeTable
from .quadrature import RadialRule, SphereGrid

__all__ = ["CriterionProfile", "SearchGrid", "condition_iii_profile",
           "condition_ii_profile", "criteria_profiles", "window_profile",
           "forward_profile", "reverse_inequality_witness",
           "equivalence_report", "EquivalenceReport"]

_N_COMBOS = 8                  # random two-kernel witnesses per level


@dataclass(frozen=True)
class CriterionProfile:
    condition: str             # "i" | "ii" | "iii" | "window" | "forward"
    params: tuple              # one entry per value
    values: np.ndarray
    extremal: float
    arg_extremal: object

    @classmethod
    def from_values(cls, condition: str, params, values, reverse: bool):
        values = np.asarray(values, dtype=float)
        if len(values) == 0:
            raise ValueError("profile needs at least one sampled value")
        idx = int(np.argmin(values) if reverse else np.argmax(values))
        return cls(condition, tuple(params), values,
                   float(values[idx]), tuple(params)[idx])


@dataclass(frozen=True)
class SearchGrid:
    """Dyadic discretization of "all nonisotropic balls" and "all w in B_d":
    cap radii delta = 2^-k, k = 0..K, and |w| = 1 - 2^-k, k = 1..K, with
    K = k_max + level.

    Centers are nested under refinement (a refined grid is a superset), so
    reverse extremals can only decrease when the grid is refined.
    """

    d: int
    n_centers: int
    k_max: int
    seed: int = 0
    level: int = 0

    def __post_init__(self):
        if self.n_centers < 1 or self.k_max < 1:
            raise ValueError("search grid must be nonempty")

    def centers(self) -> np.ndarray:
        n = self.n_centers * 2 ** self.level
        if self.d == 1:
            # fixed offset avoids node alignment; being level-independent it
            # keeps the refined center set a superset of the coarse one
            theta = 0.1234567 + np.arange(n) / n
            return np.exp(2j * math.pi * theta)[:, None]
        rng = np.random.default_rng(self.seed)
        return sample_sphere(self.d, n, rng)

    def deltas(self) -> np.ndarray:
        k = self.k_max + self.level
        return 0.5 ** np.arange(k + 1)

    def radii(self) -> np.ndarray:
        k = self.k_max + self.level
        return 1.0 - 0.5 ** np.arange(1, k + 1)

    def refine(self) -> "SearchGrid":
        return SearchGrid(self.d, self.n_centers, self.k_max, self.seed,
                          self.level + 1)


def _levels(sgrid: SearchGrid, refinements: int) -> list[SearchGrid]:
    """The nested search grids of successive refinement levels, coarsest
    first; a value computed on the finest serves every level."""
    levels = [sgrid]
    while len(levels) < refinements:
        levels.append(levels[-1].refine())
    return levels[:refinements]


def _view(condition: str, keys, values: dict,
          reverse: bool) -> CriterionProfile:
    """The profile of the keys that values maps to a value (not None), in
    the order of keys: a level's profile read off a finer level's values."""
    params = [key for key in keys if values.get(key) is not None]
    return CriterionProfile.from_values(
        condition, params, [values[key] for key in params], reverse)


def _cell_keys(sgrid: SearchGrid) -> list[tuple]:
    """The search grid's cells (tuple(c), delta), center-major."""
    return [(tuple(c), float(delta)) for c in sgrid.centers()
            for delta in sgrid.deltas()]


def _walk(table: _NodeTable, sgrid: SearchGrid,
          exponents: Exponents | None = None, radial: RadialRule | None = None,
          cells: bool = True) -> tuple[dict, dict, dict]:
    """(passes, iii, window) from one walk over the search centres of
    sgrid: given exponents, each centre's ray (_ray_kernels; passes maps
    each w-point of sgrid, in order), then, if cells, its nested caps in
    one cap pass (_NodeTable.caps), both from one sphere product
    <zeta_i, c> held for that centre only.  iii and window map each cell
    (tuple(c), delta) whose sigma estimate s is positive to mu(Q)/s and,
    given a radial rule, to mu(S_Q)/s, with S_Q the outer-closed window of
    depth min(s, 1) (window is empty without one); the table takes every
    window's mass in one call after the walk."""
    passes, iii, windows = {}, {}, {}
    deltas = sgrid.deltas().tolist() if cells else ()
    for c, ws in _rays(sgrid):
        t = table.grid.nodes @ np.conj(c) if cells else None
        if exponents is not None:
            passes.update(_ray_kernels(table, exponents, c, ws, t))
        sums = zip(deltas, *(v.tolist() for v in table.caps(c, deltas, t))) \
            if cells else ()
        center = SpherePoint(c)
        for delta, s, m in sums:
            if s <= 0.0:
                continue
            key = (tuple(c), delta)
            iii[key] = m / s
            if radial is not None:
                Q = NonisotropicBall(center, delta)
                windows[key] = (CarlesonWindow(Q, min(s, 1.0)), m, s)
    masses = table.window_masses(radial, [*windows.values()]) if radial else []
    return passes, iii, {key: mass / s for (key, (*_, s)), mass
                         in zip(windows.items(), masses)}


def condition_iii_profile(mu: BallMeasure, sgrid: SearchGrid,
                          grid: SphereGrid) -> CriterionProfile:
    """min over sampled balls of mu(Q)/sigma(Q), node-indicator sums on both
    sides; cells whose sigma estimate vanishes are skipped."""
    _, iii, _ = _walk(_NodeTable.build(mu, grid), sgrid)
    return _view("iii", _cell_keys(sgrid), iii, reverse=True)


def _rays(sgrid: SearchGrid):
    """Each search centre c of sgrid with its w-points w = rho c, as
    (c, [(rho, w), ...]); w = 0 leads, as rho = 0 on the first centre's
    ray.  In order they are the w-points of _w_points."""
    radii = sgrid.radii()
    for i, c in enumerate(sgrid.centers()):
        lead = [(0.0, np.zeros(sgrid.d, dtype=complex))] if i == 0 else []
        yield c, lead + list(zip(radii, radii[:, None] * c))


def _w_points(sgrid: SearchGrid) -> list[np.ndarray]:
    return [w for _, ws in _rays(sgrid) for _, w in ws]


def _kernel_passes(table: _NodeTable, exponents: Exponents,
                   sgrid: SearchGrid) -> dict:
    """tuple(w) -> (condition (ii)'s integral, the witness ratio of K_w,
    K_w) for each w-point of sgrid, in order: _walk's rays, with no
    cells."""
    return _walk(table, sgrid, exponents, cells=False)[0]


def _ray_kernels(table: _NodeTable, exponents: Exponents, c: np.ndarray,
                 ws: list, t: np.ndarray | None = None) -> dict:
    """_kernel_passes' entries for the w-points ws = [(rho, w), ...] of the
    ray toward c, from one ray pass (t, if given, is c's sphere product):
    I, the integral of |k_w|^p against mu, and G, its sigma sum.
    Condition (ii) is I / ||k_w||_p^p and the witness ratio I / G,
    ||k_w||_p the closed form at p = 2 and G^(1/p) otherwise; where
    _exact_norms holds, the witness ratio is condition (ii)'s value and G
    is not taken.  |w| is taken once per ray; a w that is not interior
    raises _pole_modulus's error after the w-points before it."""
    p, out = exponents.p, {}
    exact = _exact_norms(table, p)
    a = _moduli(np.array([w for _, w in ws]))
    n = int(np.argmax(a >= 1)) if np.any(a >= 1) else len(ws)
    I, G = table.ray_pass(c, [rho for rho, _ in ws[:n]], p,
                          norms=not exact, t=t)
    for k, (_, w) in enumerate(ws[:n]):
        nrm = _closed_norm(a[k], exponents) if abs(p - 2) < 1e-12 \
            else G[k] ** (1.0 / p)
        ii = I[k] / nrm ** p
        out[tuple(w)] = (ii, ii if exact else I[k] / G[k], TestFunction(
            exponents.d, kernel_terms=((1.0 / nrm, w),), _checked=True))
    if n < len(ws):
        _pole_modulus(ws[n][1])
    return out


def _exact_norms(table: _NodeTable, p: float) -> bool:
    """Whether condition (i)'s witnesses divide by their exact H^2 norm
    rather than by the sphere rule's sum: at p = 2 when mu has no boundary
    density and its interior density, if any, is radial (a table with
    slices), every part of the integral against mu (the slices, the
    atoms) is exact in angle, so the rule's norm would only bring its own
    error in.  A boundary density's integral is the rule's sum, and the
    rule's norm shares its error."""
    return abs(p - 2) < 1e-12 and table.sets[1] is None and (
        table.slices is not None or table.mu.interior_density is None)


def condition_ii_profile(mu: BallMeasure, exponents: Exponents,
                         sgrid: SearchGrid, grid: SphereGrid,
                         radial: RadialRule) -> CriterionProfile:
    """min over the w-grid of the integral of |K_w|^p against mu."""
    return _condition_ii(_NodeTable.build(mu, grid, radial), exponents, sgrid)


def _condition_ii(table: _NodeTable, exponents: Exponents,
                  sgrid: SearchGrid) -> CriterionProfile:
    passes = _kernel_passes(table, exponents, sgrid)
    return _view("ii", passes, {w: v[0] for w, v in passes.items()}, True)


def criteria_profiles(mu: BallMeasure, exponents: Exponents,
                      sgrid: SearchGrid, grid: SphereGrid,
                      radial: RadialRule) -> tuple[CriterionProfile, ...]:
    """(iii, ii, window, forward) profiles of one search grid, as
    condition_iii_profile, condition_ii_profile, window_profile and
    forward_profile give them, from one node table and one walk over the
    search centres (_walk), each centre's kernels before its cells, as in
    equivalence_report."""
    passes, iii, window = _walk(_NodeTable.build(mu, grid, radial), sgrid,
                                exponents, radial)
    keys = _cell_keys(sgrid)
    return (_view("iii", keys, iii, reverse=True),
            _view("ii", passes, {w: v[0] for w, v in passes.items()}, True),
            _view("window", keys, window, reverse=True),
            _view("forward", keys, window, reverse=False))


def window_profile(mu: BallMeasure, sgrid: SearchGrid, grid: SphereGrid,
                   radial: RadialRule) -> CriterionProfile:
    """min of mu(S_Q)/sigma(Q) over sampled balls, S_Q the window of depth
    sigma(Q) (grid estimate, outer-closed)."""
    *_, window = _walk(_NodeTable.build(mu, grid), sgrid, radial=radial)
    return _view("window", _cell_keys(sgrid), window, reverse=True)


def forward_profile(mu: BallMeasure, sgrid: SearchGrid, grid: SphereGrid,
                    radial: RadialRule) -> CriterionProfile:
    """max of mu(S_Q)/sigma(Q): the classical Carleson-condition profile."""
    *_, window = _walk(_NodeTable.build(mu, grid), sgrid, radial=radial)
    return _view("forward", _cell_keys(sgrid), window, reverse=False)


def _combinations(d: int, ws: list, seed: int) -> list[TestFunction]:
    """The witnesses after the kernels: _N_COMBOS random two-kernel
    combinations of the w-points ws (the monomials follow them); their
    poles are w-points that _kernel_passes has checked already."""
    fam = []
    rng = np.random.default_rng(seed)
    for _ in range(_N_COMBOS):
        i, j = rng.integers(0, len(ws), size=2)
        c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        fam.append(TestFunction(d, kernel_terms=((c1, ws[i]), (c2, ws[j])),
                                _checked=True))
    return fam


def _monomials(d: int) -> list[TestFunction]:
    """The last witnesses, the monomials 1, z_1, ..., z_d; they do not
    depend on the search grid."""
    fam = [TestFunction(d, poly_terms=((1.0, (0,) * d),))]
    for k in range(d):
        alpha = tuple(1 if i == k else 0 for i in range(d))
        fam.append(TestFunction(d, poly_terms=((1.0, alpha),)))
    return fam


def _function_ratio(table: _NodeTable, p: float, f) -> float:
    """The witness ratio integral |f|^p dmu / ||f||_{H^p}^p of a test
    function f (a two-kernel combination or a monomial), f evaluated once
    per node set of the table (and once on the sphere nodes for the norm
    when the table has no such set).  At p = 2 on a table with slices (a
    radial interior density) the interior is instead sum_j slices_j
    ||f(r_j .)||^2_{H^2} from the Gram form (kernels._slice_norms2), and f
    is evaluated on no interior node; where _exact_norms holds, the norm
    is the exact ||f||^2_{H^2}, the same form at r = 1, and f is evaluated
    on no sphere node either."""
    def g(pts):
        return np.abs(f(pts)) ** p

    sets, inner = table.sets, None
    if table.slices is not None and abs(p - 2) < 1e-12:
        sets = (None, *sets[1:])
        inner = table.slice_sum(_slice_norms2(f, table.interior.radial.nodes))
    vals = [None if pts is None else g(pts) for pts in sets]
    if _exact_norms(table, p):
        norm_p = float(_slice_norms2(f, np.ones(1))[0])
    else:
        norm_p = _lp_norm(g(table.grid.nodes) if vals[1] is None
                          else vals[1], p, table.grid) ** p
    if norm_p <= 0:
        raise ValueError("zero-norm test function in the family")
    return table.integrate_values(vals, inner) / norm_p


def reverse_inequality_witness(mu: BallMeasure, exponents: Exponents,
                               family, grid: SphereGrid,
                               radial: RadialRule):
    """(min ratio, witness, every ratio): min over the family of
    integral |f|^p dmu / ||f||_{H^p}^p; the first of equal minima."""
    if not family:
        raise ValueError("witness family must be nonempty")
    table = _NodeTable.build(mu, grid, radial)
    p1 = CriterionProfile.from_values(
        "i", family, [_function_ratio(table, exponents.p, f) for f in family],
        reverse=True)
    return p1.extremal, p1.arg_extremal, p1.values


@dataclass(frozen=True)
class ConditionSummary:
    trend: tuple               # extremal value per refinement level
    arg_extremal: object
    verdict: str               # "positive" | "degenerate"


@dataclass(frozen=True)
class EquivalenceReport:
    p: float
    d: int
    tau: float
    conditions: dict           # tag -> ConditionSummary
    forward_extremal: float
    agreement: bool
    diagnostic: str | None


def _verdict(trend, tau: float) -> str:
    finest = trend[-1]
    collapsing = all(nxt <= 0.6 * prev + 1e-15 for prev, nxt in
                     zip(trend, trend[1:]))
    if finest <= tau or (collapsing and len(trend) > 1 and finest < trend[0]):
        return "degenerate"
    return "positive"


def equivalence_report(mu: BallMeasure, exponents: Exponents,
                       sgrid: SearchGrid, grid: SphereGrid,
                       radial: RadialRule, refinements: int = 3,
                       tau: float = 1e-3, witness_seed: int = 0) -> EquivalenceReport:
    """Run conditions (i)-(iii) at successive search-grid refinements and
    compare verdicts; disagreement is flagged, never silently passed."""
    trends = {"i": [], "ii": [], "iii": []}
    args = {}
    levels = _levels(sgrid, refinements)
    finest = levels[-1]
    # one table, the boundary density checked before the interior one;
    # each w and each cell is computed once, on the finest level, centre
    # by centre with each centre's kernels before its cells (w = 0 names a
    # node where the density is not finite), and each monomial witness
    # once for every level
    table = _NodeTable.build(mu, grid, radial)
    passes, iii, window = _walk(table, finest, exponents, radial)
    monomials = _monomials(exponents.d)
    mono_ratios = [_function_ratio(table, exponents.p, f) for f in monomials]
    for sg in levels:
        p3 = _view("iii", _cell_keys(sg), iii, reverse=True)
        ws = _w_points(sg)
        ii, ratios, kernels = zip(*(passes[tuple(w)] for w in ws))
        p2 = CriterionProfile.from_values("ii", [tuple(w) for w in ws], ii,
                                          reverse=True)
        combos = _combinations(exponents.d, ws, witness_seed)
        p1 = CriterionProfile.from_values(
            "i", [*kernels, *combos, *monomials],
            [*ratios, *(_function_ratio(table, exponents.p, f)
                        for f in combos), *mono_ratios], reverse=True)
        for tag, value, arg in (("iii", p3.extremal, p3.arg_extremal),
                                ("ii", p2.extremal, p2.arg_extremal),
                                ("i", p1.extremal,
                                 repr(p1.arg_extremal)[:120])):
            trends[tag].append(value)
            args[tag] = arg
    forward_ext = _view("forward", _cell_keys(finest), window,
                        reverse=False).extremal
    conditions = {
        tag: ConditionSummary(tuple(trend), args[tag], _verdict(trend, tau))
        for tag, trend in trends.items()}
    verdicts = {c.verdict for c in conditions.values()}
    agreement = len(verdicts) == 1
    diagnostic = None if agreement else (
        "verdict disagreement across conditions: "
        + ", ".join(f"{t}={c.verdict}" for t, c in sorted(conditions.items()))
        + " (numerical-resolution diagnostic)")
    return EquivalenceReport(exponents.p, exponents.d, tau, conditions,
                             float(forward_ext), agreement, diagnostic)
