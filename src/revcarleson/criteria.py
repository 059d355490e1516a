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

from .geometry import CarlesonWindow, sample_sphere
from .kernels import (Exponents, TestFunction, _lp_norm, cauchy_modulus_p,
                      kernel_norm, normalized_kernel)
from .measures import BallMeasure, _NodeTable
from .quadrature import RadialRule, SphereGrid, sphere_sum

__all__ = ["CriterionProfile", "SearchGrid", "condition_iii_profile",
           "condition_ii_profile", "window_profiles", "window_profile",
           "forward_profile", "reverse_inequality_witness", "equivalence_report",
           "EquivalenceReport", "default_witness_family"]

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
    """Dyadic discretization of "all nonisotropic balls" and "all w in B_d".

    Centers are nested under refinement (a refined grid is a superset), so
    reverse extremals can only decrease when the grid is refined.
    """

    d: int
    n_centers: int
    k_max: int
    delta0: float = 1.0
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
        return self.delta0 * 0.5 ** np.arange(k + 1)

    def radii(self) -> np.ndarray:
        k = self.k_max + self.level
        return 1.0 - 0.5 ** np.arange(1, k + 1)

    def refine(self) -> "SearchGrid":
        return SearchGrid(self.d, self.n_centers, self.k_max, self.delta0,
                          self.seed, self.level + 1)


def _cap_profile(table: _NodeTable, sgrid: SearchGrid,
                 ratios: dict) -> CriterionProfile:
    """Condition (iii)'s profile; ratios maps a cell's (tuple(c), delta) to
    its ratio, and a cell already in it is not computed again."""
    centers, params = sgrid.centers(), []
    for i, _, Q, mask, s in table.cells(centers, sgrid.deltas()):
        key = (tuple(centers[i]), Q.delta)
        if key not in ratios:
            ratios[key] = table.ball_mass(Q, mask) / s
        params.append(key)
    return CriterionProfile.from_values(
        "iii", params, [ratios[key] for key in params], reverse=True)


def condition_iii_profile(mu: BallMeasure, sgrid: SearchGrid,
                          grid: SphereGrid) -> CriterionProfile:
    """min over sampled balls of mu(Q)/sigma(Q), node-indicator sums on both
    sides; cells whose sigma estimate vanishes are skipped."""
    return _cap_profile(_NodeTable.build(mu, grid), sgrid, {})


def _w_points(sgrid: SearchGrid) -> list[np.ndarray]:
    out = [np.zeros(sgrid.d, dtype=complex)]
    for c in sgrid.centers():
        for r in sgrid.radii():
            out.append(r * c)
    return out


def _kernel_pass(table: _NodeTable, exponents: Exponents,
                 w: np.ndarray) -> tuple[float, float, TestFunction]:
    """(condition (ii)'s integral, the witness ratio of K_w, K_w) for the
    Cauchy kernel k_w on a node table, from one inner-product pass.

    Both values need only |k_w|^p.  The inner products t_i = <zeta_i, w> of
    the sphere nodes are taken once; the interior node r_j zeta_i has the
    inner product r_j t_i, and an atom its own.  Every |k_w|^p comes from
    kernels.cauchy_modulus_p, in real arithmetic.  With I the integral of
    |k_w|^p against mu and G its integral against sigma, condition (ii) is
    I / ||k_w||_p^p and the witness ratio is I / G; ||k_w||_p is the closed
    form at p = 2, where it is exact, and G^(1/p) otherwise.
    """
    d, p = exponents.d, exponents.p
    # the closed form also rejects |w| >= 1 before any node is evaluated
    nrm = kernel_norm(w, exponents)
    grid, interior = table.grid, table.interior
    t = grid.nodes @ np.conj(w)
    on_grid = cauchy_modulus_p(t, d, p)
    G = float(np.real(sphere_sum(grid, on_grid)))
    if G <= 0:
        raise ValueError("zero-norm test function in the family")
    inside = None
    if interior is not None:
        # the full-ball cap holds every sphere node, so the tensor nodes are
        # r_j zeta_i over the grid's nodes in grid order, radius-major
        assert len(interior.zeta) == len(grid)
        inside = cauchy_modulus_p(t, d, p, interior.radial.nodes[:, None])
        inside = inside.ravel()
    I = table.integrate_values(
        inside, on_grid,
        lambda pts: cauchy_modulus_p(pts @ np.conj(w), d, p))
    if abs(p - 2) >= 1e-12:
        nrm = G ** (1.0 / p)
    return (I / nrm ** p, I / G,
            TestFunction(d, kernel_terms=((1.0 / nrm, w),)))


def condition_ii_profile(mu: BallMeasure, exponents: Exponents,
                         sgrid: SearchGrid, grid: SphereGrid,
                         radial: RadialRule) -> CriterionProfile:
    """min over the w-grid of the integral of |K_w|^p against mu."""
    table = _NodeTable.build(mu, grid, radial)
    ws = _w_points(sgrid)
    values = [_kernel_pass(table, exponents, w)[0] for w in ws]
    return CriterionProfile.from_values("ii", [tuple(w) for w in ws], values,
                                        reverse=True)


def window_profiles(mu: BallMeasure, sgrid: SearchGrid, grid: SphereGrid,
                    radial: RadialRule
                    ) -> tuple[CriterionProfile, CriterionProfile]:
    """(window_profile, forward_profile) from one pass over the cells: both
    are read off the same ratios mu(S_Q)/sigma(Q)."""
    return _window_profiles(_NodeTable.build(mu, grid), sgrid, radial)


def _window_profiles(table: _NodeTable, sgrid: SearchGrid,
                     radial: RadialRule
                     ) -> tuple[CriterionProfile, CriterionProfile]:
    """window_profiles on a cap table (a node table built without a radial
    rule)."""
    centers = sgrid.centers()
    params, values = [], []
    for i, _, Q, mask, s in table.cells(centers, sgrid.deltas()):
        S = CarlesonWindow(Q, min(s, 1.0), closed_outer=True)
        values.append(table.window_mass(S, mask, radial) / s)
        params.append((tuple(centers[i]), Q.delta))
    profile = CriterionProfile.from_values
    return (profile("window", params, values, reverse=True),
            profile("forward", params, values, reverse=False))


def window_profile(mu: BallMeasure, sgrid: SearchGrid, grid: SphereGrid,
                   radial: RadialRule) -> CriterionProfile:
    """min of mu(S_Q)/sigma(Q) over sampled balls, S_Q the window of depth
    sigma(Q) (grid estimate, outer-closed)."""
    return window_profiles(mu, sgrid, grid, radial)[0]


def forward_profile(mu: BallMeasure, sgrid: SearchGrid, grid: SphereGrid,
                    radial: RadialRule) -> CriterionProfile:
    """max of mu(S_Q)/sigma(Q): the classical Carleson-condition profile."""
    return window_profiles(mu, sgrid, grid, radial)[1]


def default_witness_family(exponents: Exponents, sgrid: SearchGrid,
                           grid: SphereGrid, n_combos: int = _N_COMBOS,
                           seed: int = 0) -> list[TestFunction]:
    """Kernels first (the reproducing kernel thesis), then random two-kernel
    combinations, then low monomials as a cross-check."""
    ws = _w_points(sgrid)
    grid_arg = None if abs(exponents.p - 2) < 1e-12 else grid
    return ([normalized_kernel(w, exponents, grid_arg) for w in ws]
            + _witness_tail(exponents.d, ws, n_combos, seed))


def _witness_tail(d: int, ws: list, n_combos: int,
                  seed: int) -> list[TestFunction]:
    """The witnesses after the kernels: n_combos random two-kernel
    combinations of the w-points ws, then the monomials 1, z_1, ..., z_d."""
    fam = []
    rng = np.random.default_rng(seed)
    for _ in range(n_combos):
        i, j = rng.integers(0, len(ws), size=2)
        c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        fam.append(TestFunction(d, kernel_terms=((c1, ws[i]), (c2, ws[j]))))
    fam.append(TestFunction(d, poly_terms=((1.0, (0,) * d),)))
    for k in range(d):
        alpha = tuple(1 if i == k else 0 for i in range(d))
        fam.append(TestFunction(d, poly_terms=((1.0, alpha),)))
    return fam


def _lp_ratio(table: _NodeTable, p: float, interior, on_grid,
              point_f) -> float:
    """integral |f|^p dmu / ||f||_{H^p}^p from |f|^p on the table's interior
    nodes and sphere nodes; point_f gives |f|^p at the atoms."""
    nrm = _lp_norm(on_grid, p, table.grid)
    if nrm <= 0:
        raise ValueError("zero-norm test function in the family")
    return table.integrate_values(interior, on_grid, point_f) / nrm ** p


def _function_ratio(table: _NodeTable, p: float, f) -> float:
    """The witness ratio of a test function f, f evaluated once per node
    set."""
    def g(pts):
        return np.abs(f(pts)) ** p

    interior = None if table.interior is None else g(table.interior.points)
    return _lp_ratio(table, p, interior, g(table.grid.nodes), g)


def _least(ratios, family):
    """(min ratio, its witness, all ratios); the first of equal minima."""
    best, best_f = math.inf, None
    for ratio, f in zip(ratios, family):
        if ratio < best:
            best, best_f = ratio, f
    return best, best_f, np.asarray(ratios)


def reverse_inequality_witness(mu: BallMeasure, exponents: Exponents,
                               family, grid: SphereGrid,
                               radial: RadialRule):
    """(min ratio, witness): min over the family of
    integral |f|^p dmu / ||f||_{H^p}^p."""
    if not family:
        raise ValueError("witness family must be nonempty")
    table = _NodeTable.build(mu, grid, radial)
    return _least([_function_ratio(table, exponents.p, f) for f in family],
                  family)


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
    sg = sgrid
    forward_ext = None
    # the cap table first, so that a faulty boundary density is reported
    # before a faulty interior one
    caps = _NodeTable.build(mu, grid)
    table = _NodeTable.build(mu, grid, radial)
    # the cells and w-points of a level are among the next level's (the
    # grid is nested), so each cell and each w is computed once per run
    cells = {}                 # (tuple(c), delta) -> condition (iii) ratio
    passes = {}                # tuple(w) -> (condition (ii), ratio, K_w)
    for level in range(refinements):
        p3 = _cap_profile(caps, sg, cells)
        ws = _w_points(sg)
        for w in ws:
            if tuple(w) not in passes:
                passes[tuple(w)] = _kernel_pass(table, exponents, w)
        ii, ratios, kernels = zip(*(passes[tuple(w)] for w in ws))
        p2 = CriterionProfile.from_values("ii", [tuple(w) for w in ws], ii,
                                          reverse=True)
        tail = _witness_tail(exponents.d, ws, _N_COMBOS, witness_seed)
        v1, f1, _ = _least(
            [*ratios, *(_function_ratio(table, exponents.p, f) for f in tail)],
            [*kernels, *tail])
        trends["iii"].append(p3.extremal)
        trends["ii"].append(p2.extremal)
        trends["i"].append(v1)
        args["iii"] = p3.arg_extremal
        args["ii"] = p2.arg_extremal
        args["i"] = repr(f1)[:120]
        if level == refinements - 1:
            forward_ext = _window_profiles(caps, sg, radial)[1].extremal
        sg = sg.refine()
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
