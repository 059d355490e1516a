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
from .kernels import Exponents, TestFunction, cauchy_kernel_at, hp_norm, kernel_norm
from .measures import BallMeasure, _NodeTable
from .quadrature import RadialRule, SphereGrid

__all__ = ["CriterionProfile", "SearchGrid", "condition_iii_profile",
           "condition_ii_profile", "window_profiles", "window_profile",
           "forward_profile", "reverse_inequality_witness", "equivalence_report",
           "EquivalenceReport", "default_witness_family"]


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


def _sigma_estimate(grid: SphereGrid, mask: np.ndarray) -> float:
    return float(grid.weights[mask].sum())


def condition_iii_profile(mu: BallMeasure, sgrid: SearchGrid,
                          grid: SphereGrid) -> CriterionProfile:
    """min over sampled balls of mu(Q)/sigma(Q), node-indicator sums on both
    sides; cells whose sigma estimate vanishes are skipped."""
    table = _NodeTable.build(mu, grid)
    params, values = [], []
    for c in sgrid.centers():
        gaps = np.abs(1.0 - grid.nodes @ np.conj(c))
        for delta in sgrid.deltas():
            mask = gaps <= delta + 1e-12
            s = _sigma_estimate(grid, mask)
            if s <= 0.0:
                continue
            Q = NonisotropicBall(SpherePoint(c), float(delta))
            values.append(table.ball_mass(Q) / s)
            params.append((tuple(c), float(delta)))
    return CriterionProfile.from_values("iii", params, values, reverse=True)


def _w_points(sgrid: SearchGrid) -> list[np.ndarray]:
    out = [np.zeros(sgrid.d, dtype=complex)]
    for c in sgrid.centers():
        for r in sgrid.radii():
            out.append(r * c)
    return out


def condition_ii_profile(mu: BallMeasure, exponents: Exponents,
                         sgrid: SearchGrid, grid: SphereGrid,
                         radial: RadialRule) -> CriterionProfile:
    """min over the w-grid of the integral of |K_w|^p against mu."""
    p = exponents.p
    table = _NodeTable.build(mu, grid, radial)
    params, values = [], []
    for w in _w_points(sgrid):
        nrm = kernel_norm(w, exponents, None if abs(p - 2) < 1e-12 else grid)

        def f(pts, w=w, nrm=nrm):
            return (np.abs(cauchy_kernel_at(w, pts)) / nrm) ** p

        values.append(table.integrate(f))
        params.append(tuple(w))
    return CriterionProfile.from_values("ii", params, values, reverse=True)


def window_profiles(mu: BallMeasure, sgrid: SearchGrid, grid: SphereGrid,
                    radial: RadialRule
                    ) -> tuple[CriterionProfile, CriterionProfile]:
    """(window_profile, forward_profile) from one pass over the cells: both
    are read off the same ratios mu(S_Q)/sigma(Q)."""
    table = _NodeTable.build(mu, grid)
    params, values = [], []
    for c in sgrid.centers():
        gaps = np.abs(1.0 - grid.nodes @ np.conj(c))
        for delta in sgrid.deltas():
            mask = gaps <= delta + 1e-12
            s = _sigma_estimate(grid, mask)
            if s <= 0.0:
                continue
            Q = NonisotropicBall(SpherePoint(c), float(delta))
            S = CarlesonWindow(Q, min(s, 1.0), closed_outer=True)
            values.append(table.window_mass(S, radial) / s)
            params.append((tuple(c), float(delta)))
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
                           grid: SphereGrid, n_combos: int = 8,
                           seed: int = 0) -> list[TestFunction]:
    """Kernels first (the reproducing kernel thesis), then random two-kernel
    combinations, then low monomials as a cross-check."""
    d = exponents.d
    fam = []
    ws = _w_points(sgrid)
    for w in ws:
        grid_arg = None if abs(exponents.p - 2) < 1e-12 else grid
        from .kernels import normalized_kernel
        fam.append(normalized_kernel(w, exponents, grid_arg))
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


def reverse_inequality_witness(mu: BallMeasure, exponents: Exponents,
                               family, grid: SphereGrid,
                               radial: RadialRule):
    """(min ratio, witness): min over the family of
    integral |f|^p dmu / ||f||_{H^p}^p."""
    if not family:
        raise ValueError("witness family must be nonempty")
    p = exponents.p
    table = _NodeTable.build(mu, grid, radial)
    best, best_f = math.inf, None
    values = []
    for f in family:
        nrm = hp_norm(f, exponents, grid)
        if nrm <= 0:
            raise ValueError("zero-norm test function in the family")

        def g(pts, f=f):
            return np.abs(f(pts)) ** p

        ratio = table.integrate(g) / nrm ** p
        values.append(ratio)
        if ratio < best:
            best, best_f = ratio, f
    return best, best_f, np.asarray(values)


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
    for level in range(refinements):
        p3 = condition_iii_profile(mu, sg, grid)
        p2 = condition_ii_profile(mu, exponents, sg, grid, radial)
        fam = default_witness_family(exponents, sg, grid, seed=witness_seed)
        v1, f1, _ = reverse_inequality_witness(mu, exponents, fam, grid, radial)
        trends["iii"].append(p3.extremal)
        trends["ii"].append(p2.extremal)
        trends["i"].append(v1)
        args["iii"] = p3.arg_extremal
        args["ii"] = p2.arg_extremal
        args["i"] = repr(f1)[:120]
        if level == refinements - 1:
            forward_ext = forward_profile(mu, sg, grid, radial).extremal
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
