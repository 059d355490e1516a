"""Symbols b: ball -> disk, de Branges-Rovnyak kernels, the kernel-based
necessary test for reverse Carleson measures of H(b), the pointwise necessary
condition and its 1/(1-|b|) integrability obstruction, closed-form
inner-ness, and sampling-sequence refutation.

Verdict vocabulary is deliberately asymmetric: candidate measures are only
ever refuted or left open, never confirmed (the pointwise condition is
necessary, not sufficient).
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .criteria import _levels, _rays, _verdict, _view, _w_points
from .geometry import BallPoint, sample_sphere
from .kernels import (_add_poly, _coords, _moduli, _pole, _pole_modulus,
                      cauchy_kernel_at)
from .measures import (BallMeasure, _NodeTable, _dimension, _field,
                       _load_yaml, _real)
from .quadrature import RadialRule, SphereGrid, _blocks

__all__ = ["Symbol", "eval_symbol", "dbr_kernel", "dbr_kernel_diag",
           "kernel_test", "necessary_condition_constant",
           "one_minus_b_integral", "sampling_candidate_measure",
           "refute_sampling", "load_symbol"]


def _check_finite(value, where: str) -> None:
    """Reject a nan or infinite number: Symbol's range checks are
    comparisons, and a nan fails each of them without being caught."""
    if not cmath.isfinite(complex(value)):
        raise ValueError(f"{where} must be finite, got {complex(value)}")


def _merged_terms(terms) -> tuple:
    """A polynomial's terms with like terms added and zeros dropped."""
    merged = {}
    for c, alpha in terms:
        merged[tuple(alpha)] = merged.get(tuple(alpha), 0j) + complex(c)
    return tuple((c, alpha) for alpha, c in merged.items() if c)


def _monomial_sup(c: complex, alpha: tuple) -> float:
    """sup over the sphere of |c z^alpha|, |c| prod (a_i/|a|)^(a_i/2): the
    maximum of prod |z_i|^(a_i) under sum |z_i|^2 = 1 is at
    |z_i|^2 = a_i/|a| (Lagrange)."""
    n = sum(alpha)
    return abs(c) * math.prod((a / n) ** (a / 2) for a in alpha if a)


@dataclass(frozen=True)
class Symbol:
    """A holomorphic b from the ball into the open disc, in closed form.

    kind "constant":  data = c (complex, |c| < 1)
    kind "polynomial": data = tuple of (coeff, multi-index), any d
    kind "blaschke":  data = (nonempty zeros tuple, unimodular phase), d = 1
                      only; the zero a = 0 contributes the factor z itself.
    """

    kind: str
    d: int
    data: object

    def __post_init__(self):
        if self.kind == "constant":
            _check_finite(self.data, "constant symbol field 'value'")
            if abs(complex(self.data)) >= 1:
                raise ValueError("constant symbol must satisfy |c| < 1")
        elif self.kind == "blaschke":
            if self.d != 1:
                raise ValueError("Blaschke symbols are d = 1 only")
            zeros, phase = self.data
            for i, a in enumerate(zeros):
                _check_finite(a, f"blaschke symbol field 'zeros' entry {i}")
            _check_finite(phase, "blaschke symbol field 'phase'")
            if not zeros or any(abs(a) >= 1 for a in zeros):
                raise ValueError("Blaschke symbol needs at least one zero, "
                                 "and its zeros must be interior")
            if abs(abs(complex(phase)) - 1.0) > 1e-10:
                raise ValueError("Blaschke phase must be unimodular")
        elif self.kind == "polynomial":
            for i, (coeff, alpha) in enumerate(self.data):
                _check_finite(coeff, "polynomial symbol field 'coeff' of "
                              f"term {i}")
                if len(alpha) != self.d or not all(
                        isinstance(a, numbers.Integral) and type(a) is not bool
                        and 0 <= a <= sys.float_info.max for a in alpha):
                    raise ValueError(
                        f"polynomial symbol term {i} has exponents "
                        f"{list(alpha)!r}, not {self.d} integers >= 0 "
                        "within a float's range")
            with np.errstate(over="ignore", invalid="ignore"):
                sup = self.sup_modulus_estimate()
            if not math.isfinite(sup):
                raise ValueError("polynomial symbol overflows: its sup |b| "
                                 f"estimate is {sup}")
            terms = _merged_terms(self.data)
            if len(terms) == 1:
                sup = _monomial_sup(*terms[0])
                if not any(terms[0][1]) and sup >= 1:
                    raise ValueError("polynomial symbol is the constant "
                                     f"{terms[0][0]}; it must satisfy "
                                     "|c| < 1")
            if sup > 1 + 1e-10:
                raise ValueError(f"polynomial symbol has sup |b| ~ {sup} > 1")
        else:
            raise ValueError(f"unknown symbol kind {self.kind!r}")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=complex))
        if self.kind == "constant":
            return np.full(len(pts), complex(self.data))
        if self.kind == "polynomial":
            return _add_poly(np.zeros(len(pts), dtype=complex), self.data, pts)
        zeros, phase = self.data
        z = pts[:, 0]
        out = np.full(len(pts), complex(phase))
        for a in zeros:
            a = complex(a)
            if a == 0:
                out = out * z
            else:
                out = out * (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
        return out

    def is_inner(self) -> bool:
        """|b| = 1 sigma-a.e., from the closed form: never for a constant,
        always for a Blaschke product, and for a polynomial only as one term
        c z^k, |c| = 1, k >= 1, in d = 1 (on each complex line through 0 an
        inner polynomial is c lambda^k, so it is homogeneous, and a
        non-constant homogeneous one in d >= 2 has a zero on the
        sphere)."""
        if self.kind != "polynomial":
            return self.kind == "blaschke"
        terms = _merged_terms(self.data)
        return (self.d == 1 and len(terms) == 1 and any(terms[0][1])
                and abs(abs(terms[0][0]) - 1.0) <= 1e-10)

    def boundary_modulus(self, nodes: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(len(nodes), abs(complex(self.data)))
        if self.is_inner():
            return np.ones(len(nodes))
        return np.abs(self(nodes))

    def sup_modulus_estimate(self) -> float:
        """Numerical sup of |b| over 20000 seeded boundary points, for a
        polynomial symbol (maximum principle: the sup over the closed ball
        is attained on the sphere)."""
        pts = sample_sphere(self.d, 20000, np.random.default_rng(7))
        return float(np.abs(self(pts)).max())


def eval_symbol(b: Symbol, z) -> complex:
    """b(z); boundary points use the closed-form representation directly
    (all three representations extend continuously to the closed ball)."""
    return complex(b(_coords(z)[None, :])[0])


def dbr_kernel(b: Symbol, w, z) -> complex:
    """(1 - b(z) conj(b(w))) / (1 - <z, w>)^d; reduces to the Cauchy kernel
    for b identically zero."""
    return complex(dbr_kernel_at(b, _pole(w), _coords(z)[None, :])[0])


def dbr_kernel_at(b: Symbol, w: np.ndarray, pts: np.ndarray) -> np.ndarray:
    bw = eval_symbol(b, w)
    return (1.0 - b(pts) * np.conj(bw)) * cauchy_kernel_at(w, pts)


def dbr_kernel_diag(b: Symbol, w) -> float:
    """K^b(w, w) = (1 - |b(w)|^2) / (1 - |w|^2)^d > 0 for non-unimodular b."""
    wc, a = _pole_modulus(w)
    return _kernel_diag(a, wc.size, eval_symbol(b, wc))


def _kernel_diag(a, d: int, bw: complex) -> float:
    """K^b(w, w) from a = |w|, the dimension d and bw = b(w)."""
    a2 = float(a) ** 2
    return float((1.0 - abs(bw) ** 2) / (1.0 - a2) ** d)


def kernel_test(mu: BallMeasure, b: Symbol, sgrid, grid: SphereGrid,
                radial: RadialRule):
    """Necessary-condition profile: min over the w-grid of
    integral |K^b_w|^2 dmu / K^b(w, w).

    A reverse Carleson measure for H(b) keeps this bounded below; a profile
    collapsing to zero under refinement is a numerical witness against it.
    Every symbol kind extends continuously to the closed ball, so b is read
    at boundary atoms by its closed form.
    """
    values = _kernel_values(b, _NodeTable.build(mu, grid, radial), sgrid)
    return _kernel_profile(values, sgrid)


def _kernel_values(b: Symbol, table: _NodeTable, sgrid) -> dict:
    """The kernel test on a node table: tuple(w) -> its value for each w of
    the search grid (None where K^b(w, w) <= 0).  The integral of
    |K^b_w|^2 = |1 - b conj(b(w))|^2 |k_w|^2 is the table's ray pass at
    p = 2 with that multiplier, one pass per search centre over the
    w-points of its ray where K^b(w, w) > 0, with no sigma sums, so no
    sphere row is formed unless a node set reads it.  b is taken once on
    each of the table's node sets and once on each ray's w-points (a
    symbol's value at a point has the same bits in any stack of points),
    and each w's multiplier is made only when the pass reaches it.  A
    constant b is its one value on the interior nodes, so the multiplier
    there is one number and the pass takes a radial density's slices."""
    const = b.kind == "constant"
    bz = [None if pts is None else complex(b.data) if const and k == 0
          else b(pts) for k, pts in enumerate(table.sets)]
    values = {}
    for c, ws in _rays(sgrid):
        pts = np.array([w for _, w in ws])
        bws = [complex(v) for v in b(pts)]
        diags = [_kernel_diag(a, c.size, bw)
                 for a, bw in zip(_moduli(pts), bws)]
        live = [k for k, diag in enumerate(diags) if diag > 0]
        I = iter(table.ray_pass(
            c, [ws[k][0] for k in live], 2.0,
            ([None if z is None else np.abs(1.0 - z * np.conj(bws[k])) ** 2
              for z in bz] for k in live), norms=False)[0])
        for (_, w), diag in zip(ws, diags):
            values[tuple(w)] = next(I) / diag if diag > 0 else None
    return values


def _kernel_profile(values: dict, sgrid):
    """kernel_test's profile over the w-points of sgrid, read off values
    (see _kernel_values), which may hold a finer grid's w-points too."""
    return _view("hb-kernel", [tuple(w) for w in _w_points(sgrid)], values,
                 reverse=True)


@dataclass(frozen=True)
class NecessaryConstant:
    value: float               # may be math.inf
    violating_nodes: tuple     # nodes where g vanishes but |b| < 1


def necessary_condition_constant(b: Symbol, g,
                                 grid: SphereGrid) -> NecessaryConstant:
    """Smallest C with 1 - |b|^2 <= C (1 - |b|^2)^2 g at the grid nodes.

    Nodes with |b| >= 1 are skipped: there 1 - |b|^2 <= 0, so every C >= 0
    satisfies the inequality.  If g vanishes at another node the constant
    is infinite and the node is reported.
    """
    mod = b.boundary_modulus(grid.nodes)
    gv = g(grid.nodes) if callable(g) else np.full(len(grid), float(g))
    active = mod < 1.0
    if not active.any():
        return NecessaryConstant(0.0, ())
    denom = (1.0 - mod[active] ** 2) * gv[active]
    if np.any(denom <= 0.0):
        idx = np.flatnonzero(active)[denom <= 0.0]
        nodes = tuple(tuple(grid.nodes[i]) for i in idx[:8])
        return NecessaryConstant(math.inf, nodes)
    return NecessaryConstant(float((1.0 / denom).max()), ())


@dataclass(frozen=True)
class IntegrabilityVerdict:
    estimates: tuple
    verdict: str               # "finite" | "divergent" | "inconclusive"


def one_minus_b_integral(b: Symbol, grid: SphereGrid,
                         refinements: int = 3) -> IntegrabilityVerdict:
    """Quadrature of 1/(1-|b|) over {|b| < 1} at successive grid refinements.

    Divergent when estimates grow by a factor >= 1.5 per refinement; finite
    when the last two agree within 5%; inconclusive otherwise.  A refined
    level is read block by block (see quadrature._blocks), so no level is
    held whole: in d = 2 one u-slab of the torus rule at a time, in d >= 3
    a fixed number of Monte Carlo nodes at a time.
    """
    ests = [_one_minus_b_sum(b, ((grid.nodes, grid.weights),))]
    for level in range(1, refinements + 1):
        ests.append(_one_minus_b_sum(b, _blocks(
            grid.d, grid.resolution << level,
            grid.seed if grid.seed is not None else 0)))
    growing = all(b_ >= 1.5 * a_ for a_, b_ in zip(ests, ests[1:]) if a_ > 0)
    if growing and ests[-1] > ests[0]:
        return IntegrabilityVerdict(tuple(ests), "divergent")
    if ests[-1] == 0.0 or abs(ests[-1] - ests[-2]) <= 0.05 * max(ests[-1], 1e-300):
        return IntegrabilityVerdict(tuple(ests), "finite")
    return IntegrabilityVerdict(tuple(ests), "inconclusive")


def _one_minus_b_sum(b: Symbol, blocks) -> float:
    """The sum of w / (1 - |b|) over the nodes with |b| < 1 of a grid given
    as (nodes, weights) blocks in node order: each block's terms are summed
    by one np.sum, and the block sums are added in block order, so a grid
    of one block has the bits of one np.sum over it."""
    total = 0.0
    for nodes, weights in blocks:
        mod = b.boundary_modulus(nodes)
        mask = mod < 1.0
        total += float(np.sum(weights[mask] / (1.0 - mod[mask])))
    return total


def sampling_candidate_measure(b: Symbol, points) -> BallMeasure:
    """The atomic measure sum_j delta_{w_j} / K^b(w_j, w_j) attached to a
    would-be sampling sequence; its boundary density is zero by construction."""
    atoms = []
    for i, w in enumerate(points):
        pt = w if isinstance(w, BallPoint) else BallPoint(w)
        if pt.d != b.d:
            raise ValueError(f"sampling point {i} has dimension {pt.d}, "
                             f"the symbol {b.d}")
        if not pt.is_interior:
            raise ValueError("sampling points must be interior")
        diag = dbr_kernel_diag(b, pt)
        if diag <= 0 or not math.isfinite(1.0 / diag):
            raise ValueError(f"kernel diagonal degenerate at {pt}")
        atoms.append((pt, 1.0 / diag))
    if not atoms:
        raise ValueError("a sampling sequence needs at least one point")
    return BallMeasure(atoms[0][0].d, interior_atoms=tuple(atoms))


@dataclass(frozen=True)
class SamplingRefutation:
    verdict: str               # "refuted" | "inconclusive"
    inner_fraction: float      # 1.0 for an inner b, else 0.0
    boundary_density_zero: bool
    kernel_test_trend: tuple   # min of the kernel test per w-grid refinement
    detail: str


def refute_sampling(b: Symbol, points, sgrid, grid: SphereGrid,
                    radial: RadialRule, refinements: int = 3,
                    tau: float = 1e-3) -> SamplingRefutation:
    """Numerical refutation of a sampling sequence for H(b), non-inner b.

    Combines closed-form inner-ness, the vanishing boundary density of the
    candidate measure, and the kernel-test minimum collapsing under w-grid
    refinement, by the rule of the equivalence harness's "degenerate"
    verdict (criteria._verdict with threshold tau) over at least two
    levels; anything less is inconclusive.  For an inner b the theorem does
    not apply.
    """
    mu = sampling_candidate_measure(b, points)
    zero = mu.boundary_density is None and not mu.boundary_atoms
    frac = float(b.is_inner())
    if frac:
        return SamplingRefutation(
            "inconclusive", frac, zero, (),
            "inner-like symbol: the non-inner hypothesis fails, theorem does not apply")
    # the w-points of a level are among the finest level's, so each w is
    # computed once
    levels = _levels(sgrid, refinements)
    values = _kernel_values(b, _NodeTable.build(mu, grid, radial),
                            levels[-1]) if levels else {}
    trend = tuple(_kernel_profile(values, sg).extremal for sg in levels)
    if len(trend) < 2:
        return SamplingRefutation(
            "inconclusive", frac, zero, trend,
            f"kernel-test minimum trend {trend} has one level; a collapse "
            "needs at least two (refinements >= 2)")
    if _verdict(trend, tau) != "degenerate":
        return SamplingRefutation(
            "inconclusive", frac, zero, trend,
            f"kernel-test minimum trend {trend} does not collapse (threshold "
            f"{tau}); the necessary lower bound is not seen to fail")
    detail = ("candidate measure has zero boundary density while b is not "
              f"inner (inner fraction {frac:.6f}); kernel-test minimum trend "
              f"{trend} collapses, violating the necessary lower bound")
    return SamplingRefutation("refuted", frac, zero, trend, detail)


# ---------------------------------------------------------------------------
# symbol files

# the layout of the data field of each symbol kind, for error messages
_SYMBOL_DATA = {
    "constant": "{value: [re, im]}",
    "polynomial": "{terms: [{coeff: [re, im], exponents: [int, ...]}, ...]}",
    "blaschke": "{zeros: [[re, im], ...], phase: [re, im]}",
}


def _complex(pair) -> complex:
    """A complex number as symbol files write it, [re, im]."""
    re, im = pair
    return complex(_real(re), _real(im))


def symbol_from_dict(doc: dict) -> Symbol:
    if not isinstance(doc, dict):
        raise ValueError("symbol file must hold a mapping of fields")
    kind = _field(doc, "kind", "symbol")
    if not isinstance(kind, str) or kind not in _SYMBOL_DATA:
        raise ValueError(f"unknown symbol kind {kind!r}")
    d = _dimension(doc.get("dimension", 1), "symbol")
    data = _field(doc, "data", "symbol")
    try:
        if kind == "constant":
            args = ("constant", d, _complex(data["value"]))
        elif kind == "polynomial":
            args = ("polynomial", d, tuple(
                (_complex(t["coeff"]), tuple(t["exponents"]))
                for t in data["terms"]))
        else:
            args = ("blaschke", d, (tuple(map(_complex, data["zeros"])),
                                    _complex(data.get("phase", [1.0, 0.0]))))
    except (TypeError, KeyError, IndexError, ValueError, AttributeError,
            OverflowError):
        raise ValueError(f"symbol field 'data' of kind {kind!r} must be "
                         f"{_SYMBOL_DATA[kind]}, got {data!r}") from None
    return Symbol(*args)


def load_symbol(path) -> Symbol:
    return symbol_from_dict(_load_yaml(path))
