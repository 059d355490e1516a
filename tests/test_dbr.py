"""de Branges-Rovnyak kernels, symbols, and the necessary-condition tests."""

import dataclasses
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcarleson import criteria, dbr, kernels, measures, quadrature
from revcarleson.criteria import SearchGrid, _w_points, condition_ii_profile
from revcarleson.dbr import (Symbol, dbr_kernel, dbr_kernel_diag,
                             is_inner_estimate, kernel_test, load_symbol,
                             necessary_condition_constant,
                             one_minus_b_integral, refute_sampling,
                             sampling_candidate_measure)
from revcarleson.kernels import Exponents, cauchy_kernel, cauchy_modulus_p
from revcarleson.geometry import BallPoint, SpherePoint, sample_sphere
from revcarleson.measures import (BallMeasure, DensityExpr, _NodeTable,
                                  integrate_measure, sigma_measure)
from revcarleson.quadrature import SphereGrid, radial_rule, refine, sphere_grid


@pytest.fixture(scope="module")
def grid():
    return sphere_grid(1, 1024)


@pytest.fixture(scope="module")
def rad():
    return radial_rule(1, 24)


def _const(c, d=1):
    return Symbol("constant", d, complex(c))


def _blaschke(zeros, phase=1.0):
    return Symbol("blaschke", 1, (tuple(complex(a) for a in zeros),
                                  complex(phase)))


def _poly(coeffs):
    return Symbol("polynomial", 1,
                  tuple((complex(c), (k,)) for k, c in enumerate(coeffs)))


# ---------------------------------------------------------------------------
# symbols

def test_constant_symbol_must_map_into_disk():
    with pytest.raises(ValueError):
        _const(1.0)
    assert abs(_const(0.9j)(np.array([[0.1 + 0j]]))[0] - 0.9j) < 1e-15


def test_polynomial_sup_check():
    with pytest.raises(ValueError):
        _poly([0.8, 0.8])          # sup |0.8 + 0.8 z| = 1.6 on the circle
    b = _poly([0.25, 0.25])
    assert b(np.array([[0.5 + 0j]]))[0] == pytest.approx(0.375)


def test_polynomial_symbol_has_the_bits_of_its_pieces():
    # a value does not depend on how many points one call receives: 2^15
    # points (past the size where NumPy may elide a temporary and swap the
    # operands of a complex product) against 1 000-point pieces, and the
    # first 500 points one at a time, as b(w) takes them
    b = Symbol("polynomial", 2, ((0.1677 - 0.4244j, (1, 0)),
                                 (0.25 + 0.125j, (1, 2))))
    pts = sample_sphere(2, 2 ** 15, np.random.default_rng(3))
    whole = b(pts)
    pieces = np.concatenate([b(pts[i:i + 1000])
                             for i in range(0, len(pts), 1000)])
    assert whole.tobytes() == pieces.tobytes()
    ones = np.array([dbr.eval_symbol(b, z) for z in pts[:500]])
    assert whole[:500].tobytes() == ones.tobytes()


@pytest.mark.parametrize("exponents", [[0, 0, 1], [1], [-1, 0], [1.5, 0]])
def test_polynomial_symbol_checks_each_multi_index(exponents):
    with pytest.raises(ValueError, match=r"term 1 has exponents"):
        Symbol("polynomial", 2, ((0.25 + 0j, (0, 0)),
                                 (0.25 + 0j, tuple(exponents))))


NAN = complex(math.nan, 0.0)


@pytest.mark.parametrize("kind,d,data,message", [
    ("constant", 1, NAN, "constant symbol field 'value' must be finite"),
    ("constant", 1, complex(0.0, math.inf),
     "constant symbol field 'value' must be finite"),
    ("polynomial", 1, ((0.25 + 0j, (0,)), (NAN, (1,))),
     "polynomial symbol field 'coeff' of term 1 must be finite"),
    # named as not finite, not as a sup above 1
    ("polynomial", 1, ((complex(math.inf, 0.0), (0,)),),
     "polynomial symbol field 'coeff' of term 0 must be finite"),
    ("blaschke", 1, ((0.5 + 0j, NAN), 1.0 + 0j),
     "blaschke symbol field 'zeros' entry 1 must be finite"),
    ("blaschke", 1, ((0.5 + 0j,), NAN),
     "blaschke symbol field 'phase' must be finite"),
])
def test_symbol_rejects_non_finite_data(kind, d, data, message):
    # each range check is a comparison, which a nan fails silently
    with pytest.raises(ValueError, match=message):
        Symbol(kind, d, data)


def test_blaschke_is_inner(grid):
    b = _blaschke([0.5, -0.3j, 0.0])
    mod = b.boundary_modulus(grid.nodes)
    assert np.allclose(mod, 1.0, atol=1e-12)
    assert is_inner_estimate(b, grid) == pytest.approx(1.0)


def test_constant_is_not_inner(grid):
    assert is_inner_estimate(_const(0.5), grid) == 0.0


def test_blaschke_vanishes_at_zeros():
    b = _blaschke([0.5])
    assert abs(b(np.array([[0.5 + 0j]]))[0]) < 1e-14


# ---------------------------------------------------------------------------
# kernels

def test_b_zero_reduces_to_cauchy(rng):
    b = _const(0.0)
    for _ in range(20):
        w = (rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform()))
        z = (rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform()))
        kb = dbr_kernel(b, np.array([w]), np.array([z]))
        kc = cauchy_kernel(np.array([w]), np.array([z]))
        assert abs(kb - kc) <= 1e-12 * abs(kc)


def test_dbr_diag_matches_kernel(rng):
    b = _blaschke([0.4])
    w = np.array([0.3 + 0.2j])
    assert dbr_kernel_diag(b, w) == pytest.approx(
        float(np.real(dbr_kernel(b, w, w))), rel=1e-12)


def test_gram_positive_semidefinite(rng):
    """Reproducing-kernel Gram matrices are PSD for any admissible symbol."""
    symbols = [_const(0.0), _const(0.5), _const(0.3 - 0.4j),
               _blaschke([0.5]), _blaschke([0.2, -0.6j]),
               _poly([0.25, 0.25]), _poly([0.0, 0.9])]
    for trial in range(50):
        b = symbols[trial % len(symbols)]
        m = int(rng.integers(2, 9))
        ws = rng.uniform(0, 0.9, m) * np.exp(2j * np.pi * rng.uniform(size=m))
        G = np.array([[dbr_kernel(b, np.array([wj]), np.array([wi]))
                       for wj in ws] for wi in ws])
        eigmin = float(np.linalg.eigvalsh(G).min())
        assert eigmin >= -1e-10


# ---------------------------------------------------------------------------
# necessary conditions

def test_necessary_constant_closed_form(grid):
    nc = necessary_condition_constant(_const(0.5), 1.0, grid)
    assert nc.value == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert nc.violating_nodes == ()


def test_necessary_constant_infinite_when_density_vanishes(grid):
    g = lambda z: (np.real(z[:, 0]) > 0).astype(float)
    nc = necessary_condition_constant(_const(0.5), g, grid)
    assert math.isinf(nc.value)
    assert len(nc.violating_nodes) > 0


def test_necessary_constant_vacuous_for_inner(grid):
    nc = necessary_condition_constant(_blaschke([0.5]), 1.0, grid)
    assert nc.value == 0.0
    assert nc.exempt_fraction == pytest.approx(1.0)


def test_one_minus_b_divergent(grid):
    verdict = one_minus_b_integral(_poly([0.5, 0.5]), grid)
    assert verdict.verdict == "divergent"
    for a, b in zip(verdict.estimates, verdict.estimates[1:]):
        assert b >= 1.5 * a


def test_one_minus_b_finite_constant(grid):
    verdict = one_minus_b_integral(_const(0.5), grid)
    assert verdict.verdict == "finite"
    assert verdict.estimates[-1] == pytest.approx(2.0, rel=1e-2)


@pytest.mark.parametrize("refinements", [1, 3])
def test_one_minus_b_refines_only_between_estimates(monkeypatch, refinements):
    # b = c (z_1^2 + ... + z_d^2) with |c| = 1 reaches |b| = 1 up to
    # rounding where the phases agree, so in d = 1, 2 each level keeps some
    # terms and drops the rest; each estimate has the bits of one np.sum
    # per block of its level, the block sums added in block order (level 0
    # and d = 1 are one block, a d = 2 block is one u-slab of n^2 nodes, a
    # d >= 3 block _MC_BLOCK nodes, and b's complex products round like
    # those on the whole level), and each refined level is opened once,
    # none after the last
    opened = []
    real = dbr._blocks
    monkeypatch.setattr(dbr, "_blocks",
                        lambda d, res, seed: opened.append(res)
                        or real(d, res, seed))
    for d, res in ((1, 1024), (2, 8), (3, 300), (3, 4100)):
        b = Symbol("polynomial", d, tuple(
            (0.6 + 0.8j, tuple(2 * (k == j) for k in range(d)))
            for j in range(d)))
        grid = sphere_grid(d, res, seed=5)
        expected, g = [], grid
        for level in range(refinements + 1):
            mod = b.boundary_modulus(g.nodes)
            size = (len(g) if level == 0 or d == 1 else
                    g.resolution ** 2 if d == 2 else quadrature._MC_BLOCK)
            total = 0.0
            for k in range(0, len(g), size):
                m, w = mod[k:k + size], g.weights[k:k + size]
                total += float(np.sum(w[m < 1.0] / (1.0 - m[m < 1.0])))
            expected.append(total)
            g = refine(g)
        opened.clear()
        verdict = one_minus_b_integral(b, grid, refinements)
        assert opened == [res << k for k in range(1, refinements + 1)]
        assert verdict.estimates == tuple(expected)


def test_one_minus_b_streams_the_torus_levels():
    # the d = 2 levels 26, 52, 104 are read one u-slab at a time: the
    # last would hold 104^3 nodes (about 95 MiB of arrays) if materialised
    b = Symbol("polynomial", 2, ((0.5 + 0j, (1, 0)), (0.25j, (0, 2))))
    grid = sphere_grid(2, 13)
    tracemalloc.start()
    try:
        one_minus_b_integral(b, grid, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20


@pytest.mark.parametrize("d,res,bound_mib", [(2, 13, 2), (3, 20000, 6)])
def test_one_minus_b_holds_one_block_at_a_time(d, res, bound_mib):
    # no refined level is held whole, nor its terms: a term buffer of the
    # d = 2 level of 104^3 nodes is 9 MiB, and the d = 3 level of 160 000
    # Monte Carlo nodes traced 17 MiB when built whole
    b = Symbol("polynomial", d, ((0.5 + 0j, (1,) + (0,) * (d - 1)),
                                 (0.25j, (0, 2) + (0,) * (d - 2))))
    grid = sphere_grid(d, res)
    tracemalloc.start()
    try:
        one_minus_b_integral(b, grid, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


def _kernel_sq(b, w, pts, t=None):
    """|K^b_w|^2 = |1 - b conj(b(w))|^2 |k_w|^2 at pts, b taken afresh, from
    the inner products t (default pts @ conj(w))."""
    t = pts @ np.conj(w) if t is None else t
    m = np.abs(1.0 - b(pts) * np.conj(dbr.eval_symbol(b, w))) ** 2
    return cauchy_modulus_p(t, w.size, 2.0) * m


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_test_at_b_zero_is_condition_ii_integral(monkeypatch, d):
    # at b = 0 the multiplier is 1, so on a measure with all four parts the
    # kernel test integrates |k_w|^2 as condition (ii) does at p = 2, bit
    # for bit; K^b(w, w) and ||k_w||_2 read 1 to expose the integrals
    e1, ed = np.eye(d, dtype=complex)[0], 1j * np.eye(d, dtype=complex)[-1]
    mu = BallMeasure(
        d, interior_atoms=((BallPoint(0.3 * e1), 0.5),),
        interior_density=DensityExpr({"sum": [0.5, {"abs_z": None}]}),
        boundary_density=DensityExpr({"sum": [1.0, {"re": 0}]}),
        boundary_atoms=((SpherePoint(ed), 0.25),))
    grid = sphere_grid(d, {1: 96, 2: 6, 3: 300}[d])
    table = _NodeTable.build(mu, grid, radial_rule(d, 5))
    sg = SearchGrid(d, 3, 3)
    monkeypatch.setattr(dbr, "_kernel_diag", lambda a, d, bw: 1.0)
    monkeypatch.setattr(criteria, "_closed_norm", lambda a, ex: 1.0)
    ii = criteria._condition_ii(table, Exponents(2.0, d), sg).values
    kt = dbr._kernel_values(_const(0.0, d), table, sg)
    assert ii.tobytes() == np.array(
        [kt[tuple(w)] for w in _w_points(sg)]).tobytes()


def test_kernel_test_reduces_to_condition_ii(grid, rad):
    # b = 0: the H(b) kernel test is exactly the p = 2 kernel criterion
    mu = sigma_measure(1)
    sg = SearchGrid(1, 6, 4)
    prof_b = kernel_test(mu, _const(0.0), sg, grid, rad)
    prof_2 = condition_ii_profile(mu, Exponents(2.0, 1), sg, grid, rad)
    assert np.allclose(prof_b.values, prof_2.values, atol=1e-10)


@pytest.mark.parametrize("c", [0.5, 0.3 + 0.6j])
def test_kernel_test_of_constant_symbol_on_sigma(grid, rad, c):
    # K^c_w = (1 - |c|^2) k_w and K^c(w, w) = (1 - |c|^2) ||k_w||_2^2, so the
    # kernel test reads 1 - |c|^2 at every w
    sg = SearchGrid(1, 6, 4)
    prof = kernel_test(sigma_measure(1), _const(c), sg, grid, rad)
    want = 1.0 - abs(c) ** 2
    assert len(prof.values) == len(_w_points(sg))
    assert np.all(np.abs(prof.values - want) <= 1e-12 * want)


@pytest.mark.parametrize("b", [
    _const(0.3 + 0.6j), _poly([0.25, 0.5]), _blaschke([0.5, -0.3j]),
    Symbol("polynomial", 2, ((0.5 + 0j, (1, 0)), (0.25j, (0, 2))))])
def test_kernel_integrand_matches_dbr_kernel(monkeypatch, b):
    # the integrand the kernel test integrates, |1 - b conj(b(w))|^2 times
    # the real modulus |k_w|^2, against |K^b_w|^2 from the complex kernel,
    # on sphere and interior nodes; the search centre is a grid node, so at
    # |w| = 1 - 2^-9 the sphere nodes come within 2^-9 of the pole.  The
    # interior density has an angular factor, so that a constant b too is
    # integrated on the interior nodes (on a radial density it takes the
    # slices, see test_constant_symbol_takes_the_slices)
    d = b.d
    sg = SearchGrid(d, 1, 9)
    base = sphere_grid(d, {1: 256, 2: 8}[d])
    nodes = np.concatenate((sg.centers(), base.nodes))
    grid = SphereGrid(d, nodes, np.full(len(nodes), 1.0 / len(nodes)),
                      base.scheme, base.resolution)
    angular = DensityExpr({"sum": [1.0, {"prod": [0.5, {"re": 0}]}]})
    table = _NodeTable.build(
        BallMeasure(d, interior_density=angular,
                    boundary_density=DensityExpr({"const": 1.0})), grid,
        radial_rule(d, 24))
    seen = []
    real = _NodeTable.integrals
    monkeypatch.setattr(_NodeTable, "integrals",
                        lambda self, vals, inners: seen.extend(
                            zip(vals[0].copy(), vals[1].copy()))
                        or real(self, vals, inners))
    dbr._kernel_values(b, table, sg)
    ws = _w_points(sg)
    assert len(seen) == len(ws)
    for w, vals in zip(ws, seen):
        for got, pts in zip(vals, (table.interior.points, grid.nodes)):
            ref = np.abs(dbr.dbr_kernel_at(b, w, pts)) ** 2
            assert np.all(np.abs(got - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_symbol_takes_the_slices(monkeypatch, d):
    # with b = c the multiplier |1 - c conj(c)|^2 is one number, so on a
    # radial density the kernel test is
    # (1 - |c|^2)^2 sum_j wr_j g(r_j) ||k_{r_j w}||_2^2 / K^b(w, w)
    # = (1 - |c|^2) (1 - |w|^2)^d sum_j wr_j g(r_j) (1 - r_j^2 |w|^2)^(-d),
    # and b is never taken on the interior nodes
    c = 0.3 + 0.4j
    grid, rad = sphere_grid(d, {1: 64, 2: 6}.get(d, 200)), radial_rule(d, 8)
    mu = BallMeasure(d, interior_density=DensityExpr(
        {"sum": [0.5, {"abs_z": None}]}))
    table = _NodeTable.build(mu, grid, rad)
    sg = SearchGrid(d, 2, 4)
    seen = []
    call = Symbol.__call__
    monkeypatch.setattr(Symbol, "__call__", lambda self, pts: seen.append(
        len(np.atleast_2d(pts))) or call(self, pts))
    got = dbr._kernel_values(_const(c, d), table, sg)
    ws = _w_points(sg)
    assert seen == [len(ray) for _, ray in criteria._rays(sg)]
    for w in ws:
        a2 = float(np.linalg.norm(w)) ** 2
        want = (1 - abs(c) ** 2) * (1 - a2) ** d * sum(
            wr * (0.5 + r) * (1 - r * r * a2) ** -d
            for r, wr in zip(rad.nodes, rad.weights))
        assert abs(got[tuple(w)] - want) <= 1e-12 * want


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_symbol_on_a_radial_density_forms_no_row(monkeypatch, d):
    # a constant b on a radial density and an interior atom: no node set
    # reads the sphere and the kernel test asks for no sigma sum, so the
    # ray pass forms no row of moduli (and takes no sphere product); each
    # value keeps the bits of the slice sum times the one multiplier, plus
    # the atom, over K^b(w, w), taken w by w
    c = 0.3 + 0.4j
    grid, rad = sphere_grid(d, {1: 64, 2: 13}.get(d, 200)), radial_rule(d, 8)
    e1 = np.eye(d, dtype=complex)[0]
    mu = BallMeasure(d, interior_atoms=((BallPoint(0.4j * e1), 0.5),),
                     interior_density=DensityExpr({"abs_z": None}))
    table = _NodeTable.build(mu, grid, rad)
    sg = SearchGrid(d, 2, 4)
    m = abs(1.0 - c * c.conjugate()) ** 2
    want = {}
    for center, ray in criteria._rays(sg):
        for rho, w in ray:
            inner = table.slice_sum(kernels._norms_p(
                np.square(rho * rad.nodes), Exponents(2.0, d))) * m
            atom = cauchy_modulus_p(table.sets[2] @ np.conj(center), d, 2.0,
                                    rho) * m
            want[tuple(w)] = table.integrate_values(
                [None, None, atom, None], inner) / dbr_kernel_diag(
                    _const(c, d), w)
    rows, products = [], []
    real_rows = measures._modulus_rows
    monkeypatch.setattr(measures, "_modulus_rows", lambda *args: rows.append(
        args) or real_rows(*args))

    class CountingNodes(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            products.append(ufunc)
            return getattr(ufunc, method)(*[np.asarray(x) for x in inputs],
                                          **kwargs)

    table = dataclasses.replace(table, grid=SphereGrid(
        d, grid.nodes.view(CountingNodes), grid.weights, grid.scheme,
        grid.resolution, grid.seed))
    got = dbr._kernel_values(_const(c, d), table, sg)
    assert rows == [] and products == []
    assert repr(got) == repr(want)


def test_kernel_values_take_b_once_per_node(monkeypatch):
    # b is taken once at every node and atom of the table, and once at each
    # w for b(w); every value keeps the bits of integrating the integrand
    # with b taken afresh for each w
    d = 2
    grid, rad = sphere_grid(d, 6), radial_rule(d, 4)
    at = [np.array([0.3, 0.2j]), np.array([-0.1, 0.5 + 0.1j])]
    mu = BallMeasure(
        d, interior_atoms=tuple((BallPoint(p), 0.5) for p in at),
        interior_density=DensityExpr({"abs_z": None}),
        boundary_density=DensityExpr({"sum": [1.0, {"re": 0}]}),
        boundary_atoms=((SpherePoint(np.array([0.6, 0.8j])), 0.25),))
    b = Symbol("polynomial", d, ((0.5 + 0j, (1, 0)), (0.25j, (0, 2))))
    table = _NodeTable.build(mu, grid, rad)
    sg = SearchGrid(d, 3, 3)
    ws = _w_points(sg)
    want = {}
    for c, ray in criteria._rays(sg):
        # the node r zeta has the inner product (rho r) <zeta, c> with
        # w = rho c, an atom a its rho <a, c>
        t = grid.nodes @ np.conj(c)
        for rho, w in ray:
            inner = ((rho * rad.nodes)[:, None] * t).ravel()
            want[tuple(w)] = table.integrate_values(
                [_kernel_sq(b, w, table.interior.points, inner),
                 _kernel_sq(b, w, grid.nodes, rho * t),
                 *(_kernel_sq(b, w, pts, rho * (pts @ np.conj(c)))
                   for pts in table.sets[2:])]) / dbr_kernel_diag(b, w)
    seen = []
    call = Symbol.__call__
    monkeypatch.setattr(Symbol, "__call__", lambda self, pts: seen.append(
        len(np.atleast_2d(pts))) or call(self, pts))
    got = dbr._kernel_values(b, table, sg)
    assert sum(seen) == (len(rad.nodes) + 1) * len(grid) + 3 + len(ws)
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# sampling

def test_sampling_candidate_measure_normalization():
    b = _const(0.5)
    pts = [np.array([0.5 + 0j])]
    mu = sampling_candidate_measure(b, pts)
    assert mu.boundary_density is None
    (pt, mass), = mu.interior_atoms
    assert mass == pytest.approx(1.0 / dbr_kernel_diag(b, pts[0]))


def test_refute_sampling_non_inner(grid, rad):
    b = _const(0.5)
    pts = [np.array([(1 - 2.0 ** -j) + 0j]) for j in range(1, 8)]
    rep = refute_sampling(b, pts, SearchGrid(1, 6, 4), grid, rad,
                          refinements=3)
    assert rep.verdict == "refuted"
    assert rep.boundary_density_zero
    assert all(t2 < t1 for t1, t2 in zip(rep.kernel_test_trend,
                                         rep.kernel_test_trend[1:]))


def test_refute_sampling_needs_a_collapsing_trend(grid, rad):
    # one level is no trend: the constant symbol that refutes above at three
    # levels is inconclusive at one, whatever its single value
    b = _const(0.5)
    pts = [np.array([(1 - 2.0 ** -j) + 0j]) for j in range(1, 8)]
    rep = refute_sampling(b, pts, SearchGrid(1, 6, 4), grid, rad,
                          refinements=1)
    assert rep.verdict == "inconclusive"
    assert len(rep.kernel_test_trend) == 1
    assert "at least two" in rep.detail


def test_refute_sampling_slow_trend_is_inconclusive(grid, rad, monkeypatch):
    # a minimum that falls by less than the collapse rule's factor 0.6 per
    # level and stays above the threshold refutes nothing
    minima = iter([0.5, 0.45, 0.42])
    monkeypatch.setattr(dbr, "_kernel_profile",
                        lambda *args: SimpleNamespace(extremal=next(minima)))
    rep = refute_sampling(_const(0.5), [np.array([0.5 + 0j])],
                          SearchGrid(1, 6, 4), grid, rad, refinements=3)
    assert rep.verdict == "inconclusive"
    assert rep.kernel_test_trend == (0.5, 0.45, 0.42)
    assert "does not collapse" in rep.detail


def _reference_trend(b, points, sgrid, grid, radial, refinements):
    """refute_sampling's trend as a level-by-level loop that integrates
    every w afresh at every level."""
    mu = sampling_candidate_measure(b, points)
    trend, sg = [], sgrid
    for _ in range(refinements):
        values = []
        for w in _w_points(sg):
            diag = dbr_kernel_diag(b, w)
            if diag > 0:
                values.append(integrate_measure(
                    mu, lambda pts, w=w: _kernel_sq(b, w, pts),
                    grid, radial) / diag)
        trend.append(min(values))
        sg = sg.refine()
    return tuple(trend)


_SAMPLING_CASES = [
    (_const(0.5), 1), (_poly([0.25, 0.5]), 1),
    (Symbol("polynomial", 2, ((0.5 + 0j, (1, 0)), (0.25j, (0, 2)))), 2),
]


@pytest.mark.parametrize("b,d", _SAMPLING_CASES)
def test_refute_sampling_trend_matches_level_by_level_loop(b, d):
    grid, rad = sphere_grid(d, {1: 256, 2: 6}[d]), radial_rule(d, 8)
    pts = [np.full(d, (1 - 2.0 ** -j) / np.sqrt(d) + 0j) for j in (1, 3, 5)]
    sg = SearchGrid(d, 3, 3)
    rep = refute_sampling(b, pts, sg, grid, rad, refinements=3)
    assert repr(rep.kernel_test_trend) == \
        repr(_reference_trend(b, pts, sg, grid, rad, 3))


@pytest.mark.parametrize("b,d", _SAMPLING_CASES)
def test_refute_sampling_computes_each_w_once(monkeypatch, b, d):
    # the atoms of the candidate measure are one node set: every distinct
    # w = rho c of the three levels is in one ray pass, its only one, and
    # each pass meets all of them in one modulus call for all of its rhos;
    # no node set reads a sphere row and no sigma sum is asked for, so no
    # row is formed
    grid, rad = sphere_grid(d, {1: 256, 2: 6}[d]), radial_rule(d, 8)
    pts = [np.full(d, (1 - 2.0 ** -j) / np.sqrt(d) + 0j) for j in (1, 3, 5)]
    calls, passes, rows = [], Counter(), []
    real_pass, real_modulus = _NodeTable.ray_pass, measures.cauchy_modulus_p
    real_rows = measures._modulus_rows

    def counting_pass(self, c, rhos, *args, **kwargs):
        passes.update(tuple(rho * c) for rho in rhos)
        calls.append((len(pts), tuple(rhos)))
        return real_pass(self, c, rhos, *args, **kwargs)

    def counting_modulus(t, d, p, r):
        calls.append((len(t), tuple(r)))
        return real_modulus(t, d, p, r)

    monkeypatch.setattr(_NodeTable, "ray_pass", counting_pass)
    monkeypatch.setattr(measures, "cauchy_modulus_p", counting_modulus)
    monkeypatch.setattr(measures, "_modulus_rows", lambda *args: rows.append(
        args) or real_rows(*args))
    sg = SearchGrid(d, 3, 3)
    refute_sampling(b, pts, sg, grid, rad, refinements=3)
    ws = set()
    for _ in range(3):
        ws |= {tuple(w) for w in _w_points(sg)}
        sg = sg.refine()
    # each pass's record is followed by its one modulus call's
    assert calls[::2] == calls[1::2]
    assert passes == Counter(dict.fromkeys(ws, 1))
    assert rows == []


def test_refute_sampling_inner_is_inconclusive(grid, rad):
    rep = refute_sampling(_blaschke([0.5]), [np.array([0.5 + 0j])],
                          SearchGrid(1, 6, 4), grid, rad)
    assert rep.verdict == "inconclusive"
    assert rep.kernel_test_trend == ()


# ---------------------------------------------------------------------------
# serialization

# each kind's document with every field, as a YAML file writes it
SYMBOL_FILES = {
    "constant": "kind: constant\ndimension: 2\ndata: {value: [0.3, -0.1]}\n",
    "blaschke": "kind: blaschke\ndimension: 1\n"
                "data: {zeros: [[0.5, 0.0], [0.0, -0.2]], phase: [1.0, 0.0]}\n",
    "polynomial": "kind: polynomial\ndimension: 1\ndata: {terms: ["
                  "{coeff: [0.25, 0.0], exponents: [0]}, "
                  "{coeff: [0.0, 0.25], exponents: [2]}]}\n",
}


@pytest.mark.parametrize("b", [
    Symbol("constant", 2, 0.3 - 0.1j),
    Symbol("blaschke", 1, ((0.5, -0.2j), 1.0 + 0j)),
    Symbol("polynomial", 1, ((0.25 + 0j, (0,)), (0.25j, (2,)))),
])
def test_symbol_round_trip(b, tmp_path):
    """The YAML document of each kind reads back as the symbol it writes
    down."""
    path = tmp_path / "b.yaml"
    path.write_text(SYMBOL_FILES[b.kind])
    assert load_symbol(path) == b


@given(st.complex_numbers(max_magnitude=0.99))
@settings(max_examples=40, deadline=None)
def test_constant_kernel_diag_formula(c):
    # K^b(w,w) = (1 - |c|^2) / (1 - |w|^2) for constant c, any fixed w
    b = Symbol("constant", 1, complex(c))
    w = np.array([0.3 + 0.4j])
    expect = (1 - abs(c) ** 2) / (1 - 0.25)
    assert dbr_kernel_diag(b, w) == pytest.approx(expect, rel=1e-12)
