"""de Branges-Rovnyak kernels, symbols, and the necessary-condition tests."""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcarleson import dbr
from revcarleson.criteria import SearchGrid, _w_points, condition_ii_profile
from revcarleson.dbr import (Symbol, dbr_kernel, dbr_kernel_diag,
                             is_inner_estimate, kernel_test, load_symbol,
                             necessary_condition_constant,
                             one_minus_b_integral, refute_sampling,
                             sampling_candidate_measure, symbol_from_dict,
                             symbol_to_dict)
from revcarleson.kernels import Exponents, cauchy_kernel
from revcarleson.measures import integrate_measure, sigma_measure
from revcarleson.quadrature import radial_rule, refine, sphere_grid


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
def test_one_minus_b_refines_only_between_estimates(grid, monkeypatch,
                                                    refinements):
    b = _poly([0.25, 0.5])
    expected, g = [], grid
    for level in range(refinements + 1):
        mod = b.boundary_modulus(g.nodes)
        mask = mod < 1.0
        expected.append(float(np.sum(g.weights[mask] / (1.0 - mod[mask]))))
        g = refine(g)
    built = []
    monkeypatch.setattr(dbr, "refine", lambda g: built.append(g) or refine(g))
    verdict = one_minus_b_integral(b, grid, refinements)
    assert len(built) == refinements
    assert verdict.estimates == tuple(expected)


def test_kernel_test_reduces_to_condition_ii(grid, rad):
    # b = 0: the H(b) kernel test is exactly the p = 2 kernel criterion
    mu = sigma_measure(1)
    sg = SearchGrid(1, 6, 4)
    prof_b = kernel_test(mu, _const(0.0), sg, grid, rad)
    prof_2 = condition_ii_profile(mu, Exponents(2.0, 1), sg, grid, rad)
    assert np.allclose(prof_b.values, prof_2.values, atol=1e-10)


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
                    mu, lambda pts, w=w: np.abs(
                        dbr.dbr_kernel_at(b, w, pts)) ** 2,
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
    # each atom of the candidate measure is a one-point node set: every
    # distinct w of the three levels meets each atom once
    grid, rad = sphere_grid(d, {1: 256, 2: 6}[d]), radial_rule(d, 8)
    pts = [np.full(d, (1 - 2.0 ** -j) / np.sqrt(d) + 0j) for j in (1, 3, 5)]
    calls = Counter()
    real = dbr.dbr_kernel_at

    def counting(b, w, at):
        calls[tuple(w), tuple(at.ravel())] += 1
        return real(b, w, at)

    monkeypatch.setattr(dbr, "dbr_kernel_at", counting)
    sg = SearchGrid(d, 3, 3)
    refute_sampling(b, pts, sg, grid, rad, refinements=3)
    ws = set()
    for _ in range(3):
        ws |= {tuple(w) for w in _w_points(sg)}
        sg = sg.refine()
    assert calls == Counter({(w, tuple(p)): 1 for w in ws for p in pts})


def test_refute_sampling_inner_is_inconclusive(grid, rad):
    rep = refute_sampling(_blaschke([0.5]), [np.array([0.5 + 0j])],
                          SearchGrid(1, 6, 4), grid, rad)
    assert rep.verdict == "inconclusive"
    assert rep.kernel_test_trend == ()


# ---------------------------------------------------------------------------
# serialization

@pytest.mark.parametrize("b", [
    Symbol("constant", 2, 0.3 - 0.1j),
    Symbol("blaschke", 1, ((0.5, -0.2j), 1.0 + 0j)),
    Symbol("polynomial", 1, ((0.25 + 0j, (0,)), (0.25j, (2,)))),
])
def test_symbol_round_trip(b, tmp_path):
    back = symbol_from_dict(symbol_to_dict(b))
    assert symbol_to_dict(back) == symbol_to_dict(b)
    from revcarleson.dbr import dump_symbol
    path = tmp_path / "b.yaml"
    dump_symbol(b, path)
    b2 = load_symbol(path)
    z = np.zeros((1, b.d), dtype=complex)
    assert b2(z)[0] == pytest.approx(b(z)[0])


@given(st.complex_numbers(max_magnitude=0.99))
@settings(max_examples=40, deadline=None)
def test_constant_kernel_diag_formula(c):
    # K^b(w,w) = (1 - |c|^2) / (1 - |w|^2) for constant c, any fixed w
    b = Symbol("constant", 1, complex(c))
    w = np.array([0.3 + 0.4j])
    expect = (1 - abs(c) ** 2) / (1 - 0.25)
    assert dbr_kernel_diag(b, w) == pytest.approx(expect, rel=1e-12)
