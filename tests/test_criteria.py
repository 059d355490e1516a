"""Reverse-embedding criteria, search grids, and the equivalence harness."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from revcarleson import criteria, kernels
from revcarleson.criteria import (ConditionSummary, CriterionProfile,
                                  EquivalenceReport, SearchGrid, _verdict,
                                  _w_points, condition_ii_profile,
                                  condition_iii_profile,
                                  default_witness_family, equivalence_report,
                                  forward_profile, reverse_inequality_witness,
                                  window_profile, window_profiles)
from revcarleson.geometry import (BallPoint, CarlesonWindow, NonisotropicBall,
                                  SpherePoint)
from revcarleson.kernels import (Exponents, TestFunction, cauchy_kernel_at,
                                 cauchy_modulus_p, hp_norm, kernel_norm,
                                 normalized_kernel)
from revcarleson.measures import (BallMeasure, DensityExpr, integrate_measure,
                                  measure_of_ball, measure_of_window,
                                  sigma_measure)
from revcarleson.quadrature import (SphereGrid, radial_rule, sphere_grid,
                                    window_sum)

EX1 = Exponents(2.0, 1)


@pytest.fixture(scope="module")
def grid():
    return sphere_grid(1, 2048)


@pytest.fixture(scope="module")
def rad():
    return radial_rule(1, 24)


@pytest.fixture(scope="module")
def sg():
    return SearchGrid(1, 8, 5)


# ---------------------------------------------------------------------------
# search grid

@pytest.mark.parametrize("d", [1, 2, 3])
def test_search_grid_refinement_is_nested(d):
    # equivalence_report computes each w once per run on the strength of
    # this: every w-point of a level is, bit for bit, one of the next's
    g0 = SearchGrid(d, 6, 4)
    for _ in range(3):
        g1 = g0.refine()
        assert set(g0.deltas()) <= set(g1.deltas())
        assert set(g0.radii()) <= set(g1.radii())
        c0 = {tuple(c) for c in g0.centers()}
        c1 = {tuple(c) for c in g1.centers()}
        assert c0 <= c1
        assert {tuple(w) for w in _w_points(g0)} <= \
            {tuple(w) for w in _w_points(g1)}
        g0 = g1


def test_search_grid_deltas_dyadic():
    g = SearchGrid(1, 4, 3)
    assert list(g.deltas()) == [1.0, 0.5, 0.25, 0.125]


# ---------------------------------------------------------------------------
# profiles for sigma itself

def test_sigma_profiles_are_unital(grid, rad, sg):
    mu = sigma_measure(1)
    assert condition_iii_profile(mu, sg, grid).extremal == \
        pytest.approx(1.0, abs=0.05)
    assert condition_ii_profile(mu, EX1, sg, grid, rad).extremal == \
        pytest.approx(1.0, abs=0.05)
    assert window_profile(mu, sg, grid, rad).extremal == \
        pytest.approx(1.0, abs=0.05)
    assert forward_profile(mu, sg, grid, rad).extremal == \
        pytest.approx(1.0, abs=0.05)


def test_scaled_measure_scales_profiles(grid, rad, sg):
    mu, c = sigma_measure(1), 2.5
    base = condition_iii_profile(mu, sg, grid)
    scaled = condition_iii_profile(mu.scaled(c), sg, grid)
    assert np.allclose(scaled.values, c * base.values, equal_nan=True)


def test_reverse_extremals_monotone_under_refinement(grid, rad):
    # the search grid is nested, so an infimum estimate can only decrease
    mu = sigma_measure(1)
    sg = SearchGrid(1, 4, 3)
    prev = np.inf
    for _ in range(3):
        v = condition_ii_profile(mu, EX1, sg, grid, rad).extremal
        assert v <= prev + 1e-12
        prev = v
        sg = sg.refine()


# ---------------------------------------------------------------------------
# witnesses

def test_witness_family_contains_constant(grid):
    fam = default_witness_family(EX1, SearchGrid(1, 4, 3), grid)
    assert len(fam) > 4
    from revcarleson.kernels import hp_norm
    # the constant witness detects an interior atom that kernels miss
    vals = [hp_norm(f, EX1, grid) for f in fam]
    assert all(v > 0 for v in vals)


def test_reverse_witness_on_sigma_is_near_one(grid, rad):
    fam = default_witness_family(EX1, SearchGrid(1, 4, 3), grid)
    val, f, values = reverse_inequality_witness(sigma_measure(1), EX1, fam,
                                                grid, rad)
    assert val == pytest.approx(1.0, abs=0.05)
    assert f is not None
    assert len(values) == len(fam)
    assert min(values) == pytest.approx(val)


def test_reverse_witness_detects_atom_degeneracy(grid, rad):
    # a single interior atom cannot dominate kernels centred away from it
    mu = BallMeasure(1, interior_atoms=((BallPoint(np.array([0j])), 1.0),))
    fam = default_witness_family(EX1, SearchGrid(1, 4, 5), grid)
    val, _, _ = reverse_inequality_witness(mu, EX1, fam, grid, rad)
    assert val < 0.1


# ---------------------------------------------------------------------------
# harness

def test_equivalence_report_positive_case(grid, rad):
    rep = equivalence_report(sigma_measure(1), EX1, SearchGrid(1, 6, 3),
                             grid, rad, refinements=2)
    assert rep.agreement
    assert rep.diagnostic is None
    for tag in ("i", "ii", "iii"):
        assert rep.conditions[tag].verdict == "positive"
        assert rep.conditions[tag].trend[-1] > 0.5
    assert rep.forward_extremal == pytest.approx(1.0, abs=0.05)


def test_equivalence_report_degenerate_case(grid, rad):
    mu = BallMeasure(1, interior_atoms=((BallPoint(np.array([0j])), 1.0),))
    rep = equivalence_report(mu, EX1, SearchGrid(1, 6, 4), grid, rad,
                             refinements=3)
    assert rep.agreement
    for tag in ("i", "ii", "iii"):
        assert rep.conditions[tag].verdict == "degenerate"


def test_equivalence_trend_lengths(grid, rad):
    rep = equivalence_report(sigma_measure(1), EX1, SearchGrid(1, 4, 3),
                             grid, rad, refinements=2)
    assert all(len(c.trend) == 2 for c in rep.conditions.values())


# ---------------------------------------------------------------------------
# one kernel pass per w-point

def _four_part(d):
    """A measure with every part: interior atom, interior density, boundary
    density, boundary atom."""
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    ed = np.zeros(d, dtype=complex)
    ed[-1] = 1j
    return BallMeasure(
        d, interior_atoms=((BallPoint(0.3 * e1), 0.5),),
        interior_density=DensityExpr({"sum": [0.5, {"pow": [{"abs_z": None},
                                                            2.0]}]}),
        boundary_density=DensityExpr({"sum": [1.0, {"re": 0}]}),
        boundary_atoms=((SpherePoint(ed), 0.25),))


def _small_grids(d):
    return sphere_grid(d, {1: 96, 2: 6}.get(d, 300)), radial_rule(d, 5)


def _reference_ii(mu, ex, w, grid, radial):
    """Condition (ii)'s integral at w, the kernel and its norm evaluated
    afresh through the public functions."""
    p = ex.p
    nrm = kernel_norm(w, ex, None if abs(p - 2) < 1e-12 else grid)
    return integrate_measure(
        mu, lambda pts: (np.abs(cauchy_kernel_at(w, pts)) / nrm) ** p,
        grid, radial)


def _reference_ratio(mu, ex, f, grid, radial):
    """A witness's ratio, f evaluated afresh through the public functions."""
    p = ex.p
    return integrate_measure(mu, lambda pts: np.abs(f(pts)) ** p, grid,
                             radial) / hp_norm(f, ex, grid) ** p


def _reference_cells(sgrid, grid):
    """The search grid's cells as the profiles once walked them, each with
    its own node-indicator sum: (key, ball, sigma estimate) for every cell
    whose estimate is positive."""
    for c in sgrid.centers():
        gaps = np.abs(1.0 - grid.nodes @ np.conj(c))
        for delta in sgrid.deltas():
            mask = gaps <= delta + 1e-12
            s = float(grid.weights[mask].sum())
            if s <= 0.0:
                continue
            Q = NonisotropicBall(SpherePoint(c), float(delta))
            yield (tuple(c), float(delta)), Q, s


def _reference_iii(mu, sgrid, grid):
    """condition_iii_profile as a cell-by-cell loop, mu(Q) through
    measure_of_ball."""
    params, values = [], []
    for key, Q, s in _reference_cells(sgrid, grid):
        values.append(measure_of_ball(mu, Q, grid) / s)
        params.append(key)
    return CriterionProfile.from_values("iii", params, values, reverse=True)


def _reference_windows(mu, sgrid, grid, radial):
    """window_profiles as a cell-by-cell loop, mu(S_Q) through
    measure_of_window."""
    params, values = [], []
    for key, Q, s in _reference_cells(sgrid, grid):
        S = CarlesonWindow(Q, min(s, 1.0), closed_outer=True)
        values.append(measure_of_window(mu, S, grid, radial) / s)
        params.append(key)
    return (CriterionProfile.from_values("window", params, values, True),
            CriterionProfile.from_values("forward", params, values, False))


def _bits(prof):
    """A profile's repr with every value's bits (an array's repr rounds)."""
    return repr((prof.condition, prof.params, prof.values.tolist(),
                 prof.extremal, prof.arg_extremal))


def _reference_report(mu, ex, sgrid, grid, radial, refinements=3, tau=1e-3,
                      witness_seed=0):
    """equivalence_report as a level-by-level loop that evaluates every
    kernel and every cell afresh at every level; also the final level's
    candidates, each tag's (args, values), the witnesses in family order."""
    norm_grid = None if abs(ex.p - 2) < 1e-12 else grid
    trends = {"i": [], "ii": [], "iii": []}
    args = {}
    sg = sgrid
    for level in range(refinements):
        p3 = _reference_iii(mu, sg, grid)
        ws = _w_points(sg)
        p2 = CriterionProfile.from_values(
            "ii", [tuple(w) for w in ws],
            [_reference_ii(mu, ex, w, grid, radial) for w in ws], reverse=True)
        fam = [normalized_kernel(w, ex, norm_grid) for w in ws]
        rng = np.random.default_rng(witness_seed)
        for _ in range(8):
            i, j = rng.integers(0, len(ws), size=2)
            c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            fam.append(TestFunction(ex.d,
                                    kernel_terms=((c1, ws[i]), (c2, ws[j]))))
        fam.append(TestFunction(ex.d, poly_terms=((1.0, (0,) * ex.d),)))
        for k in range(ex.d):
            alpha = tuple(1 if i == k else 0 for i in range(ex.d))
            fam.append(TestFunction(ex.d, poly_terms=((1.0, alpha),)))
        best, best_f = math.inf, None
        ratios = [_reference_ratio(mu, ex, f, grid, radial) for f in fam]
        for f, ratio in zip(fam, ratios):
            if ratio < best:
                best, best_f = ratio, f
        last = {"iii": (p3.params, p3.values), "ii": (p2.params, p2.values),
                "i": (fam, ratios)}
        trends["iii"].append(p3.extremal)
        trends["ii"].append(p2.extremal)
        trends["i"].append(best)
        args["iii"] = p3.arg_extremal
        args["ii"] = p2.arg_extremal
        args["i"] = repr(best_f)[:120]
        if level == refinements - 1:
            forward_ext = _reference_windows(mu, sg, grid, radial)[1].extremal
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
    return EquivalenceReport(ex.p, ex.d, tau, conditions, float(forward_ext),
                             agreement, diagnostic), last


def _close(values, reference, rel=1e-12):
    """Each value within rel of its reference, relative to the reference."""
    values, reference = list(values), list(reference)
    assert len(values) == len(reference)
    for v, r in zip(values, reference):
        assert abs(v - r) <= rel * abs(r), (v, r)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_pass_values_match_public_functions(d, p):
    # every value the report may not show: each w's condition (ii) integral
    # and each normalized kernel's witness ratio and coefficient; the pass
    # takes |k_w|^p in real arithmetic from one inner-product pass, so it
    # agrees with the public functions to rounding, not bit for bit
    grid, radial = _small_grids(d)
    mu, ex, sg = _four_part(d), Exponents(p, d), SearchGrid(d, 2, 2)
    ws = _w_points(sg)
    reference_ii = [_reference_ii(mu, ex, w, grid, radial) for w in ws]
    _close(condition_ii_profile(mu, ex, sg, grid, radial).values,
           reference_ii)
    fam = default_witness_family(ex, sg, grid)
    _, _, ratios = reverse_inequality_witness(mu, ex, fam, grid, radial)
    assert ratios.tolist() == \
        [_reference_ratio(mu, ex, f, grid, radial) for f in fam]
    table = criteria._NodeTable.build(mu, grid, radial)
    for w, f, ratio, ii in zip(ws, fam, ratios, reference_ii):
        kernel_ii, kernel_ratio, kernel = criteria._kernel_pass(table, ex, w)
        _close([kernel_ii, kernel_ratio], [ii, ratio])
        (c, pole), = kernel.kernel_terms
        (c_ref, pole_ref), = f.kernel_terms
        assert np.array_equal(pole, pole_ref)
        _close([c], [c_ref])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_kernel_pass_names_the_node_where_the_density_overflows():
    # |z|^-400 overflows at the innermost radius, so the pass's interior sum
    # is not finite; the error names the node as window_sum does when it
    # checks every value of the integrand
    grid, radial = sphere_grid(1, 64), radial_rule(1, 8)
    mu = BallMeasure(1, interior_density=DensityExpr(
        {"pow": [{"abs_z": None}, -400]}))
    table = criteria._NodeTable.build(mu, grid, radial)
    w = _w_points(SearchGrid(1, 2, 2))[0]
    vals = cauchy_modulus_p(table.interior.points @ np.conj(w), 1, 2.0)
    with pytest.raises(ArithmeticError) as direct:
        window_sum(table.interior, vals * table.density)
    message = str(direct.value)
    assert message == (f"integrand not finite at radius {radial.nodes[0]}, "
                       f"node {grid.nodes[0]}")
    with pytest.raises(ArithmeticError) as exc:
        condition_ii_profile(mu, EX1, SearchGrid(1, 2, 2), grid, radial)
    assert str(exc.value) == message


@pytest.mark.parametrize("measure", ["sigma", "four-part"])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_equivalence_report_matches_level_by_level_loop(d, p, measure):
    # values to rounding; verdicts, trend lengths and the diagnostic
    # exactly; an extremal's argument may move only to a candidate whose
    # reference value ties the reference extremal to rounding
    grid, radial = _small_grids(d)
    mu = sigma_measure(d) if measure == "sigma" else _four_part(d)
    ex = Exponents(p, d)
    sg = SearchGrid(d, 2, 2)
    rep = equivalence_report(mu, ex, sg, grid, radial, refinements=3)
    ref, last = _reference_report(mu, ex, sg, grid, radial, refinements=3)
    assert (rep.p, rep.d, rep.tau, rep.agreement, rep.diagnostic) == \
        (ref.p, ref.d, ref.tau, ref.agreement, ref.diagnostic)
    _close([rep.forward_extremal], [ref.forward_extremal])
    # the witnesses' labels as the report prints them: a kernel's carries
    # its coefficient 1 / ||k_w||_p, whose last bits the pass may move
    fam, ratios = last["i"]
    table = criteria._NodeTable.build(mu, grid, radial)
    ws = _w_points(sg.refine().refine())
    labels = ([repr(criteria._kernel_pass(table, ex, w)[2])[:120] for w in ws]
              + [repr(f)[:120] for f in fam[len(ws):]])
    candidates = {"iii": last["iii"], "ii": last["ii"], "i": (labels, ratios)}
    for tag, c in rep.conditions.items():
        r = ref.conditions[tag]
        assert (c.verdict, len(c.trend)) == (r.verdict, len(r.trend))
        _close(c.trend, r.trend)
        if c.arg_extremal != r.arg_extremal:
            args, values = candidates[tag]
            assert any(abs(v - r.trend[-1]) <= 1e-12 * abs(r.trend[-1])
                       for a, v in zip(args, values) if a == c.arg_extremal)


@pytest.mark.parametrize("measure", ["sigma", "four-part"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cell_profiles_match_cell_by_cell_loops(d, measure):
    grid, radial = _small_grids(d)
    mu = sigma_measure(d) if measure == "sigma" else _four_part(d)
    sg = SearchGrid(d, 3, 3)
    for _ in range(3):
        assert _bits(condition_iii_profile(mu, sg, grid)) == \
            _bits(_reference_iii(mu, sg, grid))
        assert [_bits(p) for p in window_profiles(mu, sg, grid, radial)] == \
            [_bits(p) for p in _reference_windows(mu, sg, grid, radial)]
        sg = sg.refine()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_equivalence_computes_each_cell_once(monkeypatch, d):
    grid, radial = _small_grids(d)
    calls = Counter()
    real = criteria._NodeTable.ball_mass

    def counting(self, Q, mask):
        if sys._getframe(1).f_code.co_name != "window_mass":
            calls[tuple(Q.center.coords), Q.delta] += 1
        return real(self, Q, mask)

    monkeypatch.setattr(criteria._NodeTable, "ball_mass", counting)
    sg = SearchGrid(d, 2, 2)
    equivalence_report(_four_part(d), Exponents(2.0, d), sg, grid, radial,
                       refinements=3)
    cells = set()
    for _ in range(3):
        cells |= {(tuple(Q.center.coords), Q.delta)
                  for _, Q, _ in _reference_cells(sg, grid)}
        sg = sg.refine()
    assert calls == Counter(dict.fromkeys(cells, 1))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_equivalence_evaluates_each_kernel_once_per_node_set(monkeypatch, p):
    # one product grid.nodes @ conj(w) per distinct w per run; the interior
    # and sphere moduli are read from it, so no single kernel is evaluated
    # through cauchy_kernel_at on a node set (only the two-kernel witness
    # combinations are)
    d = 2
    grid, radial = _small_grids(d)
    products, calls = Counter(), Counter()

    class CountingNodes(np.ndarray):
        """Sphere nodes that count each product nodes @ v, keyed by
        conj(v)."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [np.asarray(x) for x in inputs]
            if ufunc is np.matmul and inputs[0] is self:
                products[tuple(np.conj(plain[1]))] += 1
            return getattr(ufunc, method)(*plain, **kwargs)

    grid = SphereGrid(d, grid.nodes.view(CountingNodes), grid.weights,
                      grid.scheme, grid.resolution, grid.seed)
    real = kernels.cauchy_kernel_at
    combo_code = TestFunction.__call__.__code__

    def counting(w, pts):
        caller = sys._getframe(1)
        combination = (caller.f_code is combo_code
                       and len(caller.f_locals["self"].kernel_terms) > 1)
        if not combination and len(pts) > 1:      # atoms are single points
            calls[tuple(np.asarray(w)), len(pts)] += 1
        return real(w, pts)

    monkeypatch.setattr(kernels, "cauchy_kernel_at", counting)
    monkeypatch.setattr(criteria, "cauchy_kernel_at", counting, raising=False)
    sg = SearchGrid(d, 2, 2)
    equivalence_report(_four_part(d), Exponents(p, d), sg, grid, radial,
                       refinements=3)
    ws = set()
    for _ in range(3):
        ws |= {tuple(w) for w in _w_points(sg)}
        sg = sg.refine()
    assert {w: n for w, n in products.items() if w in ws} == \
        dict.fromkeys(ws, 1)
    assert calls == Counter()


def test_equivalence_builds_two_node_tables(monkeypatch):
    # the cap table serves condition (iii) and the forward profile, the
    # table with the radial rule serves the kernels
    grid, radial = _small_grids(1)
    builds = []
    real = criteria._NodeTable.build.__func__

    def counting(cls, *args, **kwargs):
        builds.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(criteria._NodeTable, "build", classmethod(counting))
    equivalence_report(_four_part(1), EX1, SearchGrid(1, 2, 2), grid, radial,
                       refinements=2)
    assert len(builds) == 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_equivalence_trends_never_increase(d):
    # the search grid is nested, so each level's minimum runs over a
    # superset of the previous level's values
    grid, radial = _small_grids(d)
    rep = equivalence_report(_four_part(d), Exponents(3.0, d),
                             SearchGrid(d, 2, 2), grid, radial, refinements=4)
    for tag in ("ii", "iii"):
        trend = rep.conditions[tag].trend
        assert all(b <= a for a, b in zip(trend, trend[1:]))
