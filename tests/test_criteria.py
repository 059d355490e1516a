"""Reverse-embedding criteria, search grids, and the equivalence harness."""

import dataclasses
import math
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest

from revcarleson import criteria, kernels
from revcarleson.criteria import (ConditionSummary, CriterionProfile,
                                  EquivalenceReport, SearchGrid, _verdict,
                                  _w_points, condition_ii_profile,
                                  condition_iii_profile, criteria_profiles,
                                  equivalence_report, forward_profile,
                                  reverse_inequality_witness, window_profile)
from revcarleson.geometry import (BallPoint, CarlesonWindow, NonisotropicBall,
                                  SpherePoint)
from revcarleson.kernels import (Exponents, TestFunction, cauchy_kernel_at,
                                 cauchy_modulus_p, hp_norm, kernel_norm,
                                 normalized_kernel)
from revcarleson.measures import (BallMeasure, DensityExpr, integrate_measure,
                                  measure_of_window, sigma_measure)
from revcarleson.quadrature import (SphereGrid, radial_rule, sphere_grid,
                                    sphere_sum, window_nodes, window_sum)

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
    # scaling mu by c scales every ratio by c; the scaled measures are
    # written out by hand
    c = 2.5
    base = condition_iii_profile(sigma_measure(1), sg, grid)
    scaled = condition_iii_profile(
        BallMeasure(1, boundary_density=DensityExpr(c)), sg, grid)
    assert np.allclose(scaled.values, c * base.values, equal_nan=True)
    spec, pt = {"sum": [1.0, {"re": 0}]}, SpherePoint(np.array([1j]))
    mu = BallMeasure(1, boundary_density=DensityExpr(spec),
                     boundary_atoms=((pt, 0.3),))
    mu_c = BallMeasure(1, boundary_density=DensityExpr({"prod": [c, spec]}),
                       boundary_atoms=((pt, c * 0.3),))
    for base, scaled in (
            (condition_ii_profile(mu, EX1, sg, grid, rad),
             condition_ii_profile(mu_c, EX1, sg, grid, rad)),
            (window_profile(mu, sg, grid, rad),
             window_profile(mu_c, sg, grid, rad))):
        assert scaled.params == base.params
        np.testing.assert_allclose(scaled.values, c * base.values,
                                   rtol=1e-12)


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

def _witness_family(exponents, sgrid, grid):
    """The kernels of the search grid's w-points, then the two-kernel
    combinations and the monomials, as equivalence_report's finest level
    orders its witnesses."""
    ws = _w_points(sgrid)
    return ([normalized_kernel(w, exponents, grid) for w in ws]
            + criteria._combinations(exponents.d, ws, 0)
            + criteria._monomials(exponents.d))


def test_witness_family_contains_constant(grid):
    fam = _witness_family(EX1, SearchGrid(1, 4, 3), grid)
    assert len(fam) > 4
    from revcarleson.kernels import hp_norm
    # the constant witness detects an interior atom that kernels miss
    vals = [hp_norm(f, EX1, grid) for f in fam]
    assert all(v > 0 for v in vals)


def test_reverse_witness_on_sigma_is_near_one(grid, rad):
    fam = _witness_family(EX1, SearchGrid(1, 4, 3), grid)
    val, f, values = reverse_inequality_witness(sigma_measure(1), EX1, fam,
                                                grid, rad)
    assert val == pytest.approx(1.0, abs=0.05)
    assert f is not None
    assert len(values) == len(fam)
    assert min(values) == pytest.approx(val)


def test_reverse_witness_detects_atom_degeneracy(grid, rad):
    # a single interior atom cannot dominate kernels centred away from it
    mu = BallMeasure(1, interior_atoms=((BallPoint(np.array([0j])), 1.0),))
    fam = _witness_family(EX1, SearchGrid(1, 4, 5), grid)
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

def _four_part(d, angular=False):
    """A measure with every part: interior atom, interior density, boundary
    density, boundary atom.  The interior density is 0.5 + |z|^2, radial,
    so that the kernel pass takes it on its slices; angular adds
    0.25 Re z_1, so that the pass takes it on the interior nodes."""
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    ed = np.zeros(d, dtype=complex)
    ed[-1] = 1j
    dens = [0.5, {"pow": [{"abs_z": None}, 2.0]}]
    if angular:
        dens.append({"prod": [0.25, {"re": 0}]})
    return BallMeasure(
        d, interior_atoms=((BallPoint(0.3 * e1), 0.5),),
        interior_density=DensityExpr({"sum": dens}),
        boundary_density=DensityExpr({"sum": [1.0, {"re": 0}]}),
        boundary_atoms=((SpherePoint(ed), 0.25),))


def _measure(d, name):
    """The measures of the kernel-pass tests by name: sigma, the four-part
    measure with an angular interior density ("four-part"), with a radial
    one ("radial four-part"), and the radial one without its boundary
    density ("radial three-part")."""
    if name == "sigma":
        return sigma_measure(d)
    if name == "radial three-part":
        return dataclasses.replace(_four_part(d), boundary_density=None)
    return _four_part(d, angular=name == "four-part")


def _small_grids(d):
    return sphere_grid(d, {1: 96, 2: 6}.get(d, 300)), radial_rule(d, 5)


def _sliced_integral(mu, h, sphere, grid, radial):
    """The integral of h against mu whose interior density g is radial:
    the interior on its slices, as sum_j wr_j g(r_j) sphere(r_j), with
    sphere(r) the integral of h(r .) against sigma, and the rest of mu
    through integrate_measure."""
    d, dens = mu.d, mu.interior_density
    inner = 0.0
    for r, wr in zip(radial.nodes, radial.weights):
        g = dens(np.array([[r] + [0.0] * (d - 1)]))[0]
        inner += wr * g * sphere(r)
    rest = dataclasses.replace(mu, interior_density=None)
    return inner + integrate_measure(rest, h, grid, radial)


def _reference_integral(mu, p, w, grid, radial):
    """The integral of |k_w|^p against mu, the kernel evaluated afresh
    through the public functions; a radial interior density on its
    slices, ||k_{r_j w}||_p^p with mpmath's 2F1 in the exact norm."""
    def f(pts):
        return np.abs(cauchy_kernel_at(w, pts)) ** p

    dens = mu.interior_density
    if dens is None or not dens.radial:
        return integrate_measure(mu, f, grid, radial)
    d, a = mu.d, float(np.linalg.norm(w))
    e = d - p * d / 2
    return _sliced_integral(mu, f, lambda r: (1.0 - (a * r) ** 2) ** (
        -d * (p - 1)) * float(mpmath.hyp2f1(e, e, d, (a * r) ** 2)),
        grid, radial)


def _slice_norm2(f, r):
    """||f(r .)||^2_{H^2} of a test function f in mpmath, from the Gram
    form of its terms: <k_a, k_b> = (1 - <b, a>)^(-d) for a = r w_m and
    b = r w_n, <k_a, zeta^alpha> = conj(a^alpha) for the kernel and
    monomial (r zeta)^alpha = r^|alpha| zeta^alpha, and orthogonal
    monomials of norm^2 (d-1)! alpha! / (d-1+|alpha|)!."""
    d = f.d
    with mpmath.workdps(40):
        r = mpmath.mpf(float(r))
        kern = [(mpmath.mpc(complex(c)), [r * mpmath.mpc(complex(x))
                                          for x in w])
                for c, w in f.kernel_terms]
        poly = [(mpmath.mpc(complex(b)) * r ** sum(alpha), tuple(alpha))
                for b, alpha in f.poly_terms]
        total = mpmath.mpf(0)
        for c, a in kern:
            for c2, b in kern:
                inner = mpmath.fsum(bk * mpmath.conj(ak)
                                    for ak, bk in zip(a, b))
                total += c * mpmath.conj(c2) * (1 - inner) ** -d
            for b, alpha in poly:
                aa = mpmath.fprod(ak ** e for ak, e in zip(a, alpha))
                total += 2 * mpmath.re(c * mpmath.conj(b * aa))
        for b, alpha in poly:
            size = mpmath.factorial(d - 1) * mpmath.fprod(
                mpmath.factorial(e) for e in alpha) / mpmath.factorial(
                d - 1 + sum(alpha))
            for b2, alpha2 in poly:
                if alpha2 == alpha:
                    total += b * mpmath.conj(b2) * size
        return float(mpmath.re(total))


def _reference_ii(mu, ex, w, grid, radial):
    """Condition (ii)'s integral at w, the kernel and its norm evaluated
    afresh through the public functions."""
    p = ex.p
    nrm = kernel_norm(w, ex, None if abs(p - 2) < 1e-12 else grid)
    return _reference_integral(mu, p, w, grid, radial) / nrm ** p


def _reference_kernel_ratio(mu, ex, w, grid, radial):
    """The witness ratio of the normalized kernel K_w: the integral of
    |k_w|^p against mu over its integral against sigma on the grid, or
    over the exact ||k_w||^2 (condition (ii)'s value) when
    _exact_witness_norms."""
    if _exact_witness_norms(mu, ex.p):
        return _reference_ii(mu, ex, w, grid, radial)
    return (_reference_integral(mu, ex.p, w, grid, radial)
            / _reference_integral(sigma_measure(ex.d), ex.p, w, grid, radial))


def _reference_ratio(mu, ex, f, grid, radial):
    """A witness's ratio, f evaluated afresh through the public functions;
    at p = 2 a radial interior density on its slices, each
    ||f(r_j .)||^2 from _slice_norm2's Gram form, and the norm the exact
    ||f||^2 (_slice_norm2 at r = 1) when _exact_witness_norms."""
    p = ex.p

    def h(pts):
        return np.abs(f(pts)) ** p

    if _sliced_witnesses(mu, p):
        integral = _sliced_integral(mu, h, lambda r: _slice_norm2(f, r),
                                    grid, radial)
    else:
        integral = integrate_measure(mu, h, grid, radial)
    if _exact_witness_norms(mu, p):
        return integral / _slice_norm2(f, 1.0)
    return integral / hp_norm(f, ex, grid) ** p


def _sliced_witnesses(mu, p):
    """Whether a witness takes mu's interior density on its slices: at
    p = 2 when the density is radial."""
    dens = mu.interior_density
    return p == 2 and dens is not None and dens.radial


def _exact_witness_norms(mu, p):
    """Whether the witnesses divide by their exact norm: when they take
    the slices and mu has no boundary density, whose integral is the
    sphere rule's sum."""
    return _sliced_witnesses(mu, p) and mu.boundary_density is None


def _reference_cells(sgrid, grid):
    """The search grid's cells as the profiles once walked them, each with
    its own node-indicator mask and sum: (key, ball, mask, sigma estimate)
    for every cell whose estimate is positive."""
    for c in sgrid.centers():
        gaps = np.abs(1.0 - grid.nodes @ np.conj(c))
        for delta in sgrid.deltas():
            mask = gaps <= delta + 1e-12
            s = float(grid.weights[mask].sum())
            if s <= 0.0:
                continue
            Q = NonisotropicBall(SpherePoint(c), float(delta))
            yield (tuple(c), float(delta)), Q, mask, s


def _masked_mass(mu, Q, mask, grid):
    """mu(Q) as a masked sum: sigma's weight times the boundary density on
    the grid nodes that mask marks, then each boundary atom that Q
    contains."""
    total = 0.0
    if mu.boundary_density is not None:
        wg = grid.weights * mu.boundary_density_values(grid)
        total = float(np.sum(wg[mask]))
    for pt, mass in mu.boundary_atoms:
        if Q.contains_coords(pt.coords[None, :])[0]:
            total += mass
    return total


def _reference_iii(mu, sgrid, grid):
    """condition_iii_profile as a cell-by-cell loop of masked sums."""
    params, values = [], []
    for key, Q, mask, s in _reference_cells(sgrid, grid):
        values.append(_masked_mass(mu, Q, mask, grid) / s)
        params.append(key)
    return CriterionProfile.from_values("iii", params, values, reverse=True)


def _reference_windows(mu, sgrid, grid, radial):
    """window_profile and forward_profile as a cell-by-cell loop, mu(S_Q)
    through measure_of_window."""
    params, values = [], []
    for key, Q, _, s in _reference_cells(sgrid, grid):
        S = CarlesonWindow(Q, min(s, 1.0))
        values.append(measure_of_window(mu, S, grid, radial) / s)
        params.append(key)
    return (CriterionProfile.from_values("window", params, values, True),
            CriterionProfile.from_values("forward", params, values, False))


def _bits(prof):
    """A profile's repr with every value's bits (an array's repr rounds)."""
    return repr((prof.condition, prof.params, prof.values.tolist(),
                 prof.extremal, prof.arg_extremal))


# A cap's sums add the same nonnegative terms as a masked sum, in another
# order: each is within (n - 1) eps of the exact sum, so a ratio of two is
# within about 2 n eps, 7e-14 at the 300 nodes of _small_grids in d = 3.
CAP_REL = 1e-12


def _same_cells(prof, ref, rel=CAP_REL):
    """prof holds ref's cells exactly, each value within rel of ref's, and
    its extremum is one of ref's within rel."""
    assert (prof.condition, prof.params) == (ref.condition, ref.params)
    _close(prof.values, ref.values, rel)
    _close([prof.extremal], [ref.extremal], rel)
    k = ref.params.index(prof.arg_extremal)
    _close([ref.values[k]], [ref.extremal], 2 * rel)


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
        ratios = [_reference_kernel_ratio(mu, ex, w, grid, radial)
                  for w in ws]
        ratios += [_reference_ratio(mu, ex, f, grid, radial)
                   for f in fam[len(ws):]]
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


@pytest.mark.parametrize("measure", ["four-part", "radial four-part",
                                     "radial three-part"])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_pass_values_match_public_functions(d, p, measure):
    # every value the report may not show: each w's condition (ii) integral
    # and each normalized kernel's witness ratio and coefficient; the pass
    # takes |k_w|^p in real arithmetic from one inner-product pass, so it
    # agrees with the public functions to rounding, not bit for bit.  A
    # radial interior density is checked against its slice sum
    # sum_j wr_j g(r_j) ||k_{r_j w}||_p^p (_reference_integral).  The
    # witnesses of reverse_inequality_witness match the interior nodes' sums
    # bit for bit, but at p = 2 on a radial density their slice sums
    # sum_j wr_j g(r_j) ||f(r_j .)||^2 to rounding, over the exact ||f||^2
    # when mu has no boundary density (_reference_ratio), and the kernel
    # witness ratio is then condition (ii)'s value
    grid, radial = _small_grids(d)
    mu, ex, sg = _measure(d, measure), Exponents(p, d), SearchGrid(d, 2, 2)
    ws = _w_points(sg)
    reference_ii = [_reference_ii(mu, ex, w, grid, radial) for w in ws]
    _close(condition_ii_profile(mu, ex, sg, grid, radial).values,
           reference_ii)
    fam = _witness_family(ex, sg, grid)
    _, _, ratios = reverse_inequality_witness(mu, ex, fam, grid, radial)
    reference = [_reference_ratio(mu, ex, f, grid, radial) for f in fam]
    if _sliced_witnesses(mu, p):
        _close(ratios, reference)
    else:
        assert ratios.tolist() == reference
    table = criteria._NodeTable.build(mu, grid, radial)
    passes = criteria._kernel_passes(table, ex, sg)
    assert list(passes) == [tuple(w) for w in ws]
    for w, f, ii in zip(ws, fam, reference_ii):
        kernel_ii, kernel_ratio, kernel = passes[tuple(w)]
        _close([kernel_ii, kernel_ratio],
               [ii, _reference_kernel_ratio(mu, ex, w, grid, radial)])
        (c, pole), = kernel.kernel_terms
        (c_ref, pole_ref), = f.kernel_terms
        assert np.array_equal(pole, pole_ref)
        _close([c], [c_ref])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_kernel_pass_names_the_node_where_the_density_overflows():
    # |z|^-400 overflows at the innermost radius, so the pass's interior sum
    # is not finite; the error names the node as window_sum does when it
    # checks every value of the integrand: on the interior nodes of the
    # density with an angular factor, and on the slices of the radial one,
    # which name the same radius and the grid's first node
    grid, radial = sphere_grid(1, 64), radial_rule(1, 8)
    radial_spec = {"pow": [{"abs_z": None}, -400]}
    angular_spec = {"prod": [radial_spec, {"sum": [1.5, {"re": 0}]}]}
    want = (f"integrand not finite at radius {radial.nodes[0]}, "
            f"node {grid.nodes[0]}")
    for spec in (angular_spec, radial_spec):
        mu = BallMeasure(1, interior_density=DensityExpr(spec))
        table = criteria._NodeTable.build(mu, grid, radial)
        assert (table.slices is None) == (spec is angular_spec)
        w = _w_points(SearchGrid(1, 2, 2))[0]
        vals = cauchy_modulus_p(table.interior.points @ np.conj(w), 1, 2.0)
        with pytest.raises(ArithmeticError) as direct:
            window_sum(table.interior,
                       vals * mu.interior_density(table.interior.points))
        assert str(direct.value) == want
        with pytest.raises(ArithmeticError) as exc:
            condition_ii_profile(mu, EX1, SearchGrid(1, 2, 2), grid, radial)
        assert str(exc.value) == want


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_combination_names_the_radius_where_the_density_overflows():
    # at p = 2 a two-kernel combination takes the radial |z|^-400 on its
    # slices, as the kernel pass does, and its slice sum is checked by the
    # same guard: the error names the innermost radius and the grid's
    # first node, word for word as the kernel pass's
    grid, radial = sphere_grid(1, 64), radial_rule(1, 8)
    mu = BallMeasure(1, interior_density=DensityExpr(
        {"pow": [{"abs_z": None}, -400]}))
    ws = _w_points(SearchGrid(1, 2, 2))
    combo = TestFunction(1, kernel_terms=((1.0 + 0.5j, ws[1]),
                                          (-0.3 + 1j, ws[2])))
    with pytest.raises(ArithmeticError) as kernel:
        condition_ii_profile(mu, EX1, SearchGrid(1, 2, 2), grid, radial)
    with pytest.raises(ArithmeticError) as exc:
        reverse_inequality_witness(mu, EX1, [combo], grid, radial)
    assert str(exc.value) == str(kernel.value) == (
        f"integrand not finite at radius {radial.nodes[0]}, "
        f"node {grid.nodes[0]}")


def _gram_cases(d):
    """Test functions whose Gram form _slice_norm2 is checked: a two-kernel
    combination, a kernel plus monomials of equal and of different
    exponents, and the monomials alone."""
    w1 = np.full(d, 0.6 / math.sqrt(d), dtype=complex)
    w2 = np.zeros(d, dtype=complex)
    w2[-1] = -0.4 + 0.5j
    alpha = tuple(range(1, d + 1))
    return [TestFunction(d, kernel_terms=((1.0 - 0.5j, w1), (0.7j, w2))),
            TestFunction(d, kernel_terms=((0.8, w2),),
                         poly_terms=((0.5 + 1j, alpha), (-0.2, alpha),
                                     (1.5, (0,) * d))),
            TestFunction(d, poly_terms=((1.0, (1,) + (0,) * (d - 1)),
                                        (2j, alpha)))]


@pytest.mark.parametrize("d", [1, 2])
def test_gram_form_matches_a_fine_product_rule(d):
    # the oracle's Gram form is the sphere integral of |f(r .)|^2: a
    # 4 096-node circle rule (d = 1) and a 160-per-axis torus rule (d = 2)
    # agree with it to 1e-12, at three radii up to the last radial node and
    # on the sphere itself, where it is the exact ||f||^2
    grid = sphere_grid(d, {1: 4096, 2: 160}[d])
    for f in _gram_cases(d):
        for r in (0.3, 0.8, 1.0 - 1e-14, 1.0):
            rule = float(np.real(sphere_sum(
                grid, np.abs(f(r * grid.nodes)) ** 2)))
            assert abs(_slice_norm2(f, r) - rule) <= 1e-12 * rule, (f, r)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_slice_norms_match_the_gram_oracle(d):
    # the library's closed form (kernels._slice_norms2), at every radius of
    # a radial rule and at r = 1 at once, against the oracle in mpmath
    r = np.append(radial_rule(d, 8).nodes, 1.0)
    for f in _gram_cases(d):
        _close(kernels._slice_norms2(f, r), [_slice_norm2(f, x) for x in r],
               rel=1e-13)


@pytest.mark.parametrize("measure", ["sigma", "four-part",
                                     "radial four-part", "radial three-part"])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_equivalence_report_matches_level_by_level_loop(d, p, measure):
    # values to rounding; verdicts, trend lengths and the diagnostic
    # exactly; an extremal's argument may move only to a candidate whose
    # reference value ties the reference extremal to rounding.  The kernels
    # of a radial interior density are checked against its slice sum
    grid, radial = _small_grids(d)
    mu = _measure(d, measure)
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
    passes = criteria._kernel_passes(table, ex, sg.refine().refine())
    labels = ([repr(kernel)[:120] for _, _, kernel in passes.values()]
              + [repr(f)[:120] for f in fam[len(passes):]])
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
    # the cap pass holds the cells of the masks exactly and sums them
    # within CAP_REL; on sigma both sides of mu(Q)/sigma(Q) are one sum, so
    # condition (iii) reads exactly 1 in every cell
    grid, radial = _small_grids(d)
    mu = sigma_measure(d) if measure == "sigma" else _four_part(d)
    sg = SearchGrid(d, 3, 3)
    for _ in range(3):
        iii = condition_iii_profile(mu, sg, grid)
        _same_cells(iii, _reference_iii(mu, sg, grid))
        if measure == "sigma":
            assert set(iii.values.tolist()) == {1.0}
        for prof, ref in zip((window_profile(mu, sg, grid, radial),
                              forward_profile(mu, sg, grid, radial)),
                             _reference_windows(mu, sg, grid, radial)):
            _same_cells(prof, ref)
        sg = sg.refine()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_criteria_profiles_match_the_separate_profiles(d, p):
    # one table and one walk give the bits of the three public profiles
    grid, radial = _small_grids(d)
    mu, ex, sg = _four_part(d), Exponents(p, d), SearchGrid(d, 3, 3)
    separate = (condition_iii_profile(mu, sg, grid),
                condition_ii_profile(mu, ex, sg, grid, radial),
                window_profile(mu, sg, grid, radial),
                forward_profile(mu, sg, grid, radial))
    assert [_bits(prof) for prof in criteria_profiles(mu, ex, sg, grid,
                                                      radial)] == \
        [_bits(prof) for prof in separate]


_RADIAL = {"sum": [0.5, {"pow": [{"abs_z": None}, 2.5]}]}


def _radial_and_angular(d):
    """A mixed measure with the radial interior density _RADIAL, and the
    same measure with that density times an indicator of delta 2, which is
    1 on every point but the origin, so the density reads as angular."""
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    cover = {"indicator": {"center": [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1),
                           "delta": 2.0}}
    parts = dict(interior_atoms=((BallPoint(0.7 * e1), 0.5),),
                 boundary_density=DensityExpr({"sum": [1.0, {"re": 0}]}),
                 boundary_atoms=((SpherePoint(e1), 0.25),))
    return (BallMeasure(d, interior_density=DensityExpr(_RADIAL), **parts),
            BallMeasure(d, interior_density=DensityExpr(
                {"prod": [_RADIAL, cover]}), **parts))


def _reference_tensor_windows(mu, sgrid, grid, radial):
    """The window ratios as the tensor path takes them, cell by cell: the
    density on every radius x cap node, summed by window_sum."""
    values = []
    for _, Q, mask, s in _reference_cells(sgrid, grid):
        S = CarlesonWindow(Q, min(s, 1.0))
        rule = radial if abs(radial.depth - S.depth) < 1e-12 else \
            radial_rule(mu.d, radial.resolution, S.depth)
        nodes = window_nodes(grid, mask, rule)
        total = 0.0 + float(np.real(window_sum(
            nodes, mu.interior_density(nodes.points))))
        for pt, mass in mu.interior_atoms:
            if S.contains_coords(pt.coords[None, :])[0]:
                total += mass
        values.append((total + _masked_mass(mu, Q, mask, grid)) / s)
    return values


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_and_angular_densities_give_the_same_windows(d):
    # the radial path (one radial sum per window) and the tensor path agree
    # to rounding; the angular density's windows match the tensor path's
    # cell-by-cell loop within CAP_REL
    grid, radial = _small_grids(d)
    mu, mu_ang = _radial_and_angular(d)
    assert mu.interior_density.radial and not mu_ang.interior_density.radial
    sg = SearchGrid(d, 3, 3)
    for _ in range(2):
        for profile in (window_profile, forward_profile):
            got, ang = (profile(m, sg, grid, radial) for m in (mu, mu_ang))
            assert got.params == ang.params
            np.testing.assert_allclose(got.values, ang.values, rtol=1e-14,
                                       atol=0)
            assert got.extremal == pytest.approx(ang.extremal, rel=1e-14)
        _close(window_profile(mu_ang, sg, grid, radial).values,
               _reference_tensor_windows(mu_ang, sg, grid, radial), CAP_REL)
        sg = sg.refine()
    c = SpherePoint(np.exp(0.1234j) * np.ones(d) / math.sqrt(d))
    for delta, depth in ((2.0, 1.0), (0.8, 0.3), (0.4, 0.01), (1e-9, 0.5)):
        S = CarlesonWindow(NonisotropicBall(c, delta), depth)
        # the last cap holds no grid node: atoms and cap mass only
        assert S.ball.contains_coords(grid.nodes).any() == (delta > 1e-9)
        assert measure_of_window(mu, S, grid, radial) == pytest.approx(
            measure_of_window(mu_ang, S, grid, radial), rel=1e-14, abs=0)


def test_equivalence_evaluates_each_monomial_once(monkeypatch):
    # the monomials 1, z_1, ..., z_d are the same at every level, so each
    # is evaluated once per run; the two-kernel combinations, drawn afresh
    # from each level's w-points, once per level
    d, refinements = 2, 3
    grid, radial = _small_grids(d)
    calls = Counter()
    real = criteria._function_ratio

    def counting(table, p, f):
        calls["combination" if f.kernel_terms else f.poly_terms] += 1
        return real(table, p, f)

    monkeypatch.setattr(criteria, "_function_ratio", counting)
    equivalence_report(_four_part(d), Exponents(2.0, d), SearchGrid(d, 2, 2),
                       grid, radial, refinements=refinements)
    assert calls.pop("combination") == refinements * criteria._N_COMBOS
    assert calls == Counter(dict.fromkeys(
        [((1.0, (0, 0)),), ((1.0, (1, 0)),), ((1.0, (0, 1)),)], 1))


def _counting_caps(monkeypatch):
    """Counts _NodeTable.caps calls by centre, with the deltas of each."""
    calls, deltas = Counter(), {}
    real = criteria._NodeTable.caps

    def counting(self, c, ds, t=None):
        calls[tuple(c)] += 1
        deltas[tuple(c)] = list(ds)
        return real(self, c, ds, t)

    monkeypatch.setattr(criteria._NodeTable, "caps", counting)
    return calls, deltas


@pytest.mark.parametrize("d", [1, 2, 3])
def test_equivalence_computes_each_cell_once(monkeypatch, d):
    # one cap pass per centre of the finest level, over its every delta
    grid, radial = _small_grids(d)
    calls, deltas = _counting_caps(monkeypatch)
    sg = SearchGrid(d, 2, 2)
    equivalence_report(_four_part(d), Exponents(2.0, d), sg, grid, radial,
                       refinements=3)
    finest = sg.refine().refine()
    centers = [tuple(c) for c in finest.centers()]
    assert calls == Counter(dict.fromkeys(centers, 1))
    assert all(ds == finest.deltas().tolist() for ds in deltas.values())


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_equivalence_evaluates_each_kernel_once_per_node_set(monkeypatch, p):
    # one product grid.nodes @ conj(c) per distinct search centre c per
    # run, shared by its ray and its cells (the gaps |1 - t|); the interior
    # and sphere moduli of every w on its ray are read from it, so no
    # single kernel is evaluated through cauchy_kernel_at on a node set
    # (only the two-kernel witness combinations are)
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
    centers, ws = set(), set()
    for _ in range(3):
        centers |= {tuple(c) for c in sg.centers()}
        ws |= {tuple(w) for w in _w_points(sg)}
        sg = sg.refine()
    # the other sphere products are the combinations' poles, all w-points
    assert {c: n for c, n in products.items() if c not in ws} == \
        dict.fromkeys(centers, 1)
    assert calls == Counter()


def test_equivalence_witnesses_check_no_pole_again(monkeypatch, grid, rad,
                                                   sg):
    # every witness pole is a w-point that _kernel_passes checked with
    # _pole_modulus, so building the witnesses checks none again
    calls = Counter()
    real = kernels._pole

    def counting(w):
        calls[sys._getframe(1).f_code.co_name] += 1
        return real(w)

    monkeypatch.setattr(kernels, "_pole", counting)
    TestFunction(1, kernel_terms=((1.0, np.array([0.5 + 0j])),))
    assert calls["__post_init__"] == 1          # the count sees a check
    calls.clear()
    equivalence_report(_four_part(1), EX1, sg, grid, rad, refinements=2)
    assert calls["__post_init__"] == 0


def test_equivalence_walks_each_cell_once(monkeypatch, grid, rad):
    # the levels are views of the finest grid: its cells are walked once,
    # one cap pass per centre, and that walk serves condition (iii) and the
    # forward profile: 32 centres x 9 deltas
    calls, deltas = _counting_caps(monkeypatch)
    equivalence_report(sigma_measure(1), EX1, SearchGrid(1, 8, 6), grid, rad,
                       refinements=3)
    assert set(calls.values()) == {1} and len(calls) == 32
    assert sum(map(len, deltas.values())) == 288


def test_equivalence_builds_one_node_table(monkeypatch):
    # one table with the radial rule serves the cells and the kernels
    grid, radial = _small_grids(1)
    builds = []
    real = criteria._NodeTable.build.__func__

    def counting(cls, *args, **kwargs):
        builds.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(criteria._NodeTable, "build", classmethod(counting))
    equivalence_report(_four_part(1), EX1, SearchGrid(1, 2, 2), grid, radial,
                       refinements=2)
    assert len(builds) == 1


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
