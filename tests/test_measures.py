"""Measures on the closed ball: decomposition, cap/window mass, derivatives,
serialization."""

import dataclasses
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcarleson import kernels, measures
from revcarleson.dbr import Symbol
from revcarleson.geometry import (TOL, BallPoint, CarlesonWindow,
                                  NonisotropicBall, SpherePoint, niso_gap,
                                  sigma_of_ball)
from revcarleson.kernels import cauchy_kernel_at, cauchy_modulus_p
from revcarleson.measures import (BallMeasure, DensityExpr, _NodeTable,
                                  _parse_point, integrate_measure,
                                  load_measure, measure_from_dict,
                                  measure_of_ball, measure_of_window,
                                  radon_nikodym_profile, sigma_measure)
from revcarleson.quadrature import radial_rule, sphere_grid

E1 = SpherePoint(np.array([1.0 + 0j]))


def _total_mass(mu, grid, radial):
    return integrate_measure(mu, lambda z: np.ones(len(z)), grid, radial)


def test_sigma_total_mass(circle_grid, radial24):
    assert _total_mass(sigma_measure(1), circle_grid, radial24) == \
        pytest.approx(1.0, abs=1e-12)


def test_sigma_cap_mass_matches_closed_form(circle_grid):
    mu = sigma_measure(1)
    # quantization of the cap edge costs at most one node weight
    for delta in (0.1, 0.5, 1.3):
        Q = NonisotropicBall(E1, delta)
        assert measure_of_ball(mu, Q, circle_grid) == \
            pytest.approx(sigma_of_ball(delta, 1), abs=1.0 / 2048)


def test_boundary_atom_in_cap(circle_grid):
    mu = BallMeasure(1, boundary_atoms=((E1, 2.5),))
    assert measure_of_ball(mu, NonisotropicBall(E1, 0.1), circle_grid) == 2.5
    far = SpherePoint(np.array([-1.0 + 0j]))
    assert measure_of_ball(mu, NonisotropicBall(far, 0.1), circle_grid) == 0.0


def test_interior_atom_only_counts_in_its_window(circle_grid, radial24):
    z = BallPoint(np.array([0.9 + 0j]))
    mu = BallMeasure(1, interior_atoms=((z, 1.0),))
    deep = CarlesonWindow(NonisotropicBall(E1, 0.3), 0.2)
    shallow = CarlesonWindow(NonisotropicBall(E1, 0.3), 0.05)
    assert measure_of_window(mu, deep, circle_grid, radial24) == 1.0
    assert measure_of_window(mu, shallow, circle_grid, radial24) == 0.0


def test_closed_outer_window_sees_boundary(circle_grid, radial24):
    mu = sigma_measure(1)
    Q = NonisotropicBall(E1, 0.4)
    closed = CarlesonWindow(Q, 0.1)
    assert measure_of_window(mu, closed, circle_grid, radial24) == \
        pytest.approx(measure_of_ball(mu, Q, circle_grid))


def test_volume_measure_window_mass(circle_grid, radial24):
    # dmu = dnu: a depth-h shell over the whole sphere has mass 1-(1-h)^{2d}
    mu = BallMeasure(1, interior_density=DensityExpr(1.0))
    S = CarlesonWindow(NonisotropicBall(E1, 2.0), 0.25)
    assert measure_of_window(mu, S, circle_grid, radial24) == \
        pytest.approx(1 - 0.75 ** 2, rel=1e-8)


@pytest.mark.parametrize("spec,radial", [
    (1.0, True), ({"abs_z": None}, True),
    ({"sum": [0.5, {"pow": [{"abs_z": None}, 2.5]}]}, True),
    ({"prod": [2.0, {"pow": [{"sum": [1.0, {"abs_z": None}]}, -1]}]}, True),
    ({"re": 0}, False), ({"im": 0}, False),
    ({"abs_inner": {"w": [[0.5, 0.0]]}}, False),
    ({"pow": [{"re": 0}, 2]}, False),
    ({"prod": [{"abs_z": None}, {"indicator": {"center": [[1.0, 0.0]],
                                               "delta": 2.0}}]}, False)])
def test_density_is_radial_when_every_leaf_is_a_number_or_abs_z(spec, radial):
    assert DensityExpr(spec).radial is radial


def _off_node_center(d):
    return SpherePoint(np.exp(0.1234j) * np.ones(d) / math.sqrt(d))


def _grid(d):
    return sphere_grid(d, {1: 512, 2: 8}.get(d, 1000), seed=3)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_radial_window_mass_is_exact_for_integer_powers_of_abs_z(d, k):
    # for g = |z|^k the mass over S is s * 2d/(2d+k) r^(2d+k) between
    # 1 - h and 1 - 1e-14, s the cap's grid weight: the radial rule is
    # exact for the polynomial, in one window or many at once
    grid, radial = _grid(d), radial_rule(d, 24)
    mu = BallMeasure(d, interior_density=DensityExpr(
        {"pow": [{"abs_z": None}, k]}))
    n = 2 * d + k
    windows, want = [], []
    for delta, h in ((2.0, 1.0), (0.9, 0.4), (0.5, 0.05), (0.6, 1e-3)):
        S = CarlesonWindow(NonisotropicBall(_off_node_center(d), delta), h)
        mask = S.ball.contains_coords(grid.nodes)
        s = float(grid.weights[mask].sum())
        assert s > 0
        windows.append((S, 0.0, s))
        want.append(s * 2 * d / n * ((1 - 1e-14) ** n - (1 - h) ** n))
        assert measure_of_window(mu, S, grid, radial) == pytest.approx(
            want[-1], rel=1e-13, abs=0)
    got = _NodeTable.build(mu, grid).window_masses(radial, windows)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _angular(mu):
    """mu with its interior density times the indicator of delta 2, which
    is 1 off the origin: the same measure, read as angular."""
    cover = {"indicator": {"center": [[1.0, 0.0]] + [[0.0, 0.0]] * (mu.d - 1),
                           "delta": 2.0}}
    return BallMeasure(mu.d, interior_density=DensityExpr(
        {"prod": [mu.interior_density.spec, cover]}))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_density_not_finite_names_the_radius_and_the_caps_node(d):
    # |z|^-400 overflows below r = 0.17: a window of depth 0.3 is finite,
    # so is one of depth 1 whose cap holds no grid node, and the first
    # window of depth 1 with one names its first such radius and the first
    # grid node of its cap, as window_sum names them
    grid, radial = _grid(d), radial_rule(d, 24)
    mu = BallMeasure(d, interior_density=DensityExpr(
        {"pow": [{"abs_z": None}, -400]}))
    assert not _angular(mu).interior_density.radial
    c = _off_node_center(d)
    windows, masks = [], []
    for delta, h in ((1e-9, 1.0), (0.9, 0.3), (0.5, 1.0), (2.0, 1.0)):
        S = CarlesonWindow(NonisotropicBall(c, delta), h)
        masks.append(S.ball.contains_coords(grid.nodes))
        windows.append((S, 0.0, float(grid.weights[masks[-1]].sum())))
    with np.errstate(over="ignore"):
        j = int(np.argmax(~np.isfinite(radial.nodes ** -400.0)))
    want = (f"integrand not finite at radius {radial.nodes[j]}, "
            f"node {grid.nodes[masks[2]][0]}")
    assert windows[0][2] == 0.0
    with np.errstate(over="ignore"):
        for m in (mu, _angular(mu)):
            table = _NodeTable.build(m, grid)
            empty, shallow = table.window_masses(radial, windows[:2])
            assert empty == 0.0 and math.isfinite(shallow)
            with pytest.raises(ArithmeticError) as err:
                table.window_masses(radial, windows)
            assert str(err.value) == want
            with pytest.raises(ArithmeticError) as err:
                measure_of_window(m, windows[2][0], grid, radial)
            assert str(err.value) == want


@pytest.mark.parametrize("d", [1, 2, 3])
def test_negative_radial_density_is_an_error(d):
    # |z| - 0.9 is negative below r = 0.9: not in a window of depth 0.05,
    # an error in one of depth 0.5, on the radial path as on the tensor one
    grid, radial = _grid(d), radial_rule(d, 24)
    mu = BallMeasure(d, interior_density=DensityExpr(
        {"sum": [{"abs_z": None}, -0.9]}))
    for m in (mu, _angular(mu)):
        Q = NonisotropicBall(_off_node_center(d), 0.9)
        assert measure_of_window(m, CarlesonWindow(Q, 0.05), grid,
                                 radial) > 0
        with pytest.raises(ValueError,
                           match="interior density is negative at a ball "
                                 "node"):
            measure_of_window(m, CarlesonWindow(Q, 0.5), grid, radial)


def test_atom_masses_must_be_positive():
    with pytest.raises(ValueError):
        BallMeasure(1, boundary_atoms=((E1, -1.0),))
    with pytest.raises(ValueError):
        BallMeasure(1, interior_atoms=((BallPoint(np.array([0j])), 0.0),))
    # nan and inf pass a test of mass <= 0
    for mass in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"entry 0 has mass {mass}"):
            BallMeasure(1, boundary_atoms=((E1, mass),))


def test_interior_atom_must_be_interior():
    with pytest.raises(ValueError):
        BallMeasure(1, interior_atoms=((BallPoint(np.array([1.0 + 0j])), 1.0),))


def test_scaled_measure(circle_grid, radial24):
    mu = BallMeasure(1, boundary_density=DensityExpr(3.0))
    assert _total_mass(mu, circle_grid, radial24) == pytest.approx(3.0)


def test_integrate_measure_atom_divergence(circle_grid, radial24):
    """A boundary singular atom where the integrand blows up gives +inf,
    deliberately, rather than a large float."""
    atom = SpherePoint(np.array([np.exp(0.3j)]))     # not a grid node
    mu = BallMeasure(1, interior_atoms=((BallPoint(np.array([0.5 + 0j])),
                                         1.0),),
                     boundary_density=DensityExpr(1.0),
                     boundary_atoms=((atom, 1.0),))

    def f(z):
        # finite at every grid node and interior atom, inf at the atom
        return np.where(np.all(z == atom.coords, axis=1), math.inf, 1.0)

    assert math.isinf(integrate_measure(mu, f, circle_grid, radial24))
    finite = BallMeasure(1, interior_atoms=mu.interior_atoms,
                         boundary_density=mu.boundary_density)
    assert math.isfinite(integrate_measure(finite, f, circle_grid, radial24))


def test_integrate_measure_evaluates_each_kind_of_atom_in_one_call(
        circle_grid, radial24):
    # f is called once on the stacked interior atoms and once on the
    # stacked boundary atoms; each atom's value is a different power of
    # two, so the exact sum pins both which mass multiplies which value
    # and the order of the additions: the interior terms 2^-51 and 2^-53
    # survive the 4.0 only when they are added first
    inner = ((BallPoint(np.array([0.5 + 0j])), 2.0 ** -51),
             (BallPoint(np.array([-0.25j])), 2.0 ** -52))
    outer = ((E1, 1.0), (SpherePoint(np.array([1j])), 1.0))
    mu = BallMeasure(1, interior_atoms=inner, boundary_atoms=outer)
    value_at = {0.5: 1.0, -0.25j: 0.5, 1.0: 4.0, 1j: 2.0}
    calls = []

    def f(z):
        calls.append(len(z))
        return np.array([value_at[complex(p[0])] for p in z])

    val = integrate_measure(mu, f, circle_grid, radial24)
    assert calls == [2, 2]
    terms = [2.0 ** -51 * 1.0, 2.0 ** -52 * 0.5, 1.0 * 4.0, 1.0 * 2.0]
    assert val == ((terms[0] + terms[1]) + terms[2]) + terms[3]
    # the sum each misreading gives is another number
    wrong = [
        [2.0 ** -51 * 0.5, 2.0 ** -52 * 1.0, 4.0, 2.0],   # interior reversed
        [terms[0], terms[1], 2.0, 4.0],                   # boundary reversed
        [2.0 ** -51 * 4.0, 2.0 ** -52 * 2.0, 1.0, 0.5],   # sets swapped
        terms[2:] + terms[:2],                            # boundary first
        terms[::-1],                                      # reverse order
    ]
    for order in wrong:
        assert val != sum(order)


def test_integrate_values_needs_the_interior_nodes(circle_grid):
    # a table built without a radial rule has no interior node set, so it
    # cannot integrate a measure with an interior density
    mu = BallMeasure(1, interior_density=DensityExpr(1.0))
    table = _NodeTable.build(mu, circle_grid)
    with pytest.raises(ValueError, match="radial rule"):
        table.integrate_values([None] * 4)
    with pytest.raises(ValueError, match="radial rule"):
        table.ray_pass(np.array([1.0 + 0j]), [0.5], 2.0)


def test_integrate_measure_mixed_parts(circle_grid, radial24):
    z0 = BallPoint(np.array([0.5 + 0j]))
    mu = BallMeasure(1, interior_atoms=((z0, 2.0),),
                     boundary_density=DensityExpr(1.0))
    val = integrate_measure(mu, lambda z: np.abs(z[:, 0]) ** 2, circle_grid,
                            radial24)
    assert val == pytest.approx(2.0 * 0.25 + 1.0, rel=1e-10)


# A cap's sums add the same nonnegative terms as a masked sum, in another
# order: each is within (n - 1) eps of the exact sum, so a ratio of two is
# within about 2 n eps, 2.2e-13 at the 1000 nodes of the largest grid here.
CAP_REL = 1e-12


def _masked_mass(mu, Q, grid):
    """mu(Q) as a masked sum: sigma's weight times the boundary density on
    the grid nodes in Q, then each boundary atom in Q (Q.contains_coords on
    the stacked atoms, as the table stacks them)."""
    total = 0.0
    if mu.boundary_density is not None:
        wg = grid.weights * mu.boundary_density_values(grid)
        total = float(np.sum(wg[Q.contains_coords(grid.nodes)]))
    if mu.boundary_atoms:
        held = Q.contains_coords(np.array([pt.coords for pt, _ in
                                           mu.boundary_atoms]))
        for (_, mass), h in zip(mu.boundary_atoms, held):
            if h:
                total += mass
    return total


def _on_edge(g):
    """The delta nearest g - TOL with delta + TOL == g where one exists."""
    delta = float(g) - TOL
    while delta + TOL > g:
        delta = np.nextafter(delta, 0.0)
    while delta + TOL < g:
        delta = np.nextafter(delta, 3.0)
    return float(delta)


@pytest.mark.parametrize("d,res", [(1, 512), (2, 9), (3, 1000)])
def test_caps_hold_what_contains_coords_holds(d, res):
    # for random strictly decreasing deltas, among them the gaps g of some
    # grid nodes and boundary atoms, and the delta with delta + TOL == g
    # (_on_edge: the point is then exactly on the cap's edge), each cap
    # holds exactly the grid nodes and the boundary atoms that
    # Q.contains_coords holds (on the stacked atoms, as the table stacks
    # them): sigma's weight and mu's are within CAP_REL of masked sums, and
    # on sigma the ratio is exactly 1
    grid = sphere_grid(d, res, seed=4)
    rng = np.random.default_rng(10 + d)
    z = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
    atoms = tuple((SpherePoint(zk / np.linalg.norm(zk)), m)
                  for zk, m in zip(z, rng.uniform(0.1, 1.0, 5)))
    pts = np.array([pt.coords for pt, _ in atoms])
    mu = BallMeasure(d, boundary_density=DensityExpr(
        {"sum": [1.0, {"re": 0}]}), boundary_atoms=atoms)
    table, sigma_table = (_NodeTable.build(m, grid)
                          for m in (mu, sigma_measure(d)))
    atoms_table = _NodeTable.build(
        dataclasses.replace(mu, boundary_density=None), grid)
    edges = Counter()
    for _ in range(6):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        c = SpherePoint(z / np.linalg.norm(z))
        node_gaps, atom_gaps = (niso_gap(c.coords, x)
                                for x in (grid.nodes, pts))
        near = [*node_gaps[rng.integers(len(grid), size=3)], *atom_gaps[:2]]
        deltas = sorted({*rng.uniform(1e-3, 2.0, 6).tolist(),
                         *(float(g) for g in near if g > 0),
                         *(_on_edge(g) for g in near if g > 2 * TOL)},
                        reverse=True)
        s, m = table.caps(c.coords, deltas)
        s_sigma, m_sigma = sigma_table.caps(c.coords, deltas)
        m_atoms = atoms_table.caps(c.coords, deltas)[1]
        assert np.array_equal(s, s_sigma)
        for j, delta in enumerate(deltas):
            Q = NonisotropicBall(c, delta)
            mask, held = Q.contains_coords(grid.nodes), Q.contains_coords(pts)
            edges["node"] += int(np.any(node_gaps == delta + TOL))
            edges["atom"] += int(np.any(atom_gaps == delta + TOL))
            assert (s[j] > 0) == mask.any()
            assert s[j] == pytest.approx(grid.weights[mask].sum(),
                                         rel=CAP_REL, abs=0)
            assert m[j] == pytest.approx(_masked_mass(mu, Q, grid),
                                         rel=CAP_REL, abs=0)
            # the atoms' share of mu(Q) is the masses of the atoms Q holds
            want = sum(mass for (_, mass), h in zip(atoms, held) if h)
            assert m_atoms[j] == pytest.approx(want, rel=CAP_REL)
            if mask.any():
                assert m_sigma[j] / s_sigma[j] == 1.0
    assert edges["node"] > 0 and edges["atom"] > 0


def _every_part(d):
    """A measure with each of the four parts of the decomposition."""
    rng = np.random.default_rng(d)
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return BallMeasure(
        d,
        interior_atoms=((BallPoint(0.6 * z / np.linalg.norm(z)), 0.7),),
        interior_density=DensityExpr({"pow": [{"abs_z": None}, 1.7]}),
        boundary_density=DensityExpr(
            {"sum": [1.0, {"prod": [0.5, {"re": 0}]}]}),
        boundary_atoms=((SpherePoint(e1), 0.3),))


@pytest.mark.parametrize("d,res", [(1, 512), (2, 9), (3, 1000)])
def test_node_table_reuse_matches_one_shot(d, res):
    """One node table serves many integrands with the bits that a fresh
    integrate_measure call gives each of them."""
    mu = _every_part(d)
    grid, rad = sphere_grid(d, res, seed=4), radial_rule(d, 24)
    table = _NodeTable.build(mu, grid, rad)
    ws = [a * np.exp(1j * t) * np.ones(d) / np.sqrt(d)
          for a, t in ((0.0, 0.0), (0.5, 1.0), (0.9, -2.0))]
    for _ in range(2):
        for w in ws:
            def f(pts, w=w):
                return np.abs(cauchy_kernel_at(w, pts)) ** 2.6
            vals = [None if pts is None else f(pts) for pts in table.sets]
            assert table.integrate_values(vals) == \
                integrate_measure(mu, f, grid, rad)
    for delta, depth in ((2.0, 1.0), (0.4, 0.2)):
        S = CarlesonWindow(NonisotropicBall(mu.boundary_atoms[0][0], delta),
                           depth)
        (s,), (m,) = table.caps(S.ball.center.coords, [delta])
        assert table.window_masses(rad, [(S, float(m), float(s))]) == \
            [measure_of_window(mu, S, grid, rad)]
        assert m == measure_of_ball(mu, S.ball, grid)
        mask = S.ball.contains_coords(grid.nodes)
        assert s == pytest.approx(grid.weights[mask].sum(), rel=CAP_REL)
        assert m == pytest.approx(_masked_mass(mu, S.ball, grid),
                                  rel=CAP_REL)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_window_masses_place_atoms_as_contains_coords(d):
    # each interior atom's norm and radial projection are taken once per
    # call, and every window still counts it as S.contains_coords does,
    # with the bits of adding its mass window by window: an atom at 0
    # (only in windows of depth 1), one at radius 1 - depth - TOL on the
    # centre's ray, and one whose projection has the gap delta + TOL, each
    # probed a few ulps either side of its edge
    grid = _grid(d)
    c = _off_node_center(d)
    depth, delta = 0.3, 0.5
    zeta = np.zeros(d, dtype=complex)
    zeta[0] = np.exp(0.7j)
    zeta = (zeta + c.coords) / np.linalg.norm(zeta + c.coords)
    gap = float(niso_gap(c.coords, zeta[None, :])[0])
    mu = BallMeasure(d, interior_atoms=(
        (BallPoint(np.zeros(d, dtype=complex)), 0.5),
        (BallPoint((1 - depth - TOL) * c.coords), 0.25),
        (BallPoint(0.8 * zeta), 0.125)))

    def ulps(x, n=3):
        out = [x]
        for _ in range(n):
            out = [np.nextafter(out[0], -1.0), *out,
                   np.nextafter(out[-1], 3.0)]
        return [float(v) for v in out]

    shapes = [(2.0, h) for h in [1.0, *ulps(1.0 - TOL)[:4]]]
    shapes += [(delta, h) for h in ulps(depth)]
    shapes += [(b, 0.25) for b in ulps(gap - TOL)]
    windows = [(CarlesonWindow(NonisotropicBall(c, b), h), 0.0, 0.0)
               for b, h in shapes]
    got = _NodeTable.build(mu, grid).window_masses(None, windows)
    want, seen = [], set()
    for S, *_ in windows:
        total = 0.0
        for k, (pt, mass) in enumerate(mu.interior_atoms):
            inside = bool(S.contains_coords(pt.coords[None, :])[0])
            seen.add((k, inside))
            if inside:
                total += mass
        want.append(total)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    # each atom is inside some window and outside another
    assert seen == {(k, inside) for k in range(3) for inside in (0, 1)}


def test_node_table_evaluates_densities_once(circle_grid, radial24):
    calls = []

    class Counted(DensityExpr):
        def __call__(self, pts):
            calls.append(len(pts))
            return super().__call__(pts)

    mu = BallMeasure(1, interior_density=Counted(1.0),
                     boundary_density=Counted(2.0))
    table = _NodeTable.build(mu, circle_grid, radial24)
    for a in (0.0, 0.3, 0.6):
        table.ray_pass(np.array([1.0 + 0j]), [a], 2.0)
        table.caps(E1.coords, [a + 0.1])
    # the boundary density first, so that it is checked first; the radial
    # interior density once per radius, on the points (r_j, 0, ..., 0)
    assert calls == [2048, 24]


def _mp_modulus(z, c, rho, p):
    """|1 - rho <z, c>|^(-pd) at 50 digits, z and c taken exactly."""
    with mpmath.workdps(50):
        t = sum(mpmath.mpc(complex(zk)) * mpmath.conj(mpmath.mpc(complex(ck)))
                for zk, ck in zip(z, c))
        return abs(1 - mpmath.mpf(float(rho)) * t) ** (-p * len(c))


def _mp_slices(g, radial, rho, p, d):
    """sum_j wr_j g(r_j) ||k_{rho r_j c}||_p^p at 50 digits (|c| = 1),
    ||k_a||_p^p = (1 - |a|^2)^(-d(p-1)) 2F1(d - pd/2, d - pd/2; d; |a|^2),
    the rule's radii and weights taken exactly; g maps an mpf radius to
    the density there."""
    with mpmath.workdps(50):
        e, total = d - mpmath.mpf(p) * d / 2, 0
        for r, wr in zip(radial.nodes, radial.weights):
            a2 = (mpmath.mpf(float(rho)) * mpmath.mpf(float(r))) ** 2
            norm = (1 - a2) ** (-d * (mpmath.mpf(p) - 1)) \
                * mpmath.hyp2f1(e, e, d, a2)
            total += mpmath.mpf(float(wr)) * g(mpmath.mpf(float(r))) * norm
        return total


@pytest.mark.parametrize("kind", ["sphere", "volume", "angular volume"])
@pytest.mark.parametrize("p", [2.0, 2.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_pass_along_a_ray_matches_mpmath(monkeypatch, d, p, kind):
    # w = (1 - 2^-k) c on the ray toward a grid node c, so the sphere nodes
    # come within 2^-8 of the pole; every node's modulus and the integral
    # lie within 1e-12 of mpmath's.  A radial interior density is taken on
    # its slices, with no interior nodes: its integral is within 1e-12 of
    # mpmath's sum_j wr_j g(r_j) ||k_{rho r_j c}||_p^p ("volume"); a density
    # with an angular factor keeps the check of every interior node's
    # modulus ("angular volume")
    grid = sphere_grid(d, {1: 48, 2: 4, 3: 40}[d], seed=3)
    radial = radial_rule(d, 4)
    c = grid.nodes[0]
    if kind == "sphere":
        mu = BallMeasure(
            d, interior_atoms=((BallPoint(0.7 * grid.nodes[1]), 0.4),),
            boundary_density=DensityExpr({"sum": [1.0, {"re": 0}]}),
            boundary_atoms=((SpherePoint(grid.nodes[2]), 0.3),))
    elif kind == "volume":
        mu = BallMeasure(d, interior_density=DensityExpr(
            {"sum": [0.5, {"abs_z": None}]}))
    else:
        mu = BallMeasure(d, interior_density=DensityExpr(
            {"sum": [1.5, {"re": 0}]}))
    table = _NodeTable.build(mu, grid, radial)
    assert (table.slices is not None) == (kind == "volume")
    # each node as (radius, sphere point) and its weight or mass, in the
    # order of the node sets
    nodes = []
    if table.sets[0] is not None and kind != "volume":
        nodes += [(r, z) for r in radial.nodes for z in grid.nodes]
    if table.sets[1] is not None:
        nodes += [(1.0, z) for z in grid.nodes]
    for k in (2, 3):
        if table.sets[k] is not None:
            nodes += [(1.0, a) for a in table.sets[k]]
    weights = [w for w in (None if kind == "volume" else table.wint,
                           table.wg) if w is not None]
    weights = [*(np.concatenate(weights) if weights else ()),
               *(m for _, m in mu.interior_atoms + mu.boundary_atoms)]
    seen = []
    real = _NodeTable.integrals

    def seeing(self, vals, inners):
        inners = list(inners)
        seen.extend(np.concatenate([np.zeros(0)] + [
            v[k] for v in vals if v is not None]) for k in range(len(inners)))
        return real(self, vals, inners)

    monkeypatch.setattr(_NodeTable, "integrals", seeing)
    rhos = [1.0 - 2.0 ** -k for k in range(1, 9)]
    integrals, _ = table.ray_pass(c, rhos, p)
    for rho, integral, got in zip(rhos, integrals, seen):
        ref = [_mp_modulus(r * np.asarray(z), c, rho, p) for r, z in nodes]
        assert len(got) == len(ref)
        for g, m in zip(got, ref):
            assert abs(g - m) <= 1e-12 * m
        with mpmath.workdps(50):
            want = mpmath.fsum(mpmath.mpf(float(w)) * m
                               for w, m in zip(weights, ref))
            if kind == "volume":
                want += _mp_slices(lambda r: 0.5 + r, radial, rho, p, d)
        assert abs(integral - want) <= 1e-12 * want


def _reference_pass(table, c, rho, p, m=None):
    """(I, G) at w = rho c, taken for this w alone: each row of moduli by
    its own cauchy_modulus_p call at the scalar radius rho r (the sphere
    row at rho, each interior row at rho r_j), the slices' norms at the
    radii rho r_j, and the table's summation rule written out with
    np.dot: the interior, the interior atoms, the boundary, the boundary
    atoms."""
    d = c.size
    t = table.grid.nodes @ np.conj(c)
    row = cauchy_modulus_p(t, d, p, rho)
    sliced = table.slices is not None and (m is None or np.ndim(m[0]) == 0)
    vals = [None, row, *(None if pts is None else cauchy_modulus_p(
        pts @ np.conj(c), d, p, rho) for pts in table.sets[2:])]
    inner = None
    if sliced:
        inner = table.slice_sum(kernels._norms_p(np.square(
            rho * table.interior.radial.nodes), kernels.Exponents(p, d)))
        if m is not None:
            inner *= float(m[0])
    elif table.sets[0] is not None:
        vals[0] = np.concatenate([cauchy_modulus_p(t, d, p, rho * r)
                                  for r in table.interior.radial.nodes])
    interior, boundary, inner_atoms, outer_atoms = [
        None if pts is None or u is None else u if m is None else u * m[k]
        for k, (pts, u) in enumerate(zip(table.sets, vals))]
    if interior is not None:
        inner = float(np.dot(interior, table.wint))
    total = 0.0 if inner is None else 0.0 + inner
    for (_, mass), v in zip(table.mu.interior_atoms, (
            [] if inner_atoms is None else inner_atoms.tolist())):
        total += mass * v
    if boundary is not None:
        total += float(np.dot(table.wg, boundary))
    for (_, mass), v in zip(table.mu.boundary_atoms, (
            [] if outer_atoms is None else outer_atoms.tolist())):
        total += mass * v
    return total, float(np.dot(table.grid.weights, row))


def _ray_measure(d, density):
    """A measure with an interior atom, a boundary density, a boundary atom
    and the interior density density (a spec)."""
    rng = np.random.default_rng(d)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    return BallMeasure(
        d, interior_atoms=((BallPoint(0.6 * z / np.linalg.norm(z)), 0.7),),
        interior_density=DensityExpr(density),
        boundary_density=DensityExpr({"sum": [1.0, {"prod": [0.5,
                                                             {"re": 0}]}]}),
        boundary_atoms=((SpherePoint(e1), 0.3),))


_ANGULAR = {"sum": [1.5, {"re": 0}]}
_RADIAL = {"sum": [0.5, {"abs_z": None}]}


@pytest.mark.parametrize("case,d,res,nr,p,density,n_rho", [
    # an angular interior density: a tensor row per radius
    ("angular", 2, 8, 6, 3.0, _ANGULAR, 9),
    # p = 2.5 with an interior density, on its slices and on tensor rows
    ("p 2.5 radial", 3, 500, 6, 2.5, _RADIAL, 9),
    ("p 2.5 angular", 1, 256, 6, 2.5, _ANGULAR, 9),
    # a non-constant H(b) multiplier: tensor rows on a radial density too
    ("H(b) radial", 2, 6, 4, 2.0, _RADIAL, 9),
    ("H(b) angular", 1, 128, 4, 2.0, _ANGULAR, 9),
    # 1 024 nodes by 8 rows: four w's per tile, so 10 w's take 3 tiles
    ("long ray", 1, 1024, 7, 2.0, _ANGULAR, 10),
    # 20 000 nodes: a tile is one row wide, and one w's 4 rows fill it
    ("one-row tile", 3, 20000, 3, 3.0, _ANGULAR, 4),
])
def test_ray_pass_keeps_the_bits_of_one_pass_per_w(monkeypatch, case, d, res,
                                                   nr, p, density, n_rho):
    # every w of the ray gets the integral I and the sigma sum G that a
    # pass over it alone gives, bit for bit, whatever the tiles; each tile
    # is at most _TILE moduli wide, or one w's rows
    grid, radial = sphere_grid(d, res, seed=2), radial_rule(d, nr)
    table = _NodeTable.build(_ray_measure(d, density), grid, radial)
    c = grid.nodes[3]
    rhos = [0.0] + [1.0 - 2.0 ** -k for k in range(1, n_rho)]
    ms = None
    if case.startswith("H(b)"):
        b = Symbol("polynomial", d, ((0.5 + 0j, (1,) + (0,) * (d - 1)),
                                     (0.25j, (0,) * (d - 1) + (2,))))
        bz = [None if pts is None else b(pts) for pts in table.sets]
        ms = [[None if z is None else
               np.abs(1.0 - z * np.conj(b(rho * c)[0])) ** 2 for z in bz]
              for rho in rhos]
    tiles = []
    real_rows = measures._modulus_rows

    def counting_rows(re, im, d, p, r, out):
        tiles.append(len(r))
        return real_rows(re, im, d, p, r, out)

    monkeypatch.setattr(measures, "_modulus_rows", counting_rows)
    got = table.ray_pass(c, rhos, p, ms)
    want = list(zip(*(_reference_pass(table, c, rho, p,
                                      None if ms is None else ms[k])
                      for k, rho in enumerate(rhos))))
    assert got[0] == list(want[0]) and got[1] == list(want[1])
    per_w = 1 + (0 if case == "p 2.5 radial" else nr)
    assert len(tiles) > 0 and sum(tiles) == per_w * len(rhos)
    assert max(tiles) <= max(measures._TILE // len(grid), per_w)
    if case in ("long ray", "one-row tile"):
        assert len(tiles) == {"long ray": 3, "one-row tile": 4}[case]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_abs_z_has_the_bits_of_the_row_norm(d):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((10 ** 5, d)) + 1j * rng.standard_normal(
        (10 ** 5, d))
    pts[:10] = 0.0
    pts[10:20] /= np.linalg.norm(pts[10:20], axis=1)[:, None]
    pts[20:30] = np.eye(d)[np.arange(10) % d] * np.exp(1j * np.arange(10))[
        :, None]
    got = DensityExpr({"abs_z": None})(pts)
    assert got.tobytes() == np.linalg.norm(pts, axis=1).tobytes()


def test_radon_nikodym_constant_density(circle_grid):
    prof = radon_nikodym_profile(sigma_measure(1), [E1], [0.4, 0.2, 0.1],
                                 circle_grid)
    assert np.allclose(prof.ratios, 1.0, atol=1e-12)


def test_radon_nikodym_empty_cell_is_nan():
    from revcarleson.quadrature import sphere_grid
    coarse = sphere_grid(1, 8)
    off_node = SpherePoint(np.array([np.exp(0.3j)]))
    prof = radon_nikodym_profile(sigma_measure(1), [off_node], [1e-4], coarse)
    assert np.isnan(prof.ratios[0, 0])


def _reference_radon(mu, centers, deltas, grid):
    """radon_nikodym_profile's ratios as a cell-by-cell loop with its own
    node-indicator sums (_masked_mass)."""
    out = np.full((len(centers), len(deltas)), np.nan)
    for i, c in enumerate(centers):
        for j, delta in enumerate(deltas):
            Q = NonisotropicBall(c, delta)
            mask = Q.contains_coords(grid.nodes)
            s = float(grid.weights[mask].sum())
            if s <= 0:
                continue
            out[i, j] = _masked_mass(mu, Q, grid) / s
    return out


@pytest.mark.parametrize("measure", ["sigma", "every-part"])
@pytest.mark.parametrize("d,res", [(1, 512), (2, 9), (3, 1000)])
def test_radon_nikodym_matches_cell_by_cell_loop(d, res, measure):
    mu = sigma_measure(d) if measure == "sigma" else _every_part(d)
    grid = sphere_grid(d, res, seed=4)
    rng = np.random.default_rng(d)
    z = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
    centers = [SpherePoint(c / np.linalg.norm(c)) for c in z]
    centers.append(_every_part(d).boundary_atoms[0][0])
    # a node just outside the edge of one cell, inside it by the tolerance
    edge = float(np.abs(1.0 - grid.nodes[3] @ np.conj(centers[0].coords)))
    deltas = tuple(sorted({1.5, 0.5, 0.125, 1e-3, edge - 5e-13},
                          reverse=True))
    prof = radon_nikodym_profile(mu, centers, deltas, grid)
    ref = _reference_radon(mu, centers, deltas, grid)
    # the same empty cells, the rest within CAP_REL
    assert np.array_equal(np.isnan(prof.ratios), np.isnan(ref))
    live = ~np.isnan(ref)
    np.testing.assert_allclose(prof.ratios[live], ref[live], rtol=CAP_REL,
                               atol=0)
    if measure == "sigma":
        assert set(prof.ratios[live].tolist()) == {1.0}


def test_radon_nikodym_rejects_bad_deltas(circle_grid):
    with pytest.raises(ValueError):
        radon_nikodym_profile(sigma_measure(1), [E1], [0.1, 0.2], circle_grid)


# ---------------------------------------------------------------------------
# serialization

def test_round_trip_dict():
    """A document holding every field reads back as the measure it
    writes down."""
    boundary = {"sum": [1.0, {"pow": [{"abs_inner": {"w": [[1.0, 0.0]]}},
                                      2.0]}]}
    mu = measure_from_dict({
        "dimension": 1,
        "interior_atoms": [{"point": [[0.3, 0.1]], "mass": 1.5}],
        "interior_density": {"const": 2.0},
        "boundary_density": boundary,
        "boundary_atoms": [{"point": [[1.0, 0.0]], "mass": 0.25}]})
    assert mu.d == 1
    (z, m), = mu.interior_atoms
    assert isinstance(z, BallPoint)
    assert (z.coords.tolist(), m) == ([0.3 + 0.1j], 1.5)
    assert mu.interior_density.spec == {"const": 2.0}
    assert mu.boundary_density.spec == boundary
    (xi, m), = mu.boundary_atoms
    assert isinstance(xi, SpherePoint)
    assert (xi.coords.tolist(), m) == ([1.0 + 0j], 0.25)


def test_yaml_file_round_trip(tmp_path, circle_grid, radial24):
    """sigma written as a YAML file reads back with total mass one."""
    path = tmp_path / "mu.yaml"
    path.write_text("boundary_atoms: []\nboundary_density: 1.0\n"
                    "dimension: 1\ninterior_atoms: []\n"
                    "interior_density: null\n")
    mu = load_measure(path)
    assert mu.boundary_density.spec == 1.0
    assert (mu.interior_atoms, mu.interior_density, mu.boundary_atoms) == \
        ((), None, ())
    assert _total_mass(mu, circle_grid, radial24) == pytest.approx(1.0)


def test_load_rejects_nonpositive_mass(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("dimension: 1\n"
                    "boundary_atoms:\n- {point: [[1.0, 0.0]], mass: -2.0}\n")
    with pytest.raises(ValueError):
        load_measure(path)


def test_density_grammar_rejects_garbage():
    with pytest.raises(ValueError):
        DensityExpr({"frobnicate": 1})
    with pytest.raises(ValueError):
        DensityExpr({"sum": [1.0], "prod": [1.0]})


def test_density_numbers_are_numbers():
    # a bool or a string is rejected wherever a number is read: a bare
    # number, const, the pow exponent and the indicator delta
    one = [[1.0, 0.0]]
    for spec in (True, "2.5", {"const": "2.5"}, {"const": False},
                 {"pow": [{"abs_z": None}, "2"]},
                 {"pow": [{"abs_z": None}, True]},
                 {"indicator": {"center": one, "delta": "0.5"}},
                 {"indicator": {"center": one, "delta": True}}):
        with pytest.raises(ValueError, match="density node"):
            DensityExpr(spec)
    # integers stay numbers, NumPy's among them
    pts = np.array([[0.5 + 0j], [0.0j]])
    assert DensityExpr(2)(pts).tolist() == [2.0, 2.0]
    assert DensityExpr({"const": np.float64(2.5)})(pts).tolist() == [2.5, 2.5]
    assert DensityExpr({"pow": [{"abs_z": None}, 2]})(pts).tolist() \
        == [0.25, 0.0]
    cap = {"indicator": {"center": one, "delta": np.int64(2)}}
    assert DensityExpr(cap)(pts).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("delta", [-1.0, 0, 0.0, 2.0 + 1e-9, 3])
def test_indicator_delta_outside_zero_two_is_rejected(delta):
    with pytest.raises(ValueError, match=r"needs a delta in \(0, 2\]"):
        DensityExpr({"indicator": {"center": [[1.0, 0.0]], "delta": delta}})


def test_fractional_power_of_negative_density_is_input_error():
    dens = DensityExpr({"pow": [{"re": 0}, 0.5]})
    pts = np.array([[0.5 + 0j], [-0.25 + 0j]])
    with pytest.raises(ValueError, match=r"density node \{'pow'.*-0\.25"):
        dens(pts)
    # an integer power of a negative base is defined
    sq = DensityExpr({"pow": [{"re": 0}, 2.0]})
    assert sq(pts).tolist() == [0.25, 0.0625]
    # a negative base within TOL of zero counts as zero
    assert dens(np.array([[-1e-14 + 0j], [0.25 + 0j]])).tolist() == [0.0, 0.5]


def _reference_eval(spec, pts):
    """The density evaluator that walked the spec and parsed its points and
    numbers on every call: the oracle of the compiled evaluator."""
    n = len(pts)
    if isinstance(spec, (int, float)):
        return np.full(n, float(spec))
    (op, arg), = spec.items()
    if op == "const":
        return np.full(n, float(arg))
    if op == "abs_z":
        return np.linalg.norm(pts, axis=1)
    if op == "re":
        return pts[:, int(arg)].real
    if op == "im":
        return pts[:, int(arg)].imag
    if op == "abs_inner":
        w0 = _parse_point(arg["w"])
        return np.abs(pts @ np.conj(w0))
    if op == "indicator":
        center = _parse_point(arg["center"])
        delta = float(arg["delta"])
        r = np.linalg.norm(pts, axis=1)
        out = np.zeros(n)
        ok = r > 0
        proj = pts[ok] / r[ok, None]
        out[ok] = (np.abs(1.0 - proj @ np.conj(center)) <= delta + TOL)
        return out
    if op == "sum":
        return np.sum([_reference_eval(a, pts) for a in arg], axis=0)
    if op == "prod":
        return np.prod([_reference_eval(a, pts) for a in arg], axis=0)
    if op == "pow":
        base, e = _reference_eval(arg[0], pts), float(arg[1])
        if not e.is_integer():
            bad = base < -TOL
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"density node {spec!r} raises the negative value "
                    f"{base[i]} at point {pts[i]} to the non-integer "
                    f"power {e}")
            base = np.maximum(base, 0.0)
        return base ** e
    raise ValueError(f"unknown density op {op!r}")


def _specs(d: int):
    """Nested density specs for a measure of dimension d; about one leaf in
    seven is a malformed node, or holds a malformed point or number."""
    numbers = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3))
    point = st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
                     min_size=d, max_size=d)
    one = [[1.0, 0.0]] * d
    malformed = st.sampled_from([
        math.nan, math.inf, 10 ** 400, {"const": math.nan}, {"const": None},
        {"const": "x"}, {"abs_z": 7}, {"re": -1}, {"re": d}, {"im": 1.5},
        {"re": None}, {"im": math.inf}, {"abs_inner": {"w": [[0.5]]}},
        {"abs_inner": {"w": one + [[0.5, 0.0]]}},
        {"abs_inner": {"w": [[math.nan, 0.0]] * d}},
        {"indicator": {"center": one, "delta": math.nan}},
        {"indicator": {"center": "x", "delta": 0.5}}, {"frobnicate": 1},
        {"sum": 5}, {"sum": []}, {"prod": []}, {"re": 0, "im": 0},
        {"abs_inner": {}}, {"pow": 3}, {"pow": [1.0]}, [], "x", None])
    leaves = st.one_of(
        numbers, st.builds(lambda c: {"const": c}, numbers),
        st.just({"abs_z": None}),
        st.builds(lambda op, k: {op: k}, st.sampled_from(["re", "im"]),
                  st.integers(0, d - 1)),
        st.builds(lambda w: {"abs_inner": {"w": w}}, point),
        st.builds(lambda c, delta: {"indicator": {"center": c,
                                                  "delta": delta}},
                  point, st.floats(0.0, 2.5)),
        malformed)
    exponent = st.one_of(numbers, st.sampled_from(
        [0.5, 2.5, -1.0, math.nan, math.inf, None, "x"]))

    def branches(children):
        return st.one_of(
            st.builds(lambda op, args: {op: args},
                      st.sampled_from(["sum", "prod"]),
                      st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda base, e: {"pow": [base, e]}, children,
                      exponent))
    return st.recursive(leaves, branches, max_leaves=6)


_SPECS = {d: _specs(d) for d in (1, 2, 3)}


@given(data=st.data(), d=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
@settings(max_examples=300, deadline=None)
def test_density_grammar_matches_the_reference_walk(data, d, seed):
    # a spec is rejected only by ValueError; one the measure accepts gives
    # the reference walk's bits at random ball points (the origin among
    # them), or the same ValueError
    spec = data.draw(_SPECS[d])
    try:
        dens = DensityExpr(spec)
        BallMeasure(d, boundary_density=dens)
    except ValueError:
        return
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((24, d)) + 1j * rng.standard_normal((24, d))
    pts /= 1.5 * np.linalg.norm(pts, axis=1)[:, None]
    pts[0] = 0.0
    with np.errstate(all="ignore"):
        try:
            want = _reference_eval(spec, pts)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                dens(pts)
            assert str(got.value) == str(exc)
            return
        got = dens(pts)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_density_points_are_parsed_once(monkeypatch):
    # building an abs_inner and an indicator node parses each point once;
    # evaluations parse nothing
    seen = []
    monkeypatch.setattr(measures, "_parse_point",
                        lambda obj: seen.append(obj) or _parse_point(obj))
    dens = DensityExpr({"sum": [
        {"abs_inner": {"w": [[0.6, 0.0]]}},
        {"indicator": {"center": [[0.0, 1.0]], "delta": 0.5}}]})
    assert seen == [[[0.6, 0.0]], [[0.0, 1.0]]]
    pts = np.array([[0.5 + 0j], [0.8j], [0j]])
    for _ in range(3):
        assert dens(pts).tolist() == [0.3, 1.0 + 0.48, 0.0]
    assert len(seen) == 2


@given(st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_scaling_commutes_with_cap_mass(c):
    from revcarleson.quadrature import sphere_grid
    grid = sphere_grid(1, 256)
    Q = NonisotropicBall(E1, 0.6)
    base = measure_of_ball(sigma_measure(1), Q, grid)
    scaled = BallMeasure(1, boundary_density=DensityExpr(c))
    assert measure_of_ball(scaled, Q, grid) == pytest.approx(c * base,
                                                             rel=1e-12)
