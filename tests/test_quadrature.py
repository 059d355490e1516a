"""Quadrature rules on the sphere and radial shells.

Oracles: exact moments of sigma, the geometric-series value of the p=2
Cauchy-kernel norm, and the normalized volume of the ball.
"""

import numpy as np
import pytest

from revcarleson.geometry import CarlesonWindow, NonisotropicBall, SpherePoint
from revcarleson.quadrature import (_MC_BLOCK, RadialRule, SphereGrid,
                                    _blocks, _torus_slabs, integrate_sphere,
                                    integrate_window, radial_rule, refine,
                                    sphere_grid)
from revcarleson.kernels import cauchy_kernel_at


@pytest.mark.parametrize("d,res", [(1, 512), (2, 12), (3, 50000)])
def test_weights_normalized(d, res):
    g = sphere_grid(d, res, seed=0)
    assert float(g.weights.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("d,res,tol", [(1, 256, 1e-12), (2, 12, 1e-10),
                                       (3, 200000, 5e-3)])
def test_first_coordinate_moment(d, res, tol):
    # int |zeta_1|^2 dsigma = 1/d  (coordinates of a uniform point on S^{2d-1})
    g = sphere_grid(d, res, seed=1)
    m = integrate_sphere(lambda z: np.abs(z[:, 0]) ** 2, g)
    assert float(np.real(m)) == pytest.approx(1.0 / d, abs=tol)


def _torus_meshgrid(n):
    """The torus rule built whole from index meshgrids, as a reference."""
    x, wu = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wu
    phi = np.exp(2j * np.pi * np.arange(n) / n)
    c, s = np.sqrt(1.0 - u), np.sqrt(u)
    U, P1, P2 = np.meshgrid(np.arange(n), np.arange(n), np.arange(n),
                            indexing="ij")
    nodes = np.empty((n ** 3, 2), dtype=complex)
    nodes[:, 0] = (c[U] * phi[P1]).ravel()
    nodes[:, 1] = (s[U] * phi[P2]).ravel()
    weights = np.broadcast_to(wu[:, None, None] / (n * n), (n, n, n)).ravel()
    return nodes, weights


@pytest.mark.parametrize("n", [4, 13, 26])
def test_torus_grid_is_its_slabs(n):
    # sphere_grid(2, n) is the u-slabs in order, and has the bits of the
    # meshgrid construction of the same rule
    g = sphere_grid(2, n)
    slabs = list(_torus_slabs(n))
    assert len(slabs) == n
    assert all(z.shape == (n * n, 2) and w.shape == (n * n,)
               for z, w in slabs)
    ref_nodes, ref_weights = _torus_meshgrid(n)
    for nodes, weights in (
            (g.nodes, g.weights),
            (np.concatenate([z for z, _ in slabs]),
             np.concatenate([w for _, w in slabs]))):
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()


@pytest.mark.parametrize("n", [13, 52])
def test_torus_blocks_cover_the_grid(n):
    # the blocks are the u-slabs of the torus rule, in order
    g = sphere_grid(2, n)
    blocks = list(_blocks(2, n))
    for (z, w), (z_ref, w_ref) in zip(blocks, _torus_slabs(n), strict=True):
        assert z.tobytes() == z_ref.tobytes()
        assert w.tobytes() == w_ref.tobytes()
    assert np.concatenate([z for z, _ in blocks]).tobytes() == \
        g.nodes.tobytes()
    assert np.concatenate([w for _, w in blocks]).tobytes() == \
        g.weights.tobytes()


def _monte_carlo_whole(d, n, seed):
    """The Monte Carlo rule drawn whole, as a reference: the rows of
    X + iY scaled to the sphere, X then Y drawn by one generator."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True), np.full(n, 1.0 / n)


@pytest.mark.parametrize("d,n", [(3, 2 * _MC_BLOCK + 1), (4, 50000),
                                 (3, 4096)])
def test_monte_carlo_blocks_cover_the_grid(d, n):
    # the blocks are _MC_BLOCK nodes each but the last, and in order they
    # are sphere_grid's nodes and weights, with the bits of the rule drawn
    # whole, for a node count that is not a multiple of the block
    g = sphere_grid(d, n, seed=7)
    blocks = list(_blocks(d, n, 7))
    assert [len(w) for _, w in blocks[:-1]] == \
        [_MC_BLOCK] * (len(blocks) - 1)
    nodes = np.concatenate([z for z, _ in blocks])
    weights = np.concatenate([w for _, w in blocks])
    ref_nodes, ref_weights = _monte_carlo_whole(d, n, 7)
    assert len(nodes) == len(weights) == len(g) == n
    for z, w in ((nodes, weights), (g.nodes, g.weights)):
        assert z.tobytes() == ref_nodes.tobytes()
        assert w.tobytes() == ref_weights.tobytes()


def test_holomorphic_mean_value(torus_grid):
    # int <zeta, e1> dsigma = 0 by symmetry
    m = integrate_sphere(lambda z: z[:, 0], torus_grid)
    assert abs(m) < 1e-12


def test_geometric_series_oracle(circle_grid):
    """int 1/|1 - a zeta|^2 dsigma = sum a^{2n} = 1/(1-a^2) for d=1."""
    a = 0.5
    val = integrate_sphere(
        lambda z: 1.0 / np.abs(1.0 - a * z[:, 0]) ** 2, circle_grid)
    assert float(np.real(val)) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_torus_rule_kernel_norm_d2(torus_grid):
    # int 1/|1 - a zeta_1|^4 dsigma = sum (n+1) a^{2n} = 1/(1-a^2)^2 for d=2
    a = 0.4
    val = integrate_sphere(
        lambda z: 1.0 / np.abs(1.0 - a * z[:, 0]) ** 4, torus_grid)
    # 16 phase nodes alias the a^{2n} tail at n = 16, hence the loose tol
    assert float(np.real(val)) == pytest.approx(1.0 / (1 - a * a) ** 2,
                                                rel=1e-5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_rule_integrates_volume(d):
    # the Jacobian 2d r^{2d-1} is baked into the weights; full depth gives 1
    rule = radial_rule(d, 40)
    assert float(rule.weights.sum()) == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(rule.nodes) > 0)


def test_radial_rule_partial_depth():
    # shell 1-h <= r < 1 has volume 1 - (1-h)^{2d}
    h = 0.25
    rule = radial_rule(2, 40, depth=h)
    assert float(rule.weights.sum()) == pytest.approx(1 - (1 - h) ** 4,
                                                      rel=1e-10)
    assert rule.nodes.min() >= 1 - h - 1e-12


def test_refine_doubles_resolution(circle_grid):
    g2 = refine(circle_grid)
    assert isinstance(g2, SphereGrid)
    assert g2.resolution == 2 * circle_grid.resolution
    assert g2.scheme == circle_grid.scheme


def test_refine_radial():
    r = radial_rule(1, 8)
    r2 = refine(r)
    assert isinstance(r2, RadialRule)
    assert len(r2.nodes) == 2 * len(r.nodes)


def test_monte_carlo_seeded_reproducible():
    a = sphere_grid(3, 4096, seed=9)
    b = sphere_grid(3, 4096, seed=9)
    assert np.array_equal(a.nodes, b.nodes)
    c = sphere_grid(3, 4096, seed=10)
    assert not np.array_equal(a.nodes, c.nodes)


def test_integrate_window_full_depth_equals_ball_integral(circle_grid):
    # window of depth 1 over the whole sphere is the whole ball
    Q = NonisotropicBall(SpherePoint(np.array([1.0 + 0j])), 2.0)
    S = CarlesonWindow(Q, 1.0)
    rad = radial_rule(1, 32)
    val = integrate_window(lambda z: np.ones(len(z)), S, circle_grid, rad)
    assert float(np.real(val)) == pytest.approx(1.0, rel=1e-8)


def test_integrate_window_shell_mass(circle_grid):
    Q = NonisotropicBall(SpherePoint(np.array([1.0 + 0j])), 0.5)
    h = 0.1
    S = CarlesonWindow(Q, h)
    rad = radial_rule(1, 32, depth=h)
    val = float(np.real(integrate_window(
        lambda z: np.ones(len(z)), S, circle_grid, rad)))
    # product of cap mass and shell volume, up to grid quantization of the cap
    expect = (2 / np.pi) * np.arcsin(0.25) * (1 - (1 - h) ** 2)
    assert val == pytest.approx(expect, rel=5e-3)


def test_integrate_sphere_rejects_nonfinite(circle_grid):
    with pytest.raises(ArithmeticError), np.errstate(divide="ignore"):
        integrate_sphere(lambda z: 1.0 / np.abs(1.0 - z[:, 0]), circle_grid)


def test_radial_rule_matches_fresh_gauss_legendre():
    # the cached Gauss-Legendre nodes give the bits of a fresh leggauss call
    for d, n, depth in [(1, 24, 1.0), (3, 24, 0.0625), (2, 17, 0.3)]:
        rule = radial_rule(d, n, depth)
        x, w = np.polynomial.legendre.leggauss(n)
        lo, hi = 1.0 - depth, 1.0 - 1e-14
        r = 0.5 * (hi - lo) * (x + 1.0) + lo
        assert np.array_equal(rule.nodes, r)
        assert np.array_equal(rule.weights,
                              0.5 * (hi - lo) * w * 2.0 * d * r ** (2 * d - 1))
    from revcarleson.quadrature import _gauss_legendre
    x, w = _gauss_legendre(24)
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 5, 24])
def test_radial_rows_are_the_rules_of_each_depth(d, n):
    # one row per depth, each with the bits of radial_rule at that depth
    from revcarleson.quadrature import _radial_rows
    depths = np.concatenate((np.random.default_rng(d * n).uniform(
        1e-6, 1.0, 50), [1.0, 0.5, 2.0 ** -20]))
    r, wr = _radial_rows(d, n, depths)
    assert r.shape == wr.shape == (len(depths), n)
    for h, r_row, wr_row in zip(depths, r, wr):
        rule = radial_rule(d, n, float(h))
        assert r_row.tobytes() == rule.nodes.tobytes()
        assert wr_row.tobytes() == rule.weights.tobytes()


def _integrate_window_per_radius(f, S, grid, radial):
    """Oracle: integrate_window as one integrand call per radius."""
    mask = S.ball.contains_coords(grid.nodes)
    if not mask.any():
        return 0.0 + 0.0j
    zeta = grid.nodes[mask]
    w_ang = grid.weights[mask]
    total = 0.0 + 0.0j
    for r, wr in zip(radial.nodes, radial.weights):
        vals = np.asarray(f(r * zeta))
        bad = ~np.isfinite(vals)
        if bad.any():
            i = int(np.argmax(bad))
            raise ArithmeticError(
                f"integrand not finite at radius {r}, node {zeta[i]}")
        total += wr * np.sum(w_ang * vals)
    return complex(total)


def _window_integrands(d):
    w = 0.7 * np.exp(0.4j) * np.ones(d) / np.sqrt(d)
    return [
        lambda z: np.ones(len(z)),
        lambda z: np.linalg.norm(z, axis=1) ** 2.5,
        lambda z: np.abs(cauchy_kernel_at(w, z)) ** 3.2,
        lambda z: cauchy_kernel_at(w, z),             # complex values
    ]


@pytest.mark.parametrize("d,res,delta,depth", [
    (1, 2048, 2.0, 1.0), (1, 2048, 0.3, 0.15),
    (2, 13, 2.0, 1.0), (2, 13, 0.5, 0.25),
    (3, 2000, 2.0, 1.0), (3, 2000, 0.6, 0.3)])
def test_integrate_window_matches_per_radius_loop(d, res, delta, depth):
    """One integrand call on every node gives the bits of the loop that
    calls the integrand once per radius."""
    grid = sphere_grid(d, res, seed=3)
    c = np.zeros(d, dtype=complex)
    c[-1] = np.exp(0.9j)
    S = CarlesonWindow(NonisotropicBall(SpherePoint(c), delta), depth)
    rad = radial_rule(d, 24, depth)
    for f in _window_integrands(d):
        got = integrate_window(f, S, grid, rad)
        want = _integrate_window_per_radius(f, S, grid, rad)
        assert type(got) is complex
        assert (got.real, got.imag) == (want.real, want.imag)


def test_integrate_window_empty_cap_is_zero(circle_grid):
    off = SpherePoint(np.array([np.exp(1e-4j)]))
    S = CarlesonWindow(NonisotropicBall(off, 1e-12), 0.5)
    rad = radial_rule(1, 8, 0.5)
    assert integrate_window(lambda z: np.ones(len(z)), S, circle_grid,
                            rad) == 0.0


def test_integrate_window_nonfinite_message_matches_loop(torus_grid):
    # finite at the inner radii and at the first nodes of the cap: the
    # first bad radius and the first bad node there are named, as in the loop
    e1 = SpherePoint(np.array([1.0 + 0j, 0j]))
    S = CarlesonWindow(NonisotropicBall(e1, 0.8), 0.5)
    rad = radial_rule(2, 24, 0.5)

    def f(z):
        r = np.linalg.norm(z, axis=1)
        return np.where((r > 0.8) & (z[:, 0].real < 0.95 * r), np.nan, 1.0)

    with pytest.raises(ArithmeticError) as want:
        _integrate_window_per_radius(f, S, torus_grid, rad)
    with pytest.raises(ArithmeticError) as got:
        integrate_window(f, S, torus_grid, rad)
    assert str(got.value) == str(want.value)
    first = torus_grid.nodes[S.ball.contains_coords(torus_grid.nodes)][0]
    assert f"radius {rad.nodes[0]}," not in str(got.value)
    assert f"node {first}" not in str(got.value)
