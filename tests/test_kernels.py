"""Cauchy/Poisson kernels, norms, balayage.

The p=2 norm identity is checked against the closed form; for p != 2 the
quadrature norm is checked against an independent hypergeometric series
(binomial expansion of (1 - a zeta)^{-p/2} and Parseval), which the closed
form (1-|w|^2)^{-d/q} does NOT reproduce.
"""

import mpmath
import numpy as np
import pytest

from revcarleson import kernels
from revcarleson.geometry import NonisotropicBall, SpherePoint
from revcarleson.kernels import (Exponents, TestFunction, cauchy_kernel,
                                 cauchy_kernel_at, cauchy_modulus_p, hp_norm,
                                 kernel_norm, normalized_kernel, phi_h,
                                 poisson_kernel_at)
from revcarleson.quadrature import radial_rule, sphere_grid
E1 = SpherePoint(np.array([1.0 + 0j]))


def test_exponents_conjugate():
    ex = Exponents(4.0 / 3.0, 2)
    assert ex.q == pytest.approx(4.0)
    assert 1 / ex.p + 1 / ex.q == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Exponents(1.0, 1)


def test_cauchy_kernel_values():
    w = np.array([0.5 + 0j])
    assert cauchy_kernel(w, np.array([0.5 + 0j])) == pytest.approx(1 / 0.75)
    w2 = np.array([0.5 + 0j, 0.0 + 0j])
    z2 = np.array([0.2 + 0j, 0.1 + 0j])
    assert cauchy_kernel(w2, z2) == pytest.approx(1.0 / (1 - 0.1) ** 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cauchy_kernel_at_integer_power_matches_mpmath(d):
    # (1 - <z, w>)^(-d) from one reciprocal and d - 1 multiplies, within
    # 1e-12 of mpmath at 50 digits for |w| up to 1 - 2^-8, w toward a
    # node; at d = 1 it is the complex power (1 - t)^(-1) bit for bit
    zeta = sphere_grid(d, {1: 64, 2: 5}.get(d, 60), seed=2).nodes
    for k in range(0, 9):
        w = (1.0 - 2.0 ** -k) * zeta[0]
        got = cauchy_kernel_at(w, zeta)
        if d == 1:
            assert got.tobytes() == ((1.0 - zeta @ np.conj(w)) ** -1).tobytes()
        with mpmath.workdps(50):
            for g, z in zip(got, zeta):
                t = sum(mpmath.mpc(complex(a)) * mpmath.conj(mpmath.mpc(
                    complex(b))) for a, b in zip(z, w))
                ref = (1 - t) ** -d
                assert abs(mpmath.mpc(complex(g)) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("a", [0.0, 0.5, 1 - 2.0 ** -9])
@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cauchy_modulus_matches_kernel(d, p, a):
    # |k_w|^p from the inner products alone, on sphere nodes, on the
    # radius-major interior nodes r_j zeta_i and at an atom; w points at a
    # grid node, so the sphere nodes come within 2^-9 of the pole
    zeta = sphere_grid(d, {1: 256, 2: 8}.get(d, 500)).nodes
    radial = radial_rule(d, 24)
    w = a * zeta[0]
    t = zeta @ np.conj(w)
    interior = (radial.nodes[:, None, None] * zeta).reshape(-1, d)
    atom = (1 - 2.0 ** -8) * zeta[:1]
    for got, pts in ((cauchy_modulus_p(t, d, p), zeta),
                     (cauchy_modulus_p(t, d, p, radial.nodes).ravel(),
                      interior),
                     (cauchy_modulus_p(atom @ np.conj(w), d, p), atom)):
        ref = np.abs(cauchy_kernel_at(w, pts)) ** p
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)


def _modulus_in_place(d, p, a):
    """(_modulus_rows written into a buffer, the reference formula
    (1 - r Re t)^2 + (r Im t)^2 to the power -pd/2) on the sphere row and
    the interior rows of a ray pass, w within 2^-9 of a grid node."""
    zeta = sphere_grid(d, {1: 256, 2: 8}.get(d, 500)).nodes
    r = np.concatenate(([1.0], radial_rule(d, 24).nodes))
    w = a * zeta[0]
    t = zeta @ np.conj(w)
    out = np.empty((2, len(r), len(t)))
    got = kernels._modulus_rows(np.ascontiguousarray(t.real),
                                np.ascontiguousarray(t.imag), d, p, r, out)
    assert np.shares_memory(got, out)
    x, y = 1.0 - r[:, None] * t.real, r[:, None] * t.imag
    return got, (x * x + y * y) ** (-0.5 * p * d)


@pytest.mark.parametrize("a", [0.5, 1 - 2.0 ** -9])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_in_place_modulus_integer_power(d, k, a):
    # pd/2 = k: a reciprocal and k - 1 multiplies, not np.power
    got, ref = _modulus_in_place(d, 2.0 * k / d, a)
    assert np.all(np.abs(got - ref) <= 1e-15 * ref)


@pytest.mark.parametrize("a", [0.5, 1 - 2.0 ** -9])
@pytest.mark.parametrize("p", [1.5, 2.5, 3.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_in_place_modulus_other_power_is_bitwise(d, p, a):
    # pd/2 is not an integer: the same np.power
    got, ref = _modulus_in_place(d, p, a)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("a", [0.0, 0.3, 0.6, 0.9])
def test_p2_norm_closed_form(circle_grid, a):
    ex = Exponents(2.0, 1)
    w = np.array([a + 0j])
    assert kernel_norm(w, ex, circle_grid) == pytest.approx(
        kernel_norm(w, ex), rel=1e-10)
    assert kernel_norm(w, ex) == pytest.approx((1 - a * a) ** -0.5)


def _series_norm_p(a, p, n_terms=400):
    """||k_w||_p^p for d=1 by Parseval on (1 - a zeta)^{-p/2}.

    Coefficients c_n = (p/2)_n / n! by the recurrence
    c_{n+1} = c_n (p/2 + n)/(n + 1); terms are c_n^2 a^{2n}.
    """
    total, c = 0.0, 1.0
    for n in range(n_terms):
        total += c * c * a ** (2 * n)
        c *= (p / 2.0 + n) / (n + 1.0)
    return total


@pytest.mark.parametrize("p", [4.0 / 3.0, 4.0])
@pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
def test_general_p_norm_matches_series(circle_grid, p, a):
    ex = Exponents(p, 1)
    w = np.array([a + 0j])
    assert kernel_norm(w, ex, circle_grid) ** p == pytest.approx(
        _series_norm_p(a, p), rel=1e-9)


@pytest.mark.parametrize("p", [4.0 / 3.0, 4.0])
def test_closed_form_deviates_for_general_p(circle_grid, p):
    # the exponent identity is exact only at p = 2; at |w| = 0.9 the gap is
    # a few percent and must NOT be hidden by the quadrature
    ex = Exponents(p, 1)
    w = np.array([0.9 + 0j])
    quad = kernel_norm(w, ex, circle_grid)
    closed = kernel_norm(w, ex)
    assert abs(quad - closed) / closed > 1e-3


def test_normalized_kernel_unit_norm(circle_grid):
    for p in (2.0, 4.0):
        ex = Exponents(p, 1)
        f = normalized_kernel(np.array([0.6 + 0j]), ex,
                              grid=None if p == 2.0 else circle_grid)
        assert hp_norm(f, ex, circle_grid) == pytest.approx(1.0, rel=1e-9)


def test_hp_norm_of_constant(circle_grid):
    ex = Exponents(3.0, 1)
    assert hp_norm(lambda z: np.full(len(z), 2.0), ex, circle_grid) == \
        pytest.approx(2.0)


def test_poisson_positive_and_normalized(circle_grid, torus_grid):
    from revcarleson.quadrature import integrate_sphere
    # the 16-node torus phases alias the 0.5^{2n} tail, hence the looser tol
    for grid, d, tol in ((circle_grid, 1, 1e-9), (torus_grid, 2, 2e-4)):
        w = np.zeros(d, dtype=complex)
        w[0] = 0.5
        vals = poisson_kernel_at(w, grid.nodes)
        assert np.all(vals > 0)
        mass = integrate_sphere(lambda z: poisson_kernel_at(w, z), grid)
        assert float(np.real(mass)) == pytest.approx(1.0, abs=tol)


def test_poisson_at_origin_is_one():
    assert poisson_kernel_at(np.array([0j]), np.array([[1.0 + 0j]]))[0] == \
        pytest.approx(1.0)


def test_test_function_combination(circle_grid):
    ex = Exponents(2.0, 1)
    f = TestFunction(kernel_terms=((1.0, np.array([0.3 + 0j])),),
                     poly_terms=((2.0, (1,)),), d=1)
    z = np.array([[0.1 + 0.2j]])
    expect = 1.0 / (1 - z[0, 0] * 0.3) + 2.0 * z[0, 0]
    assert f(z)[0] == pytest.approx(expect)
    f3 = TestFunction(kernel_terms=((3.0, np.array([0.3 + 0j])),),
                      poly_terms=((6.0, (1,)),), d=1)
    assert hp_norm(f3, ex, circle_grid) == \
        pytest.approx(3.0 * hp_norm(f, ex, circle_grid))


# ---------------------------------------------------------------------------
# balayage

def test_phi_h_positive_and_bounded_on_cap(circle_grid):
    ex = Exponents(2.0, 1)
    Q = NonisotropicBall(E1, 0.5)
    vals = [phi_h(np.array([r + 0j]), Q, 0.125, ex, circle_grid)
            for r in (0.0, 0.5, 0.9, 0.999)]
    assert all(v > 0 for v in vals)
    assert max(vals) < 50.0


def test_phi_h_decays_off_cap(circle_grid):
    ex = Exponents(2.0, 1)
    Q = NonisotropicBall(E1, 0.3)
    z_far = np.array([-0.95 + 0j])
    big = phi_h(z_far, Q, 0.5, ex, circle_grid)
    small = phi_h(z_far, Q, 2.0 ** -7, ex, circle_grid)
    assert small < 0.05 * big

