"""Cauchy and Poisson-type kernels on the unit ball, kernel norms, normalized
kernels, the window-averaged balayage function and boundary H^p norms of
test functions.

A note on the kernel-norm closed form (1-|w|^2)^(-d/q): it is an exact
identity for the boundary L^p norm of the Cauchy kernel only at p = 2.  For
p != 2 it is a two-sided estimate; the deviation factor of the p-th power is
the Gauss hypergeometric value F = 2F1(d - pd/2, d - pd/2; d; |w|^2) (Rudin,
Function Theory in the Unit Ball of C^n, Prop. 1.4.10, then Euler's
transformation), identically one exactly when pd/2 = d.  Its coefficients
are nonnegative, so F increases in |w| from 1 to Gauss's value at |w| = 1:

    1 <= ||k_w||_p / (1-|w|^2)^(-d/q)
      <= (Gamma(d) Gamma(pd - d) / Gamma(pd/2)^2)^(1/p),

with equality at p = 2.  kernel_norm exposes both the closed form and the
quadrature value; normalization of kernels uses the true (quadrature) norm,
with the closed form as a fast path at p = 2.  _norm_factor gives F, from
scipy.special.hyp2f1, which it imports only when F is not identically one.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .geometry import BallPoint, NonisotropicBall, SpherePoint
from .quadrature import RadialRule, SphereGrid, integrate_window, sphere_sum

__all__ = ["Exponents", "TestFunction", "cauchy_kernel", "kernel_norm",
           "normalized_kernel", "phi_h", "hp_norm"]


@dataclass(frozen=True)
class Exponents:
    """Conjugate pair 1/p + 1/q = 1 with the ambient dimension."""

    p: float
    d: int
    q: float = field(init=False)

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError("p must lie in (1, infinity)")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "q", self.p / (self.p - 1.0))


def _coords(z) -> np.ndarray:
    if isinstance(z, (BallPoint, SpherePoint)):
        return z.coords
    return np.asarray(z, dtype=complex).reshape(-1)


def _pole(w) -> np.ndarray:
    """The coordinates of a kernel's pole w, which must be interior."""
    return _pole_modulus(w)[0]


def _pole_modulus(w) -> tuple[np.ndarray, float]:
    """(the coordinates of a kernel's pole w, |w|); w must be interior."""
    wc = _coords(w)
    a = _moduli(wc[None, :])[0]
    if a >= 1:
        raise ValueError("kernel pole w must be interior, |w| < 1")
    return wc, a


def _moduli(ws: np.ndarray) -> np.ndarray:
    """|w| for each row w of ws, with the bits of np.linalg.norm(w): the
    squares of the real and of the imaginary parts are each summed by one
    BLAS dot per row (np.vecdot), as norm sums them."""
    return np.sqrt(np.vecdot(ws.real, ws.real) + np.vecdot(ws.imag, ws.imag))


def cauchy_kernel(w, z) -> complex:
    """k_w(z) = (1 - <z, w>)^(-d); requires |w| < 1 so k_w is bounded."""
    return complex(cauchy_kernel_at(_pole(w), _coords(z)[None, :])[0])


def cauchy_kernel_at(w: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vectorized k_w over an (n, d) stack of points, by _inverse_power."""
    x = 1.0 - pts @ np.conj(w)
    return _inverse_power(x, np.asarray(w).size, x)


def _inverse_power(x: np.ndarray, k: int, inv=None, out=None) -> np.ndarray:
    """x^(-k), k >= 1 an integer, as a reciprocal (into inv) and k - 1
    multiplies (into out): within a few ulps of np.power, and faster."""
    inv = np.reciprocal(x, out=inv)
    out = inv if k == 1 else np.multiply(inv, inv, out=out)
    for _ in range(k - 2):
        np.multiply(out, inv, out=out)
    return out


def cauchy_modulus_p(t: np.ndarray, d: int, p: float, r=1.0) -> np.ndarray:
    """|k_w|^p = |1 - r t|^(-pd) at the points r z, from the inner products
    t = <z, w> (a 1-D array): of t's shape when r is a scalar, and with one
    row per radius when r is a 1-D array of them (see _modulus_rows)."""
    r1 = np.atleast_1d(r)
    out = _modulus_rows(np.ascontiguousarray(t.real),
                        np.ascontiguousarray(t.imag), d, p, r1,
                        np.empty((2, len(r1), len(t))))
    return out if np.ndim(r) else out[0]


def _modulus_rows(re: np.ndarray, im: np.ndarray, d: int, p: float,
                  r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|1 - r_j t|^(-pd) as row j for each radius r_j of the 1-D array r,
    from Re t and Im t (contiguous 1-D arrays): the one place this
    modulus is formed, as a view of out, two float arrays of a row per
    radius, with no temporaries.  Each row's products r_j Re t and r_j Im t
    are one scalar multiply each, which numpy takes faster on rows of a
    few thousand than a broadcast outer product.

    Real arithmetic only: |1 - r t|^2 is taken as (1 - r Re t)^2 +
    (r Im t)^2, not as 1 - 2 r Re t + r^2 |t|^2, whose terms cancel near
    the pole.  When pd/2 is an integer k the power is _inverse_power's,
    and np.power takes every other power.
    """
    s, y = out
    for x, srow, yrow in zip(r.tolist(), s, y):
        np.multiply(re, x, out=srow)
        np.multiply(im, x, out=yrow)
    np.subtract(1.0, s, out=s)
    np.square(s, out=s)
    np.square(y, out=y)
    np.add(s, y, out=s)
    e = 0.5 * p * d
    if not e.is_integer():
        return np.power(s, -e, out=s)
    return _inverse_power(s, int(e), y, s)


@dataclass(frozen=True)
class TestFunction:
    """Finite combination sum_j c_j k_{w_j} plus a polynomial part.

    Continuous on the closed ball by construction (all poles interior).
    kernel_terms: tuple of (coefficient, pole coords); poly_terms: tuple of
    (coefficient, multi-index) with z^alpha = prod z_k^alpha_k.
    """

    d: int
    kernel_terms: tuple = ()
    poly_terms: tuple = ()
    # True when the caller has checked every pole by _pole_modulus already
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked):
        if not _checked:
            for _, w in self.kernel_terms:
                _pole(w)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=complex))
        out = np.zeros(len(pts), dtype=complex)
        for c, w in self.kernel_terms:
            out += c * cauchy_kernel_at(np.asarray(w), pts)
        return _add_poly(out, self.poly_terms, pts)


def _add_poly(out: np.ndarray, terms, pts: np.ndarray) -> np.ndarray:
    """out plus sum_j c_j z^alpha_j at an (n, d) stack of points, added term
    by term: the polynomial evaluator of test functions and symbols.  Each
    complex product is one np.multiply, coefficient (a scalar) or term
    first, so a value has the same bits for any number of points: term * x
    may swap its operands by NumPy's temporary elision on 2^14 values or
    more, and term *= x rounds otherwise on one value."""
    for c, alpha in terms:
        term = complex(c)
        for k, a in enumerate(alpha):
            if a:
                term = np.multiply(term, pts[:, k] ** a)
        out += term
    return out


def _slice_norms2(f: TestFunction, r: np.ndarray) -> np.ndarray:
    """||f(r .)||^2_{H^2}, the integral of |f(r zeta)|^2 against sigma, at
    each radius of the array r, from the H^2 Gram form of f's terms: as
    k_w(r zeta) = k_{rw}(zeta) and (r zeta)^alpha = r^|alpha| zeta^alpha,
    <k_{ra}, k_{rb}> = (1 - r^2 <b, a>)^(-d) (the reproducing property),
    <k_{ra}, zeta^alpha> = conj((ra)^alpha), and the monomials are
    orthogonal with ||zeta^alpha||^2 = (d-1)! alpha! / (d-1+|alpha|)!
    (Rudin, Prop. 1.4.9)."""
    d, r2 = f.d, np.square(r)
    total = np.zeros(np.shape(r), dtype=complex)
    for cm, wm in f.kernel_terms:
        for cn, wn in f.kernel_terms:
            total += cm * np.conj(cn) * _inverse_power(
                1.0 - r2 * np.vdot(wm, wn), d)
        for b, alpha in f.poly_terms:
            wa = np.prod(np.asarray(wm) ** np.asarray(alpha))
            total += 2.0 * np.real(cm * np.conj(b * wa)) * r2 ** sum(alpha)
    for b, alpha in f.poly_terms:
        n = sum(alpha)
        size = math.factorial(d - 1) * math.prod(
            map(math.factorial, alpha)) / math.factorial(d - 1 + n)
        for b2, alpha2 in f.poly_terms:
            if tuple(alpha2) == tuple(alpha):
                total += b * np.conj(b2) * size * r2 ** n
    return np.real(total)


def kernel_norm(w, exponents: Exponents, grid: SphereGrid | None = None) -> float:
    """H^p norm of the Cauchy kernel k_w.

    Without a grid, returns the closed form (1-|w|^2)^(-d/q) (exact at p = 2).
    With a grid, returns the boundary quadrature value (integral of |k_w|^p)^(1/p).
    """
    wc, a = _pole_modulus(w)
    if grid is None:
        return _closed_norm(a, exponents)
    t, p = grid.nodes @ np.conj(wc), exponents.p
    return _lp_norm(cauchy_modulus_p(t, exponents.d, p), p, grid)


def _closed_norm(a, exponents: Exponents) -> float:
    """The closed form (1-|w|^2)^(-d/q) of ||k_w||_p at a = |w|."""
    return float((1.0 - a * a) ** (-exponents.d / exponents.q))


def _norm_factor(a2, exponents: Exponents):
    """F = 2F1(d - pd/2, d - pd/2; d; |w|^2) at a2 = |w|^2, a float, or
    an array of them for an array a2: the exact ||k_w||_p is the closed
    form times F^(1/p) (module docstring).  F is 1 when d - pd/2 = 0
    (p = 2), and scipy is imported only otherwise."""
    d = exponents.d
    e = d - exponents.p * d / 2
    if e == 0:
        return 1.0
    from scipy.special import hyp2f1
    F = hyp2f1(e, e, d, a2)
    return F if np.ndim(F) else float(F)


def _norms_p(a2: np.ndarray, exponents: Exponents) -> np.ndarray:
    """The exact ||k_w||_p^p at each |w|^2 of the array a2: the p-th power
    (1-|w|^2)^(-d(p-1)) of _closed_norm's closed form times _norm_factor's
    F, elementwise."""
    d, p = exponents.d, exponents.p
    return (1.0 - a2) ** (-d * (p - 1.0)) * _norm_factor(a2, exponents)


def _lp_norm(vals, p: float, grid: SphereGrid) -> float:
    """(integral of |f|^p against sigma)^(1/p) from vals = |f|^p on the
    grid's nodes, by sphere_sum: the norms of kernel_norm, hp_norm and the
    witness functions.  _NodeTable.ray_pass takes G = integral of
    |k_w|^p by np.dot with the weights instead, whose last bits differ."""
    return float(np.real(sphere_sum(grid, vals))) ** (1.0 / p)


def normalized_kernel(w, exponents: Exponents,
                      grid: SphereGrid | None = None) -> TestFunction:
    """K_w = k_w / ||k_w||_p with unit H^p norm.

    At p = 2 the closed form is the exact norm; otherwise a grid is required
    so the normalization is genuine.
    """
    exact = abs(exponents.p - 2.0) < 1e-12
    if not exact and grid is None:
        raise ValueError("p != 2 needs a quadrature grid for the norm")
    nrm = kernel_norm(w, exponents, None if exact else grid)
    wc = _coords(w)
    return TestFunction(exponents.d, kernel_terms=((1.0 / nrm, wc),))


def poisson_kernel_at(w: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(1 - |w|^2)^d / |1 - <pts_i, w>|^(2d), the invariant Poisson-type
    kernel, over an (n, d) stack of points."""
    d = np.asarray(w).size
    a2 = float(np.linalg.norm(w)) ** 2
    return (1.0 - a2) ** d * cauchy_modulus_p(pts @ np.conj(w), d, 2.0)


def phi_h(z, Q: NonisotropicBall, h: float, exponents: Exponents,
          grid: SphereGrid, radial: RadialRule | None = None) -> float:
    """Window-averaged kernel mass
    (1/h) * integral over S_{Q,h} of (1-|w|^2)^(pd-d) / |1-<z,w>|^(pd) dnu(w).

    The value is reported under the unit-ball volume normalization; only its
    uniformity in h and its decay off Q are meaningful, not the constant.
    For z off the closed cap Q, the weight (1-|w|^2)^(pd-d) <= (2h)^(pd-d)
    on S_{Q,h} makes the value of order h^(pd-d) as h -> 0; the constant of
    that order depends on z.
    """
    from .geometry import CarlesonWindow
    from .quadrature import radial_rule
    if not 0.0 < h <= 1.0:
        raise ValueError("h must lie in (0, 1]")
    zc = _coords(z)
    p, d = exponents.p, exponents.d
    if radial is None or abs(radial.depth - h) > 1e-12:
        radial = radial_rule(d, 32 if radial is None else radial.resolution, h)
    S = CarlesonWindow(Q, h)

    def f(pts):
        r2 = np.sum(np.abs(pts) ** 2, axis=1)
        return ((1.0 - r2) ** (p * d - d)
                * cauchy_modulus_p(pts @ np.conj(zc), d, p))

    return float(np.real(integrate_window(f, S, grid, radial))) / h


def hp_norm(f, exponents: Exponents, grid: SphereGrid) -> float:
    """Boundary L^p norm; equals the H^p norm for boundary-continuous f."""
    p = exponents.p
    return _lp_norm(np.abs(f(grid.nodes)) ** p, p, grid)
