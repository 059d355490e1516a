"""Cauchy and Poisson-type kernels on the unit ball, kernel norms, normalized
kernels, the window-averaged balayage function, boundary H^p norms of
test functions, and radial-limit extrapolation.

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
with the closed form as a fast path at p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BallPoint, NonisotropicBall, SpherePoint
from .quadrature import RadialRule, SphereGrid, integrate_window, sphere_sum

__all__ = ["Exponents", "TestFunction", "cauchy_kernel", "kernel_norm",
           "normalized_kernel", "poisson_kernel", "phi_h", "hp_norm",
           "boundary_radial_limit", "RadialLimit"]


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
    wc = _coords(w)
    if np.linalg.norm(wc) >= 1:
        raise ValueError("kernel pole w must be interior, |w| < 1")
    return wc


def cauchy_kernel(w, z) -> complex:
    """k_w(z) = (1 - <z, w>)^(-d); requires |w| < 1 so k_w is bounded."""
    return complex(cauchy_kernel_at(_pole(w), _coords(z)[None, :])[0])


def cauchy_kernel_at(w: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vectorized k_w over an (n, d) stack of points."""
    d = np.asarray(w).size
    return (1.0 - pts @ np.conj(w)) ** (-d)


def cauchy_modulus_p(t: np.ndarray, d: int, p: float, r=1.0) -> np.ndarray:
    """|k_w|^p = |1 - r t|^(-pd) at the points r z, from the inner products
    t = <z, w> (r a scalar or an array that broadcasts against t).

    Real arithmetic only: |1 - r t|^2 is taken as (1 - r Re t)^2 +
    (r Im t)^2, not as 1 - 2 r Re t + r^2 |t|^2, whose terms cancel near
    the pole.
    """
    x = 1.0 - r * t.real
    y = r * t.imag
    return (x * x + y * y) ** (-0.5 * p * d)


def _cauchy_modulus_p_into(t: np.ndarray, d: int, p: float, r: np.ndarray,
                           work: np.ndarray) -> np.ndarray:
    """cauchy_modulus_p(t, d, p, r) written into work, a float (2, R, n)
    buffer, with no temporaries, for n inner products t and radii r of
    shape (R, n) (or any shape that broadcasts to it); returns the (R, n)
    view of work that holds it.

    Each t is copied across the rows before r multiplies it, because numpy
    multiplies two (R, n) arrays faster than it broadcasts t against r.
    When pd/2 is an integer k the power is a reciprocal and k - 1
    multiplies, within a few ulps of cauchy_modulus_p; otherwise it is the
    same np.power, and the values have its bits.
    """
    s, y = work
    np.copyto(s, t.real)
    np.multiply(s, r, out=s)
    np.subtract(1.0, s, out=s)
    np.square(s, out=s)
    np.copyto(y, t.imag)
    np.multiply(y, r, out=y)
    np.square(y, out=y)
    np.add(s, y, out=s)
    e = 0.5 * p * d
    if not e.is_integer():
        return np.power(s, -e, out=s)
    inv = np.reciprocal(s, out=y)
    if e == 1:
        return inv
    np.multiply(inv, inv, out=s)
    for _ in range(int(e) - 2):
        np.multiply(s, inv, out=s)
    return s


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

    def __post_init__(self):
        for _, w in self.kernel_terms:
            _pole(w)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=complex))
        out = np.zeros(len(pts), dtype=complex)
        for c, w in self.kernel_terms:
            out += c * cauchy_kernel_at(np.asarray(w), pts)
        return _add_poly(out, self.poly_terms, pts)

    def scaled(self, c: complex) -> "TestFunction":
        return TestFunction(
            self.d,
            tuple((c * cj, w) for cj, w in self.kernel_terms),
            tuple((c * cj, a) for cj, a in self.poly_terms))


def _add_poly(out: np.ndarray, terms, pts: np.ndarray) -> np.ndarray:
    """out plus sum_j c_j z^alpha_j at an (n, d) stack of points, added term
    by term: the polynomial evaluator of test functions and symbols."""
    for c, alpha in terms:
        term = np.full(len(pts), complex(c))
        for k, a in enumerate(alpha):
            if a:
                term = term * pts[:, k] ** a
        out += term
    return out


def kernel_norm(w, exponents: Exponents, grid: SphereGrid | None = None) -> float:
    """H^p norm of the Cauchy kernel k_w.

    Without a grid, returns the closed form (1-|w|^2)^(-d/q) (exact at p = 2).
    With a grid, returns the boundary quadrature value (integral of |k_w|^p)^(1/p).
    """
    wc = _pole(w)
    a = np.linalg.norm(wc)
    if grid is None:
        return float((1.0 - a * a) ** (-exponents.d / exponents.q))
    p = exponents.p
    return _lp_norm(np.abs(cauchy_kernel_at(wc, grid.nodes)) ** p, p, grid)


def _lp_norm(vals, p: float, grid: SphereGrid) -> float:
    """(integral of |f|^p against sigma)^(1/p) from vals = |f|^p on the
    grid's nodes; every boundary L^p norm here is taken by this one sum."""
    return float(np.real(sphere_sum(grid, vals))) ** (1.0 / p)


def normalized_kernel(w, exponents: Exponents,
                      grid: SphereGrid | None = None) -> TestFunction:
    """K_w = k_w / ||k_w||_p with unit H^p norm.

    At p = 2 the closed form is the exact norm; otherwise a grid is required
    so the normalization is genuine.
    """
    if abs(exponents.p - 2.0) < 1e-12:
        nrm = kernel_norm(w, exponents)
    else:
        if grid is None:
            raise ValueError("p != 2 needs a quadrature grid for the norm")
        nrm = kernel_norm(w, exponents, grid)
    wc = _coords(w)
    return TestFunction(exponents.d, kernel_terms=((1.0 / nrm, wc),))


def poisson_kernel(w, xi) -> float:
    """(1 - |w|^2)^d / |1 - <w, xi>|^(2d), the invariant Poisson-type kernel."""
    return float(poisson_kernel_at(_pole(w), _coords(xi)[None, :])[0])


def poisson_kernel_at(w: np.ndarray, pts: np.ndarray) -> np.ndarray:
    d = np.asarray(w).size
    a2 = float(np.linalg.norm(w)) ** 2
    return (1.0 - a2) ** d / np.abs(1.0 - pts @ np.conj(w)) ** (2 * d)


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
                / np.abs(1.0 - pts @ np.conj(zc)) ** (p * d))

    return float(np.real(integrate_window(f, S, grid, radial))) / h


def hp_norm(f, exponents: Exponents, grid: SphereGrid) -> float:
    """Boundary L^p norm; equals the H^p norm for boundary-continuous f."""
    p = exponents.p
    return _lp_norm(np.abs(f(grid.nodes)) ** p, p, grid)


@dataclass(frozen=True)
class RadialLimit:
    value: complex | None
    diverged: bool


def boundary_radial_limit(f, zeta: SpherePoint, k_max: int = 40,
                          tol: float = 1e-7) -> RadialLimit:
    """Limit of f(r * zeta) along r_k = 1 - 2^(-k).

    Returns the extrapolated value once the tail is Cauchy within tol; a
    divergence flag (not an exception) otherwise.
    """
    zc = zeta.coords
    prev = None
    stable = 0
    for k in range(1, k_max + 1):
        r = 1.0 - 2.0 ** (-k)
        val = complex(np.asarray(f((r * zc)[None, :]))[0])
        if not np.isfinite(val.real) or not np.isfinite(val.imag):
            return RadialLimit(None, True)
        if prev is not None:
            scale = max(1.0, abs(val))
            if abs(val - prev) <= tol * scale:
                stable += 1
                if stable >= 2:
                    return RadialLimit(val, False)
            else:
                stable = 0
        prev = val
    return RadialLimit(None, True)
