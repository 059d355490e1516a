"""Points, the nonisotropic quasi-metric on the unit sphere of C^d, its balls,
Carleson windows, cap surface measure, and greedy maximal packings.

Conventions: the inner product is <a, b> = sum_k a_k * conj(b_k).  A
nonisotropic ball is parameterized by delta acting on |1 - <center, xi>|
directly (not on its square root); the metric rho = |1 - <.,.>|^(1/2) is
exposed separately.  Dilation scales delta: r * Q(c, delta) = Q(c, r*delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import integrate

TOL = 1e-12

__all__ = [
    "BallPoint",
    "SpherePoint",
    "NonisotropicBall",
    "CarlesonWindow",
    "niso_distance",
    "ball_contains",
    "window_contains",
    "scale_ball",
    "sigma_of_ball",
    "greedy_packing",
    "sample_sphere",
    "sample_cap",
]


def _as_coords(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=complex).reshape(-1)
    if arr.size < 1:
        raise ValueError("need at least one coordinate")
    return arr


@dataclass(frozen=True)
class BallPoint:
    """A point of the closed unit ball of C^d."""

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_coords(self.coords)
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)
        if self.norm > 1 + TOL:
            raise ValueError(f"point has norm {self.norm} > 1")

    @property
    def d(self) -> int:
        return self.coords.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    @property
    def is_interior(self) -> bool:
        return self.norm < 1 - TOL


@dataclass(frozen=True)
class SpherePoint:
    """A point of the unit sphere S^{2d-1} in C^d."""

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_coords(self.coords)
        n = np.linalg.norm(arr)
        if abs(n - 1.0) > 1e-10:
            raise ValueError(f"not a unit vector (norm {n})")
        arr = arr / n
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def d(self) -> int:
        return self.coords.size

    def as_ball_point(self) -> BallPoint:
        return BallPoint(self.coords)


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.sum(np.asarray(a) * np.conj(np.asarray(b))))


def niso_gap(center: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """|1 - <center, pts_i>| for a stack of points, vectorized."""
    pts = np.atleast_2d(pts)
    return np.abs(1.0 - pts @ np.conj(np.asarray(center)))


@dataclass(frozen=True)
class NonisotropicBall:
    """Q(center, delta) = {xi on the sphere : |1 - <center, xi>| <= delta}."""

    center: SpherePoint
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta <= 2.0 + TOL:
            raise ValueError(f"delta must lie in (0, 2], got {self.delta}")

    @property
    def d(self) -> int:
        return self.center.d

    def contains_coords(self, pts: np.ndarray) -> np.ndarray:
        return niso_gap(self.center.coords, pts) <= self.delta + TOL


@dataclass(frozen=True)
class CarlesonWindow:
    """Radial shell of depth h over a spherical cap.

    closed_outer selects between |z| <= 1 (default) and the open variant
    |z| < 1 used in part of the theory.
    """

    ball: NonisotropicBall
    depth: float
    closed_outer: bool = True

    def __post_init__(self):
        if not 0.0 < self.depth <= 1.0 + TOL:
            raise ValueError(f"depth must lie in (0, 1], got {self.depth}")

    @property
    def d(self) -> int:
        return self.ball.d

    def contains_coords(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts, axis=1)
        ok_outer = r <= 1 + TOL if self.closed_outer else r < 1 - TOL
        radial = (r >= 1 - self.depth - TOL) & ok_outer
        mask = radial & (r > 0)
        out = np.zeros(len(pts), dtype=bool)
        if mask.any():
            proj = pts[mask] / r[mask, None]
            out[mask] = self.ball.contains_coords(proj)
        if self.depth >= 1 - TOL:
            # origin belongs to the full-depth window by convention
            out |= radial & (r == 0)
        return out


def niso_distance(a: SpherePoint, b: SpherePoint) -> float:
    """The nonisotropic metric |1 - <a, b>|^(1/2); values lie in [0, sqrt(2)]."""
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    return math.sqrt(abs(1.0 - inner(a.coords, b.coords)))


def ball_contains(Q: NonisotropicBall, xi: SpherePoint) -> bool:
    return bool(Q.contains_coords(xi.coords[None, :])[0])


def window_contains(S: CarlesonWindow, z: BallPoint) -> bool:
    """Membership in the shell; z = 0 is outside every window of depth < 1."""
    return bool(S.contains_coords(z.coords[None, :])[0])


def scale_ball(Q: NonisotropicBall, r: float) -> NonisotropicBall:
    """Dilation r*Q = Q(center, r*delta), radius clamped at 2 (full sphere)."""
    if r <= 0:
        raise ValueError("scale factor must be positive")
    return replace(Q, delta=min(r * Q.delta, 2.0))


def _inner_product_density(w2: float, d: int) -> float:
    # density of <zeta, e1> on the unit disk for zeta uniform on S^{2d-1}
    return (d - 1) / math.pi * (1.0 - w2) ** (d - 2)


@lru_cache(maxsize=4096)
def _sigma_cached(delta: float, d: int) -> float:
    if d == 1:
        return (2.0 / math.pi) * math.asin(min(delta, 2.0) / 2.0)
    if delta >= 2.0:
        return 1.0

    # integrate the density of w = <zeta, e1> over {|1 - w| <= delta, |w| <= 1}
    def ymax(x: float) -> float:
        return min(math.sqrt(max(0.0, 1 - x * x)),
                   math.sqrt(max(0.0, delta * delta - (1 - x) ** 2)))

    def integrand(y: float, x: float) -> float:
        return _inner_product_density(x * x + y * y, d)

    x_lo = max(-1.0, 1.0 - delta)
    val, _ = integrate.dblquad(integrand, x_lo, 1.0,
                               lambda x: 0.0, ymax, epsabs=1e-11, epsrel=1e-10)
    return 2.0 * val


def sigma_of_ball(delta: float, d: int) -> float:
    """Normalized surface measure of Q(center, delta); center-independent.

    d = 1 uses the closed-form arc length (2/pi) asin(delta/2); d >= 2
    integrates the inner-product density over a disk region numerically.
    """
    if not 0.0 < delta <= 2.0 + TOL:
        raise ValueError(f"delta must lie in (0, 2], got {delta}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _sigma_cached(round(min(delta, 2.0), 14), d)


def sample_sphere(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on S^{2d-1}, as an (n, d) complex array."""
    # one row-contiguous draw so the first n points of a larger draw from the
    # same generator state coincide (nested refinement relies on this)
    g = rng.standard_normal((n, 2 * d))
    z = g[:, :d] + 1j * g[:, d:]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sample_cap(Q: NonisotropicBall, n: int, rng: np.random.Generator,
               max_tries: int = 400) -> np.ndarray:
    """n uniform points of the cap Q by rejection from the sphere."""
    d = Q.d
    out = []
    got = 0
    batch = max(4 * n, 4096)
    for _ in range(max_tries):
        pts = sample_sphere(d, batch, rng)
        pts = pts[Q.contains_coords(pts)]
        if len(pts):
            out.append(pts)
            got += len(pts)
        if got >= n:
            break
    else:
        raise RuntimeError(f"cap sampling failed for delta={Q.delta}")
    return np.concatenate(out)[:n]


# pairs per block of the batched overlap test, whose arrays hold one value
# per pair and grid node: under 5 MiB each at this size
_OVERLAP_BLOCK = 256


class _OverlapGrid(NamedTuple):
    """Nodes t = 1 - r e^{ia} of the lens {|1 - t| <= h, |t| <= 1}."""

    t: np.ndarray
    sqrt_term: np.ndarray   # sqrt(1 - |t|^2)
    r: np.ndarray           # |1 - t|
    a: np.ndarray           # arg(1 - t)


def _overlap_grid(h: float, n: int = 48) -> _OverlapGrid:
    r = np.linspace(0.0, h, n)
    th = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    t = 1.0 - (r[:, None] * np.exp(1j * th[None, :])).ravel()
    t = t[np.abs(t) <= 1.0]
    one_minus_t = 1.0 - t
    # math.atan2 per node: np.arctan2 may differ in the last ulp, which would
    # move the polish windows away from those of the scalar reference test
    return _OverlapGrid(
        t, np.sqrt(np.clip(1.0 - np.abs(t) ** 2, 0.0, None)),
        np.hypot(one_minus_t.real, one_minus_t.imag),
        np.array([math.atan2(u.imag, u.real) for u in one_minus_t]))


def _caps_overlap(beta: np.ndarray, h: float,
                  grid: _OverlapGrid) -> np.ndarray:
    """Whether caps of radius h at inner products beta = <b, a> meet.

    After a unitary sending a to e1, a common point exists iff some t in the
    lens {|1 - t| <= h, |t| <= 1} has
      |1 - b1 * t| - s * sqrt(1 - |t|^2) <= h,   b1 = beta, s = sqrt(1 - |b1|^2).
    Returns one bool per pair.
    """
    # np.hypot rounds as abs() of a complex scalar does; np.abs may differ
    # in the last ulp
    s = np.sqrt(np.maximum(0.0, 1.0 - np.hypot(beta.real, beta.imag) ** 2))
    out = np.zeros(len(beta), dtype=bool)
    line = s <= 1e-9
    if line.any():
        # both centers on the same complex line (always the case for d = 1):
        # arcs of half-angle 2 asin(h/2) overlap iff the angular separation
        # is at most twice that, and the closed caps touch at equality
        theta_h = 2.0 * math.asin(min(h / 2.0, 1.0))
        bound = 2.0 * theta_h + TOL
        bl = beta[line]
        ang = np.abs(np.arctan2(bl.imag, bl.real))
        # np.arctan2 may differ from math.atan2 in the last ulp, so the
        # angles that close to the bound are settled by math.atan2
        near = np.flatnonzero(np.abs(ang - bound) <= 1e-13)
        ang[near] = [abs(math.atan2(b.imag, b.real)) for b in bl[near]]
        out[line] = ang <= bound
    rest = np.flatnonzero(~line)
    for lo in range(0, len(rest), _OVERLAP_BLOCK):
        idx = rest[lo:lo + _OVERLAP_BLOCK]
        out[idx] = _caps_overlap_block(beta[idx], s[idx], h, grid)
    return out


def _caps_overlap_block(beta: np.ndarray, s: np.ndarray, h: float,
                        grid: _OverlapGrid) -> np.ndarray:
    lhs = np.abs(1.0 - beta[:, None] * grid.t[None, :])
    rhs = h + s[:, None] * grid.sqrt_term[None, :]
    out = (lhs <= rhs + TOL).any(axis=1)
    # the grid can miss a marginal tangency; polish from the best grid point,
    # but only when the margin is below the grid's resolution error (the
    # objective is Lipschitz ~ 1 + s/sqrt(2h) on the grid scale h/48)
    gap = lhs - rhs
    best = gap.min(axis=1)
    margin = 0.5 * (h / 48.0) * (1.0 + s / math.sqrt(2.0 * h)) * 2.0 * math.pi
    unsure = np.flatnonzero(~out & (best <= margin))
    k0 = gap[unsure].argmin(axis=1)
    r0, a0 = grid.r[k0], grid.a[k0]
    beta, s, best = beta[unsure], s[unsure], best[unsure]
    rad_w, ang_w = h / 48.0, 2.0 * math.pi / 48.0
    # each of six rounds samples a 33 x 33 polar patch around the best point
    # so far and shrinks it four-fold: the last samples at 1/16384 of the
    # grid spacing, in radius and in angle
    for _ in range(6):
        if not len(unsure):
            break
        rr = np.clip(np.linspace(r0 - rad_w, r0 + rad_w, 33, axis=1), 0.0, h)
        aa = np.linspace(a0 - ang_w, a0 + ang_w, 33, axis=1)
        t = 1.0 - rr[:, :, None] * np.exp(1j * aa[:, None, :])
        abs_t = np.abs(t)
        f = np.where(
            abs_t <= 1.0,
            np.abs(1.0 - beta[:, None, None] * t)
            - s[:, None, None] * np.sqrt(np.clip(1.0 - abs_t ** 2, 0.0, None))
            - h,
            np.inf).reshape(len(unsure), -1)
        k = f.argmin(axis=1)
        best = np.minimum(best, f[np.arange(len(k)), k])
        hit = best <= TOL
        out[unsure[hit]] = True
        keep = ~hit
        i, j = np.divmod(k[keep], 33)
        sel = np.flatnonzero(keep)
        r0, a0 = rr[sel, i], aa[sel, j]
        unsure, beta, s, best = unsure[keep], beta[keep], s[keep], best[keep]
        rad_w /= 4.0
        ang_w /= 4.0
    return out


def _candidate_centers(Q: NonisotropicBall, h: float, seed: int) -> np.ndarray:
    """Quasi-uniform candidate grid on 2Q with nonisotropic spacing ~h/4."""
    d = Q.d
    c = Q.center.coords
    delta2 = min(2.0 * Q.delta, 2.0)
    if d == 1:
        theta0 = 2.0 * math.asin(min(delta2, 2.0) / 2.0)
        step = 2.0 * math.asin(min(h / 8.0, 1.0))
        k = max(int(math.ceil(theta0 / step)), 1)
        offs = np.arange(-k, k + 1) * step
        return (c[0] * np.exp(1j * offs))[:, None]
    # d >= 2: seeded quasi-uniform sample of 2Q, dense at scale h/4
    rng = np.random.default_rng(seed)
    n_cells = (delta2 / (h / 4.0)) ** d
    n = int(min(20000, max(2000, 8 * n_cells)))
    twoQ = NonisotropicBall(Q.center, delta2)
    return sample_cap(twoQ, n, rng)


@dataclass(frozen=True)
class PackingCertificate:
    """Grid-oracle evidence attached to a greedy packing.

    covered_fraction measures the doubled balls Q(c_j, 2h).  They cover Q in
    d = 1, where |1 - <.,.>| is itself a metric (the chordal distance); in
    d >= 2 only rho is a metric, and maximality yields the cover by
    Q(c_j, 4h), so this fraction may fall below one there.
    """

    disjoint: bool
    covered_fraction: float  # fraction of Q-grid points inside some Q(c_j, 2h)
    grid_size: int


def greedy_packing(Q: NonisotropicBall, h: float, seed: int = 0,
                   certificate_grid: int = 0):
    """Maximal family of disjoint balls Q_j(center_j, h) with centres in 2Q.

    First-fit greedy over a quasi-uniform candidate grid on 2Q, candidates
    ordered outward from the center of Q.  A candidate is admitted when it
    lies in Q, or when its ball lies in 2Q by the triangle inequality
    rho(c, center) + sqrt(h) <= sqrt(2 delta); that clause reaches beyond Q
    only when h <= (sqrt(2) - 1)^2 delta ~ 0.172 delta, and every ball lies
    in max(2, (1 + sqrt(h / delta))^2) Q, inside 4Q.  Rejection uses a
    grid-and-zoom cap-overlap test (a 48 x 48 polar grid of the lens of
    common points, polished when it is unsure), so the family is maximal
    with respect to disjointness among the candidates as that test sees it.

    The scan is a sweep: the first candidate still alive is admitted, and
    every later alive candidate whose ball meets its ball is dropped (gap
    <= h at once, gap in (h, 4h] by the overlap test, batched).  This is
    first-fit: a candidate's fate depends only on the balls admitted before
    it in the fixed outward order, and the first alive candidate meets none
    of them, so it is exactly the one first-fit admits next.

    With certificate_grid > 0, a PackingCertificate over that many uniform
    points of Q (coverage by Q(c_j, 2h), pairwise disjointness) is attached.

    Covering: rho is a metric, so a candidate rejected for meeting Q(c_j, h)
    lies within rho <= 2 sqrt(h) of c_j, i.e. in Q(c_j, 4h).  Every centre
    of Q is a candidate, so this reaches all of Q up to the spacing of the
    candidate grid.  In d = 1 the gap itself is a metric and Q(c_j, 2h)
    suffices.

    Returns (balls, certificate_or_None).
    """
    if h >= Q.delta:
        raise ValueError("packing radius h must be smaller than delta")
    if h <= 0:
        raise ValueError("packing radius h must be positive")
    cands = _candidate_centers(Q, h, seed)
    if len(cands) == 0:
        raise RuntimeError("empty candidate grid")
    order = np.argsort(niso_gap(Q.center.coords, cands))
    cands = cands[order]

    # every centre of Q, and beyond Q the centres whose ball lies in 2Q by
    # the triangle inequality rho(c, center) + sqrt(h) <= sqrt(2 delta)
    gap_c = niso_gap(Q.center.coords, cands)
    budget = math.sqrt(min(2.0 * Q.delta, 2.0)) - math.sqrt(h)
    cands = cands[(np.sqrt(gap_c) <= budget + TOL) | (gap_c <= Q.delta + TOL)]

    grid = _overlap_grid(h)
    selected: list[np.ndarray] = []
    alive = cands
    while len(alive):
        zj = alive[0].copy()        # a view would keep all of alive
        selected.append(zj)
        alive = alive[1:]
        ip = (alive * np.conj(zj)).sum(axis=1)
        one_minus = 1.0 - ip
        gap = np.hypot(one_minus.real, one_minus.imag)    # see _caps_overlap
        meets = gap <= h                  # inside the ball of zj
        # beyond 4h the triangle inequality makes the caps disjoint
        band = np.flatnonzero(~meets & (gap <= 4.0 * h))
        meets[band] = _caps_overlap(ip[band], h, grid)
        alive = alive[~meets]
    if not selected:
        raise RuntimeError("greedy selection produced no balls")
    balls = [NonisotropicBall(SpherePoint(c), h) for c in selected]

    cert = None
    if certificate_grid > 0:
        rng = np.random.default_rng(seed + 1)
        grid = sample_cap(Q, certificate_grid, rng)
        centers = np.array(selected)
        gaps = np.abs(1.0 - grid @ np.conj(centers.T))
        member = gaps <= h + TOL
        disjoint = bool((member.sum(axis=1) <= 1).all())
        covered = float((gaps <= 2.0 * h + TOL).any(axis=1).mean())
        cert = PackingCertificate(disjoint, covered, certificate_grid)
    return balls, cert
