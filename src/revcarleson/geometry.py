"""Points, the nonisotropic quasi-metric on the unit sphere of C^d, its balls,
Carleson windows, cap surface measure, and greedy maximal packings.

Conventions: the inner product is <a, b> = sum_k a_k * conj(b_k).  A
nonisotropic ball is parameterized by delta acting on |1 - <center, xi>|
directly (not on its square root); the metric rho = |1 - <.,.>|^(1/2) is
the square root of niso_gap.  Carleson windows are outer-closed, |z| <= 1,
since the measures live on the closed ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-12

__all__ = [
    "BallPoint",
    "SpherePoint",
    "NonisotropicBall",
    "CarlesonWindow",
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
    """Radial shell 1 - h <= |z| <= 1 of depth h over a spherical cap;
    z = 0 lies only in the window of depth 1."""

    ball: NonisotropicBall
    depth: float

    def __post_init__(self):
        if not 0.0 < self.depth <= 1.0 + TOL:
            raise ValueError(f"depth must lie in (0, 1], got {self.depth}")

    def contains_coords(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts, axis=1)
        radial = (r >= 1 - self.depth - TOL) & (r <= 1 + TOL)
        mask = radial & (r > 0)
        out = np.zeros(len(pts), dtype=bool)
        if mask.any():
            proj = pts[mask] / r[mask, None]
            out[mask] = self.ball.contains_coords(proj)
        if self.depth >= 1 - TOL:
            # origin belongs to the full-depth window by convention
            out |= radial & (r == 0)
        return out


# Gauss-Legendre nodes and weights on [-1, 1] for sigma_of_ball's two pieces
_SIGMA_X, _SIGMA_W = np.polynomial.legendre.leggauss(24)


def sigma_of_ball(delta: float, d: int) -> float:
    """Normalized surface measure of Q(center, delta); center-independent.

    d = 1: the arc length (2/pi) asin(delta/2).  d >= 2: t = <zeta, c> has
    the density (d-1)/pi (1 - |t|^2)^(d-2) on the unit disc; with t = 1 -
    rho e^(i theta), 1 - |t|^2 = rho (2 cos theta - rho), and rho =
    2 cos theta u gives the exact inner integral

      sigma(Q) = (2(d-1)/pi) int_0^(pi/2) (2 cos theta)^(2d-2)
                 P(min(1, delta / (2 cos theta))) d theta,
      P(U) = int_0^U u^(d-1) (1-u)^(d-2) du
           = sum_k C(d-2, k) (-1)^k U^(d+k) / (d+k),  k = 0..d-2.

    The theta-integral is split at theta0 = arccos(delta/2), where the min
    switches, and each piece takes 24 Gauss-Legendre nodes: on [0, theta0)
    the integrand is sum_k C(d-2, k) (-1)^k delta^(d+k)
    (2 cos theta)^(d-2-k) / (d+k), on [theta0, pi/2] it is
    P(1) (2 cos theta)^(2d-2).
    """
    if not 0.0 < delta <= 2.0 + TOL:
        raise ValueError(f"delta must lie in (0, 2], got {delta}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    delta = min(delta, 2.0)
    if d == 1:
        return (2.0 / math.pi) * math.asin(delta / 2.0)
    if delta >= 2.0:
        return 1.0
    k = np.arange(d - 1)
    coef = np.array([math.comb(d - 2, j) * (-1) ** j / (d + j)
                     for j in range(d - 1)])
    theta0 = math.acos(delta / 2.0)

    def two_cos(a: float, b: float):
        # 2 cos theta at the Gauss-Legendre nodes of [a, b], and the weights
        return (2.0 * np.cos(0.5 * (b - a) * _SIGMA_X + 0.5 * (b + a)),
                0.5 * (b - a) * _SIGMA_W)

    c, w = two_cos(0.0, theta0)
    inner = np.dot(w, (coef * delta ** (d + k)
                       * c[:, None] ** (d - 2 - k)).sum(axis=1))
    c, w = two_cos(theta0, 0.5 * math.pi)
    outer = coef.sum() * np.dot(w, c ** (2 * d - 2))
    return float(2.0 * (d - 1) / math.pi * (inner + outer))


def sample_sphere(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on S^{2d-1}, as an (n, d) complex array."""
    # one row-contiguous draw so the first n points of a larger draw from the
    # same generator state coincide (nested refinement relies on this)
    g = rng.standard_normal((n, 2 * d))
    z = g[:, :d] + 1j * g[:, d:]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sample_cap(Q: NonisotropicBall, n: int,
               rng: np.random.Generator) -> np.ndarray:
    """n uniform points of the cap Q, an (n, d) complex array.

    d = 1: a uniform angle on the arc |theta| <= 2 asin(delta/2) about c.
    d >= 2: t = <zeta, c> has the density (d-1)/pi (1 - |t|^2)^(d-2) and,
    given t, zeta is uniform on the sphere of radius sqrt(1 - |t|^2) in the
    complement of c (Rudin, Function Theory in the Unit Ball of C^n, 1.4).
    t is drawn uniform on the disc |1 - t| <= delta, kept if |t| <= 1 and
    thinned by ((1 - |t|^2) / m)^(d-2), m = max 1 - |t|^2 on that lens.
    """
    c, d, delta = Q.center.coords, Q.d, min(Q.delta, 2.0)
    if d == 1:
        half = 2.0 * math.asin(delta / 2.0)
        return (c[0] * np.exp(1j * rng.uniform(-half, half, n)))[:, None]
    m = 1.0 - max(0.0, 1.0 - delta) ** 2
    t, w, k = np.empty(n, dtype=complex), np.empty(n), 0
    while k < n:
        r, a, u = rng.random((3, 2 * (n - k) + 16))
        prop = 1.0 - delta * np.sqrt(r) * np.exp(2j * math.pi * a)
        wp = 1.0 - (prop.real ** 2 + prop.imag ** 2)
        keep = np.flatnonzero(
            (wp >= 0.0) & (u * m ** (d - 2) <= wp ** (d - 2)))[:n - k]
        t[k:k + len(keep)], w[k:k + len(keep)] = prop[keep], wp[keep]
        k += len(keep)
    # the columns of a unitary with first column parallel to c, c excluded
    perp = np.linalg.qr(c[:, None], mode="complete")[0][:, 1:]
    fibre = np.sqrt(w[:, None]) * sample_sphere(d - 1, n, rng)
    return t[:, None] * c[None, :] + fibre @ perp.T


def _caps_overlap(beta: np.ndarray, h: float, one_line=False) -> np.ndarray:
    """Whether caps of radius h at inner products beta = <b, a> meet.

    After a unitary sending a to e1, a common point exists iff some t in the
    lens L = {|1 - t| <= h, |t| <= 1} has
      F(t) = |1 - b1 * t| - s * sqrt(1 - |t|^2) <= h,
    b1 = beta, s = sqrt(1 - |b1|^2).  For |1 - beta| > h, F is least over L
    on its circular edge: F >= 0 on the unit disc, as |1 - beta t| >=
    1 - |beta t| >= s sqrt(1 - |t|^2) (Cauchy-Schwarz), and 0 only at
    conj(beta), outside L; F is convex, so it falls from any t of L towards
    conj(beta); on the rim |t| = 1, grad F is infinite and outward.
    Returns one bool per pair.  one_line: all pairs lie on one complex line
    (d = 1; there |beta| may round to give s ~ 1.5e-8, not 0).
    """
    # np.hypot rounds as abs() of a complex scalar does; np.abs may differ
    # in the last ulp
    s = np.sqrt(np.maximum(0.0, 1.0 - np.hypot(beta.real, beta.imag) ** 2))
    out = np.zeros(len(beta), dtype=bool)
    line = (s <= 1e-9) | one_line
    if line.any():
        # both centers on the same complex line: arcs of half-angle
        # 2 asin(h/2) overlap iff the angular separation is at most twice
        # that, and the closed caps touch at equality
        theta_h = 2.0 * math.asin(min(h / 2.0, 1.0))
        bound = 2.0 * theta_h + TOL
        bl = beta[line]
        ang = np.abs(np.arctan2(bl.imag, bl.real))
        # np.arctan2 may differ from math.atan2 in the last ulp, so the
        # angles that close to the bound are settled by math.atan2
        near = np.flatnonzero(np.abs(ang - bound) <= 1e-13)
        ang[near] = [abs(math.atan2(b.imag, b.real)) for b in bl[near]]
        out[line] = ang <= bound
    if not line.all():
        out[~line] = _lens_minimum(beta[~line], s[~line], h)[0]
    return out


def _lens_objective(t, beta, s):
    """F(t) and grad F."""
    u = 1.0 - beta * t
    au = np.hypot(u.real, u.imag)
    w = np.sqrt(1.0 - (t.real ** 2 + t.imag ** 2))
    return au - s * w, s * t / w - np.conj(beta) * u / au


def _lens_lmo(g: np.ndarray, h: float) -> np.ndarray:
    """argmin_{v in L} Re(conj(g) v): the minimiser over the disc about 1 if
    in the unit disc, else over the unit disc if in the disc about 1, else
    the better corner of L."""
    gn = g / np.maximum(np.abs(g), np.finfo(float).tiny)
    v = 1.0 - h * gn
    out = np.abs(v) > 1.0
    a = np.copysign(2.0 * math.asin(min(h / 2.0, 1.0)), gn[out].imag)
    v[out] = np.where(np.abs(1.0 + gn[out]) <= h, -gn[out], np.exp(-1j * a))
    return v


def _lens_minimum(beta: np.ndarray, s: np.ndarray, h: float):
    """Certified test of min_{t in L} F(t) <= h + TOL per pair (s > 0).

    A pair at gap |1 - beta| <= h meets at t = conj(beta), where F = 0.  Any
    other is searched on L's circular edge (_caps_overlap): t = 1 - h z,
    z = e^{i psi}, |psi| < acos(h/2), F = sqrt(A + Re(c z)) - s sqrt(2h Re z
    - h^2), A = |1 - beta|^2 + |beta|^2 h^2, c = 2h conj(1 - beta) beta.  A
    scan of 16 cell midpoints brackets the minimum between the best one's
    neighbours; Newton steps in psi follow, safeguarded by bisection.  Each
    iterate gives a witness t at |1 - t| = h - 2^-47, in L after rounding:
    the pair meets once F(t) <= h + TOL and is disjoint once the Frank-Wolfe
    bound F(t) + min_{v in L} Re(conj(grad F(t)) (v - t)) exceeds h + TOL.
    Once psi has converged to rounding, a tie (F(t) - bound <= TOL) goes
    by F(t) <= h + TOL, as does any pair after 40 steps.  Returns (meets, t).
    """
    gap = np.hypot(1.0 - beta.real, beta.imag)
    meets, t_out, idx = gap <= h, np.conj(beta), np.flatnonzero(gap > h)
    beta, s, gap = beta[idx], s[idx], gap[idx]
    A, c = gap ** 2 + h * h * (1.0 - s * s), 2.0 * h * (beta - (1.0 - s * s))
    # the arc's ends, then the midpoints of its 16 cells
    grid = math.acos(h / 2.0) / 16.0 * np.arange(-17, 18, 2).clip(-16, 16)
    cg, sg = np.cos(grid[1:-1]), np.sin(grid[1:-1])
    f = np.sqrt(A[:, None] + c.real[:, None] * cg - c.imag[:, None] * sg)
    k = np.argmin(f - s[:, None] * np.sqrt(2.0 * h * cg - h * h), axis=1)
    psi, lo, hi, conv = grid[k + 1], grid[k], grid[k + 2], False
    for _ in range(40):
        z = np.exp(1j * psi)
        t = 1.0 - (h - 2.0 ** -47) * z
        f, g = _lens_objective(t, beta, s)
        lb = f + (np.conj(g) * (_lens_lmo(g, h) - t)).real
        t_out[idx], meets[idx] = t, f <= h + TOL
        go = ~(meets[idx] | (lb > h + TOL) | conv & (f - lb <= TOL))
        if not go.any():
            break
        idx, beta, s, A, c = idx[go], beta[go], s[go], A[go], c[go]
        psi, lo, hi, z = psi[go], lo[go], hi[go], z[go]
        # dF/dpsi and d2F/dpsi2 from Phi = A + Re(c z), G = 2h Re z - h^2
        cz, G = c * z, 2.0 * h * z.real - h * h
        rp, rg = np.sqrt(A + cz.real), np.sqrt(G)
        d1 = s * h * z.imag / rg - cz.imag / (2.0 * rp)
        d2 = (s * h * (z.real + h * z.imag ** 2 / G) / rg
              - (cz.real + cz.imag ** 2 / (2.0 * rp * rp)) / (2.0 * rp))
        lo, hi = np.where(d1 < 0.0, psi, lo), np.where(d1 > 0.0, psi, hi)
        new = psi - d1 / d2
        new = np.where((d2 > 0) & (new > lo) & (new < hi), new, (lo + hi) / 2)
        conv, psi = np.abs(new - psi) <= 4e-16, new
    return meets, t_out


_MAX_ARC_CANDIDATES = 10 ** 6     # d = 1: 2k + 1 arc points at most


def _candidate_centers(Q: NonisotropicBall, h: float, seed: int) -> np.ndarray:
    """Candidate centres on 2Q.

    d = 1: the arc of 2Q at angular step 2 asin(h/8), a chordal gap of h/8;
    an arc of more than 10^6 points is refused.
    d >= 2: n = min(20000, max(2000, 8 N)) seeded uniform points of 2Q,
    N = (2 delta / (h/4))^d being its count of (h/4)-cells: 8 points per
    cell unless the cap of 20000 binds, and 20000 / N once it does, which
    is when h < 0.16 delta in d = 2 (1.2 per cell at h = delta/16); an h
    so small that 8 N overflows is refused.  Both are decided before any
    array is built.
    """
    d = Q.d
    c = Q.center.coords
    delta2 = min(2.0 * Q.delta, 2.0)
    if d == 1:
        theta0 = 2.0 * math.asin(delta2 / 2.0)
        step = 2.0 * math.asin(min(h / 8.0, 1.0))
        # 2k + 1 points, k = ceil(theta0 / step); no division, for h ~ 0
        if theta0 > (_MAX_ARC_CANDIDATES - 1) // 2 * step:
            raise ValueError(f"packing radius h = {h} is too small: its arc "
                             "of candidates would hold more than "
                             f"{_MAX_ARC_CANDIDATES} points")
        k = max(int(math.ceil(theta0 / step)), 1)
        offs = np.arange(-k, k + 1) * step
        return (c[0] * np.exp(1j * offs))[:, None]
    try:
        cells = 8 * (delta2 / (h / 4.0)) ** d
    except (OverflowError, ZeroDivisionError):
        cells = math.inf
    if math.isinf(cells):
        raise ValueError(f"packing radius h = {h} is too small: the count "
                         f"8 (2 delta / (h/4))^{d} of candidate cells "
                         "overflows")
    n = int(min(20000, max(2000, cells)))
    return sample_cap(NonisotropicBall(Q.center, delta2), n,
                      np.random.default_rng(seed))


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

    First-fit greedy over the candidates of _candidate_centers, ordered
    outward from the center of Q.  A candidate is admitted when it lies in
    Q, or when its ball lies in 2Q by the triangle inequality
    rho(c, center) + sqrt(h) <= sqrt(2 delta); that clause reaches beyond Q
    only when h <= (sqrt(2) - 1)^2 delta ~ 0.172 delta, and every ball lies
    in max(2, (1 + sqrt(h / delta))^2) Q, inside 4Q.  Two caps meet at gap
    <= h and never beyond 4h; in between, a search on the circular edge of
    the lens of their common points decides (_caps_overlap), each answer
    resting on a witness or a lower bound, so the family is maximal among
    the candidates.

    The scan is a sweep.  Admitting a ball drops every later alive
    candidate at gap <= h from it and marks those at gap in (h, 4h]
    pending, holding their inner products.  The first alive candidate is
    admitted while it is not pending; once it is, every held pair of a
    live candidate goes to one overlap call, the candidates that meet are
    dropped and the marks cleared.  This is first-fit: an answer depends
    only on its pair's inner product, never on the batch, and the first
    alive candidate that is not pending has against every ball admitted
    before it in the fixed outward order either gap > 4h or a "disjoint"
    answer, so it is exactly the one first-fit admits next.  The alive
    candidates are held as d contiguous columns, and a ball's inner
    products are a sum of column products with the bits of a row sum
    (_column_inner); the exact np.hypot gap is taken only where the
    squared gap is at most 16 h^2 (1 + 1e-12), so "meets" (<= h) and the
    band (<= 4h) are decided by np.hypot alone.

    With certificate_grid > 0, a PackingCertificate over that many uniform
    points of Q (coverage by Q(c_j, 2h), pairwise disjointness) is attached.
    Its gaps are formed a block of balls at a time (_grid_certificate), so
    its memory does not grow with the ball count.

    Covering: rho is a metric, so a candidate rejected for meeting Q(c_j, h)
    lies within rho <= 2 sqrt(h) of c_j, i.e. in Q(c_j, 4h).  Every centre
    of Q is a candidate, so this reaches all of Q up to the spacing of the
    candidate grid.  In d = 1 the gap itself is a metric and Q(c_j, 2h)
    suffices.

    Returns (balls, certificate_or_None).
    """
    if not 0.0 < h < Q.delta:
        raise ValueError(f"packing radius h must lie in (0, delta) = "
                         f"(0, {Q.delta}), got {h}")
    cands = _candidate_centers(Q, h, seed)
    gap_c = niso_gap(Q.center.coords, cands)
    order = np.argsort(gap_c)
    cands, gap_c = cands[order], gap_c[order]
    # every centre of Q, and beyond Q the centres whose ball lies in 2Q by
    # the triangle inequality rho(c, center) + sqrt(h) <= sqrt(2 delta)
    budget = math.sqrt(min(2.0 * Q.delta, 2.0)) - math.sqrt(h)
    cands = cands[(np.sqrt(gap_c) <= budget + TOL) | (gap_c <= Q.delta + TOL)]

    selected: list[np.ndarray] = []
    # the alive candidates as d contiguous columns, in the outward order
    alive, ids = np.ascontiguousarray(cands.T), np.arange(len(cands))
    pending, dropped = np.zeros((2, len(cands)), dtype=bool)
    held_ids, held_ip = [], []      # the undecided band pairs
    near_sq = 16.0 * h * h * (1.0 + 1e-12)    # (4h)^2, with room for rounding
    while len(ids):
        if pending[ids[0]]:
            # stall: decide every held pair of a live candidate in one call
            pid, pip = np.concatenate(held_ids), np.concatenate(held_ip)
            live = ~dropped[pid]
            dropped[pid[live][_caps_overlap(pip[live], h, Q.d == 1)]] = True
            pending[pid] = False
            held_ids, held_ip = [], []
            keep = ~dropped[ids]
            alive, ids = alive[:, keep], ids[keep]
            continue
        zj = alive[:, 0].copy()     # a view would keep all of alive
        selected.append(zj)
        alive, ids = alive[:, 1:], ids[1:]
        ip = _column_inner(alive, zj)
        # the exact gap only where it can be <= 4h: beyond 4h the triangle
        # inequality makes the caps disjoint
        near = np.flatnonzero((1.0 - ip.real) ** 2 + ip.imag ** 2 <= near_sq)
        gap = np.hypot(1.0 - ip.real[near], ip.imag[near])  # see _caps_overlap
        meets = gap <= h                  # inside the ball of zj
        band = near[~meets & (gap <= 4.0 * h)]
        pending[ids[band]] = True
        held_ids.append(ids[band])
        held_ip.append(ip[band])
        if meets.any():
            dropped[ids[near[meets]]] = True
            keep = ~dropped[ids]
            alive, ids = alive[:, keep], ids[keep]
    if not selected:
        raise RuntimeError("greedy selection produced no balls")
    balls = [NonisotropicBall(SpherePoint(c), h) for c in selected]

    cert = None
    if certificate_grid > 0:
        grid = sample_cap(Q, certificate_grid,
                          np.random.default_rng(seed + 1))
        inside, covered = _grid_certificate(grid, np.array(selected), h)
        cert = PackingCertificate(bool((inside <= 1).all()),
                                  float(covered.mean()), certificate_grid)
    return balls, cert


def _column_inner(cols: np.ndarray, z: np.ndarray) -> np.ndarray:
    """<x_i, z> for the points x_i held as the columns of cols (d, n).

    The bits are those of (rows * conj(z)).sum(axis=1) on the (n, d) rows:
    the product is taken with the rows' shapes (NumPy rounds a one-element
    (1, 1) * (1,) product without the fused multiply-add of its other
    loops), and the columns are added in the order of NumPy's pairwise sum,
    left to right up to d = 3; beyond that the rows are summed as they are.
    """
    prod = (cols.T * np.conj(z)).T
    if len(z) > 3:
        return np.ascontiguousarray(prod.T).sum(axis=1)
    ip = prod[0]
    for col in prod[1:]:
        ip = ip + col
    return ip


_CERT_BLOCK = 1 << 18       # complex gaps per certificate block (4 MiB)


def _grid_certificate(grid: np.ndarray, centers: np.ndarray, h: float):
    """Per grid point: the number of centres at gap <= h + TOL and whether
    one lies at gap <= 2h + TOL.

    The gaps |1 - <grid_i, c_j>| are formed for a block of centres at a
    time, about 2^18 of them, so memory does not grow with the ball count.
    """
    inside = np.zeros(len(grid), dtype=np.intp)
    covered = np.zeros(len(grid), dtype=bool)
    step = max(1, _CERT_BLOCK // len(grid))
    for a in range(0, len(centers), step):
        gaps = grid @ np.conj(centers[a:a + step].T)
        np.subtract(1.0, gaps, out=gaps)
        gaps = np.abs(gaps)
        inside += (gaps <= h + TOL).sum(axis=1)
        covered |= (gaps <= 2.0 * h + TOL).any(axis=1)
    return inside, covered
