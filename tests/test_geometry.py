"""Geometry of the nonisotropic metric: distances, caps, windows, packings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcarleson.geometry import (_OVERLAP_BLOCK, TOL, BallPoint,
                                  CarlesonWindow, NonisotropicBall,
                                  PackingCertificate, SpherePoint,
                                  _candidate_centers, _caps_overlap,
                                  _overlap_grid, ball_contains, greedy_packing,
                                  niso_distance, niso_gap, sample_cap,
                                  sample_sphere, scale_ball, sigma_of_ball,
                                  window_contains)

QUASI_CONST = math.sqrt(2.0)  # rho(a,c) <= sqrt(2) (rho(a,b) + rho(b,c))


def _sphere_point(d, rng):
    return SpherePoint(sample_sphere(d, 1, rng)[0])


# ---------------------------------------------------------------------------
# metric

def test_distance_symmetric_and_zero_on_diagonal(rng):
    for d in (1, 2, 3):
        a, b = _sphere_point(d, rng), _sphere_point(d, rng)
        assert niso_distance(a, b) == pytest.approx(niso_distance(b, a))
        # sqrt of |1 - |a|^2| amplifies rounding to about sqrt(eps)
        assert niso_distance(a, a) <= 1e-7


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quasi_triangle_inequality(d):
    """rho is a quasi-metric with constant sqrt(2); checked on 10^4 triples."""
    rng = np.random.default_rng(7)
    pts = sample_sphere(d, 3 * 10**4, rng).reshape(10**4, 3, d)
    for a, b, c in pts:
        ab = abs(1 - np.vdot(b, a)) ** 0.5
        bc = abs(1 - np.vdot(c, b)) ** 0.5
        ac = abs(1 - np.vdot(c, a)) ** 0.5
        assert ac <= QUASI_CONST * (ab + bc) + 1e-12


def test_distance_range(rng):
    # |1 - <a,b>| <= 2 on the sphere, so rho <= sqrt(2)
    for _ in range(200):
        a, b = _sphere_point(2, rng), _sphere_point(2, rng)
        assert 0.0 <= niso_distance(a, b) <= math.sqrt(2.0) + 1e-12


# ---------------------------------------------------------------------------
# caps and windows

def test_ball_membership_matches_distance(rng):
    Q = NonisotropicBall(_sphere_point(2, rng), 0.3)
    for _ in range(100):
        xi = _sphere_point(2, rng)
        inside = niso_distance(Q.center, xi) ** 2 <= 0.3
        assert ball_contains(Q, xi) == inside


def test_scale_ball_clamps_at_full_sphere(rng):
    Q = NonisotropicBall(_sphere_point(1, rng), 1.5)
    assert scale_ball(Q, 2.0).delta == 2.0


def test_window_contains_radial_shell():
    zeta = SpherePoint(np.array([1.0 + 0j]))
    S = CarlesonWindow(NonisotropicBall(zeta, 0.1), 0.2)
    assert window_contains(S, BallPoint(np.array([0.95 + 0j])))
    assert not window_contains(S, BallPoint(np.array([0.5 + 0j])))  # too deep
    assert not window_contains(S, BallPoint(np.array([0.95j])))     # off-cap


def test_origin_only_in_full_depth_window():
    zeta = SpherePoint(np.array([1.0 + 0j]))
    origin = BallPoint(np.array([0.0 + 0j]))
    assert window_contains(CarlesonWindow(NonisotropicBall(zeta, 0.1), 1.0),
                           origin)
    assert not window_contains(CarlesonWindow(NonisotropicBall(zeta, 0.1), 0.5),
                               origin)


# ---------------------------------------------------------------------------
# sigma(Q)

def test_sigma_closed_form_d1():
    # arc |1 - e^{i theta}| <= delta has half-length 2 asin(delta/2)
    for delta in (0.1, 0.5, 1.0, 2.0):
        assert sigma_of_ball(delta, 1) == pytest.approx(
            (2.0 / math.pi) * math.asin(delta / 2.0), rel=1e-12)
    assert sigma_of_ball(2.0, 1) == pytest.approx(1.0)


def test_sigma_monotone_in_delta():
    vals = [sigma_of_ball(dl, 2) for dl in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_sigma_doubling_d2():
    # sigma(Q) ~ delta^d, so doubling delta multiplies sigma by about 2^d
    for delta in (0.02, 0.05, 0.1):
        ratio = sigma_of_ball(2 * delta, 2) / sigma_of_ball(delta, 2)
        assert 3.2 < ratio < 4.5


def test_sigma_monte_carlo_cross_check():
    """Independent estimate of sigma(Q) by uniform sampling of the sphere."""
    rng = np.random.default_rng(42)
    for d, delta in ((2, 0.5), (3, 0.8)):
        pts = sample_sphere(d, 200000, rng)
        gap = np.abs(1.0 - pts[:, 0])
        frac = float(np.mean(gap <= delta))
        assert sigma_of_ball(delta, d) == pytest.approx(frac, rel=0.03)


@given(st.floats(min_value=1e-3, max_value=2.0),
       st.floats(min_value=1e-3, max_value=2.0))
@settings(max_examples=30, deadline=None)
def test_sigma_d1_superadditive_pairs(d1, d2):
    # concavity near 0 fails for arcsin, but monotonicity always holds
    lo, hi = sorted((d1, d2))
    assert sigma_of_ball(lo, 1) <= sigma_of_ball(hi, 1) + 1e-15


# ---------------------------------------------------------------------------
# greedy packing

def test_packing_deterministic():
    Q = NonisotropicBall(SpherePoint(np.array([1.0 + 0j])), 0.5)
    a, _ = greedy_packing(Q, 0.05, seed=3)
    b, _ = greedy_packing(Q, 0.05, seed=3)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.allclose(x.center.coords, y.center.coords)


def test_packing_certificate_d1():
    Q = NonisotropicBall(SpherePoint(np.array([1.0 + 0j])), 0.6)
    balls, cert = greedy_packing(Q, 0.04, seed=0, certificate_grid=4000)
    assert isinstance(cert, PackingCertificate)
    assert cert.disjoint
    assert cert.covered_fraction == 1.0
    assert len(balls) >= 2


def test_packing_subballs_have_radius_h():
    Q = NonisotropicBall(SpherePoint(np.array([1.0 + 0j])), 0.5)
    balls, _ = greedy_packing(Q, 0.07, seed=0)
    assert all(b.delta == 0.07 for b in balls)


def test_packing_centers_inside_target(rng):
    Q = NonisotropicBall(_sphere_point(2, rng), 0.4)
    balls, _ = greedy_packing(Q, 0.08, seed=1)
    for b in balls:
        assert niso_distance(Q.center, b.center) ** 2 <= 0.4 + 1e-9


def test_packing_covers_the_rim_by_4h():
    # above h = (sqrt(2) - 1)^2 delta no ball centred near the rim of Q lies
    # in 2Q, yet every centre of Q is a candidate, so maximality and the
    # metric rho give the cover of all of Q by Q(c_j, 4h) (4.2 h is needed
    # when the rim is left without candidates)
    Q = NonisotropicBall(SpherePoint(np.array([1.0 + 0j, 0j])), 0.2)
    h = 0.039
    balls, _ = greedy_packing(Q, h, seed=1)
    centers = np.array([b.center.coords for b in balls])
    pts = sample_cap(Q, 20000, np.random.default_rng(0))
    gaps = np.abs(1.0 - pts @ np.conj(centers.T))
    assert gaps.min(axis=1).max() <= 4.0 * h


# ---------------------------------------------------------------------------
# batched overlap test and sweep against the scalar first-fit they replace

def _overlap_t_grid_reference(h, n=48):
    r = np.linspace(0.0, h, n)
    th = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    t = 1.0 - (r[:, None] * np.exp(1j * th[None, :])).ravel()
    return t[np.abs(t) <= 1.0]


def _cap_overlap_reference(beta, h, t_grid):
    """The scalar overlap test the batched one replaced, one pair per call.

    Returns (overlap, stage), the stage being the one that decided: "line",
    "grid", "margin" (grid miss beyond its resolution error) or "polish".
    """
    s = math.sqrt(max(0.0, 1.0 - abs(beta) ** 2))
    if s <= 1e-9:
        theta_h = 2.0 * math.asin(min(h / 2.0, 1.0))
        return abs(math.atan2(beta.imag, beta.real)) <= 2.0 * theta_h + TOL, \
            "line"
    lhs = np.abs(1.0 - beta * t_grid)
    rhs = h + s * np.sqrt(np.clip(1.0 - np.abs(t_grid) ** 2, 0.0, None))
    if np.any(lhs <= rhs + TOL):
        return True, "grid"
    gap = lhs - rhs
    margin = 0.5 * (h / 48.0) * (1.0 + s / math.sqrt(2.0 * h)) * 2.0 * math.pi
    if float(gap.min()) > margin:
        return False, "margin"
    t0 = t_grid[int(np.argmin(gap))]
    r0 = abs(1.0 - t0)
    a0 = math.atan2((1.0 - t0).imag, (1.0 - t0).real)
    rad_w, ang_w = h / 48.0, 2.0 * math.pi / 48.0
    best = float(gap.min())
    for _ in range(6):
        rr = np.clip(np.linspace(r0 - rad_w, r0 + rad_w, 33), 0.0, h)
        aa = np.linspace(a0 - ang_w, a0 + ang_w, 33)
        t = 1.0 - rr[:, None] * np.exp(1j * aa[None, :])
        ok = np.abs(t) <= 1.0
        f = np.where(
            ok,
            np.abs(1.0 - beta * t)
            - s * np.sqrt(np.clip(1.0 - np.abs(t) ** 2, 0.0, None)) - h,
            np.inf)
        i, j = np.unravel_index(int(np.argmin(f)), f.shape)
        best = min(best, float(f[i, j]))
        if best <= TOL:
            return True, "polish"
        r0, a0 = float(rr[i]), float(aa[j])
        rad_w /= 4.0
        ang_w /= 4.0
    return bool(best <= TOL), "polish"


def _overlap_pairs(h, rng):
    """Inner products of 5 000 pairs: d = 2 pairs at gap in (h, 4h], a
    quarter of them within 0.03 h of the tangency along their ray, and
    d = 1 pairs."""
    # 1 - g e^{i phi} lies in the unit disk iff |phi| <= acos(g / 2)
    g = rng.uniform(h, 4.0 * h, 3200)
    band = 1.0 - g * np.exp(1j * np.arccos(g / 2.0) * rng.uniform(-1, 1, 3200))
    # bisect the gap at which the caps stop meeting along 240 rays, then
    # step off it by h * 10^U(-10, -1.5) on either side, five times a ray:
    # the pairs closest to it are decided only in the last polish round
    ph = math.acos(2.0 * h) * rng.uniform(-1.0, 1.0, 240)
    lo, hi = np.full(240, h), np.full(240, 4.0 * h)
    grid = _overlap_grid(h)
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        meets = _caps_overlap(1.0 - mid * np.exp(1j * ph), h, grid)
        lo, hi = np.where(meets, mid, lo), np.where(meets, hi, mid)
    off = h * 10.0 ** rng.uniform(-10.0, -1.5, (240, 5)) \
        * rng.choice([-1, 1], (240, 5))
    gap = np.clip(lo[:, None] + off, h * (1 + 1e-9), 4.0 * h)
    tangent = (1.0 - gap * np.exp(1j * ph[:, None])).ravel()
    # d = 1: unit inner products, at angles spread over twice the bound and
    # within 1e-17 .. 1e-12 of it relative, where np.arctan2 and math.atan2
    # can decide differently (at h = 0.2)
    bound = 4.0 * math.asin(h / 2.0) + TOL
    ang = np.concatenate([rng.uniform(-2.0, 2.0, 300) * bound,
                          bound * (1.0 + 10.0 ** rng.uniform(-17, -12, 300)
                                   * rng.choice([-1, 1], 300))])
    return np.concatenate([band, tangent, np.exp(1j * ang)])


def test_batched_overlap_matches_scalar_reference():
    rng = np.random.default_rng(11)
    stages = {}
    n = 0
    for h in (0.009, 0.03, 0.07, 0.2):
        beta = _overlap_pairs(h, rng)
        t_grid = _overlap_t_grid_reference(h)
        want = []
        for b in beta:
            meets, stage = _cap_overlap_reference(b, h, t_grid)
            want.append(meets)
            stages[stage] = stages.get(stage, 0) + 1
        got = _caps_overlap(beta, h, _overlap_grid(h))
        assert got.dtype == bool
        np.testing.assert_array_equal(got, np.array(want))
        n += len(beta)
    assert n >= 20000
    # every stage decides a fair share, the polish included
    assert min(stages.values()) >= 500, stages


def _first_fit_reference(Q, h, seed):
    """Centres of greedy_packing by the scalar first-fit loop it replaced."""
    cands = _candidate_centers(Q, h, seed)
    cands = cands[np.argsort(niso_gap(Q.center.coords, cands))]
    gap_c = niso_gap(Q.center.coords, cands)
    budget = math.sqrt(min(2.0 * Q.delta, 2.0)) - math.sqrt(h)
    cands = cands[(np.sqrt(gap_c) <= budget + TOL) | (gap_c <= Q.delta + TOL)]
    t_grid = _overlap_t_grid_reference(h)
    selected = []
    for cand in cands:
        ok = True
        for zj in selected:
            gap = abs(1.0 - np.sum(cand * np.conj(zj)))
            if gap > 4.0 * h:
                continue
            if gap <= h:
                ok = False
                break
            if _cap_overlap_reference(np.sum(cand * np.conj(zj)), h,
                                      t_grid)[0]:
                ok = False
                break
        if ok:
            selected.append(cand)
    return np.array([SpherePoint(c).coords for c in selected]), cands


@pytest.mark.parametrize("d, delta, h, seed", [
    (1, 0.5, 0.035, 4),     # h / delta = 0.07
    (1, 0.3, 0.057, 9),     # 0.19, beyond the 0.172 rim threshold
    (2, 0.3, 0.021, 2),     # 0.07: the first ball's (h, 4h] band > a block
    (2, 0.45, 0.0855, 6),   # 0.19
])
def test_sweep_matches_scalar_first_fit(d, delta, h, seed):
    center = np.zeros(d, dtype=complex)
    center[0] = np.exp(0.3j)
    Q = NonisotropicBall(SpherePoint(center), delta)
    balls, _ = greedy_packing(Q, h, seed=seed)
    want, cands = _first_fit_reference(Q, h, seed)
    got = np.array([b.center.coords for b in balls])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if d == 2 and h / delta < 0.1:
        first_band = np.count_nonzero(
            (niso_gap(cands[0], cands[1:]) > h)
            & (niso_gap(cands[0], cands[1:]) <= 4.0 * h))
        assert first_band > _OVERLAP_BLOCK
