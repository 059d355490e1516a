"""Geometry of the nonisotropic metric: distances, caps, windows, packings."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcarleson import geometry
from revcarleson.geometry import (TOL, BallPoint, CarlesonWindow,
                                  NonisotropicBall, PackingCertificate,
                                  SpherePoint, _candidate_centers,
                                  _caps_overlap, _column_inner,
                                  _grid_certificate, _lens_minimum,
                                  greedy_packing, niso_gap, sample_cap,
                                  sample_sphere, sigma_of_ball)

QUASI_CONST = math.sqrt(2.0)  # rho(a,c) <= sqrt(2) (rho(a,b) + rho(b,c))


def _sphere_point(d, rng):
    return SpherePoint(sample_sphere(d, 1, rng)[0])


def _rho(a, b):
    """The metric rho(a, b) = |1 - <a, b>|^(1/2) between sphere points."""
    return math.sqrt(niso_gap(a.coords, b.coords)[0])


# ---------------------------------------------------------------------------
# metric

def test_distance_symmetric_and_zero_on_diagonal(rng):
    for d in (1, 2, 3):
        a, b = _sphere_point(d, rng), _sphere_point(d, rng)
        assert _rho(a, b) == pytest.approx(_rho(b, a))
        # sqrt of |1 - |a|^2| amplifies rounding to about sqrt(eps)
        assert _rho(a, a) <= 1e-7


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
        assert 0.0 <= _rho(a, b) <= math.sqrt(2.0) + 1e-12


# ---------------------------------------------------------------------------
# caps and windows

def test_ball_membership_matches_distance(rng):
    Q = NonisotropicBall(_sphere_point(2, rng), 0.3)
    for _ in range(100):
        xi = _sphere_point(2, rng)
        inside = _rho(Q.center, xi) ** 2 <= 0.3
        assert Q.contains_coords(xi.coords)[0] == inside


def test_window_contains_radial_shell():
    zeta = SpherePoint(np.array([1.0 + 0j]))
    S = CarlesonWindow(NonisotropicBall(zeta, 0.1), 0.2)
    pts = np.array([[0.95 + 0j],     # inside
                    [0.5 + 0j],      # too deep
                    [0.95j],         # off-cap
                    [1.0 + 0j]])     # on the sphere: windows are outer-closed
    assert S.contains_coords(pts).tolist() == [True, False, False, True]


def test_origin_only_in_full_depth_window():
    Q = NonisotropicBall(SpherePoint(np.array([1.0 + 0j])), 0.1)
    origin = BallPoint(np.array([0.0 + 0j]))
    assert CarlesonWindow(Q, 1.0).contains_coords(origin.coords)[0]
    assert not CarlesonWindow(Q, 0.5).contains_coords(origin.coords)[0]


# ---------------------------------------------------------------------------
# sigma(Q)

def test_sigma_closed_form_d1():
    # arc |1 - e^{i theta}| <= delta has half-length 2 asin(delta/2)
    for delta in (0.1, 0.5, 1.0, 2.0):
        assert sigma_of_ball(delta, 1) == pytest.approx(
            (2.0 / math.pi) * math.asin(delta / 2.0), rel=1e-12)
    assert sigma_of_ball(2.0, 1) == pytest.approx(1.0)


def _sigma_reference(delta, d):
    """sigma(Q(c, delta)) in d >= 2 to 30 digits: the exact inner integral
    P(U) = sum_k C(d-2, k) (-1)^k U^(d+k) / (d+k) in mpmath, then a 1-D
    mpmath quadrature in theta split at arccos(delta/2)."""
    import mpmath as mp
    with mp.workdps(30):
        delta = mp.mpf(delta)

        def f(theta):
            c = 2 * mp.cos(theta)
            u = min(mp.mpf(1), delta / c)
            return c ** (2 * d - 2) * mp.fsum(
                mp.binomial(d - 2, k) * (-1) ** k * u ** (d + k) / (d + k)
                for k in range(d - 1))

        theta0 = mp.acos(min(delta, 2) / 2)
        return 2 * (d - 1) / mp.pi * mp.quad(f, [0, theta0, mp.pi / 2])


def test_sigma_reference_is_normalised_and_matches_the_lens_area():
    import mpmath as mp
    for d in (2, 3, 4):
        assert abs(_sigma_reference(2, d) - 1) < 1e-25
    # d = 2: t = <zeta, c> is uniform on the disc, so sigma(Q) is the area
    # of the lens {|1 - t| <= delta, |t| <= 1} over pi (no cancellation at
    # this delta)
    with mp.workdps(30):
        dl = mp.mpf("0.77")
        lens = (mp.acos(1 - dl ** 2 / 2) + dl ** 2 * mp.acos(dl / 2)
                - dl * mp.sqrt(4 - dl ** 2) / 2)
        assert abs(_sigma_reference("0.77", 2) - lens / mp.pi) < 1e-25


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sigma_of_ball_matches_mpmath_reference(d):
    # small caps too: an absolute quadrature tolerance would swamp them
    for delta in [2.0 ** -k for k in range(12)] + [0.3, 0.77, 1.5, 1.99]:
        want = float(_sigma_reference(delta, d))
        assert abs(sigma_of_ball(delta, d) - want) <= 1e-13 * want


def test_sigma_of_ball_d1_is_the_arc_length():
    for delta in [2.0 ** -k for k in range(12)] + [0.3, 0.77, 1.5, 1.99, 2.0]:
        assert sigma_of_ball(delta, 1) == \
            (2.0 / math.pi) * math.asin(delta / 2.0)


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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("delta", [0.1, 0.5, 1.3])
def test_sample_cap_law(d, delta):
    """Rows are unit vectors of Q, reproducible from the seed, and the share
    in Q(c, delta/2) is sigma(delta/2) / sigma(delta) within 4 binomial
    standard deviations; in d >= 2 one centre has c_1 = 0."""
    n = 20000
    want = sigma_of_ball(delta / 2, d) / sigma_of_ball(delta, d)
    tol = 4.0 * math.sqrt(want * (1.0 - want) / n)
    centers = [np.eye(d, dtype=complex)[-1],
               sample_sphere(d, 1, np.random.default_rng(d))[0]]
    for c in centers:
        Q = NonisotropicBall(SpherePoint(c), delta)
        pts = sample_cap(Q, n, np.random.default_rng(17))
        assert pts.shape == (n, d)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0,
                           atol=1e-14)
        assert Q.contains_coords(pts).all()
        assert np.array_equal(pts, sample_cap(Q, n, np.random.default_rng(17)))
        inner = NonisotropicBall(SpherePoint(c), delta / 2)
        assert abs(inner.contains_coords(pts).mean() - want) <= tol


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
    for center in ([1.0 + 0j], [1.0 + 0j, 0j]):
        Q = NonisotropicBall(SpherePoint(np.array(center)), 0.5)
        a, _ = greedy_packing(Q, 0.05, seed=3)
        b, _ = greedy_packing(Q, 0.05, seed=3)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.center.coords.tobytes() == y.center.coords.tobytes()


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
        assert _rho(Q.center, b.center) ** 2 <= 0.4 + 1e-9


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
# the cap-overlap predicate: certificates, a brute-force oracle, the scalar
# grid-and-zoom test it replaced, and the sweep against a first-fit loop

def _overlap_t_grid_reference(h, n=48):
    r = np.linspace(0.0, h, n)
    th = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    t = 1.0 - (r[:, None] * np.exp(1j * th[None, :])).ravel()
    return t[np.abs(t) <= 1.0]


def _cap_overlap_reference(beta, h, t_grid):
    """The scalar grid-and-zoom overlap test, one pair per call.

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


def _tangent_gaps(h, ph):
    """The gap g at which caps with beta = 1 - g e^{i ph} stop meeting, by
    bisection of the predicate along each ray."""
    lo, hi = np.full(len(ph), h), np.full(len(ph), 4.0 * h)
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        meets = _caps_overlap(1.0 - mid * np.exp(1j * ph), h)
        lo, hi = np.where(meets, mid, lo), np.where(meets, hi, mid)
    return lo


def _overlap_pairs(h, rng):
    """Inner products of 5 000 pairs: d = 2 pairs at gap in (h, 4h], a
    quarter of them within 0.03 h of the tangency along their ray, and
    d = 1 pairs."""
    # 1 - g e^{i phi} lies in the unit disk iff |phi| <= acos(g / 2)
    g = rng.uniform(h, 4.0 * h, 3200)
    band = 1.0 - g * np.exp(1j * np.arccos(g / 2.0) * rng.uniform(-1, 1, 3200))
    # step off the tangency of 240 rays by h * 10^U(-10, -1.5) on either
    # side, five times a ray: the closest lie about TOL from it
    ph = math.acos(2.0 * h) * rng.uniform(-1.0, 1.0, 240)
    lo = _tangent_gaps(h, ph)
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


def _lmo_scalar(g, h):
    """min over v in L = {|1 - v| <= h, |v| <= 1} of Re(conj(g) v): the
    minimiser over either disc if it lies in the other, else a corner."""
    a = 2.0 * math.asin(min(h / 2.0, 1.0))
    cands = [cmath.exp(1j * a), cmath.exp(-1j * a)]
    if abs(g) > 0.0:
        cands += [v for v in (1.0 - h * g / abs(g), -g / abs(g))
                  if abs(1.0 - v) <= h * (1 + 1e-15) and abs(v) <= 1.0]
    return min((g.conjugate() * v).real for v in cands)


def _unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def test_overlap_answers_carry_certificates():
    """Every answer off the line case rests on a certificate, rechecked in
    scalar arithmetic: a witness t of L with F(t) <= h + TOL, made into a
    point of S^3 in both caps, or a Frank-Wolfe lower bound above h + TOL;
    only pairs within rounding of tangency are settled by the tie rule."""
    rng = np.random.default_rng(3)
    counts = {"meets": 0, "disjoint": 0, "tie": 0}
    for h in (0.009, 0.03, 0.07, 0.2):
        # and 400 pairs within 1e-12 of the tangent gap, relative
        ph = math.acos(2.0 * h) * rng.uniform(-1.0, 1.0, 400)
        gap = _tangent_gaps(h, ph) * (1.0 + 1e-12 * rng.uniform(-1, 1, 400))
        beta = np.concatenate([_overlap_pairs(h, rng),
                               1.0 - gap * np.exp(1j * ph)])
        s = np.sqrt(np.maximum(0.0, 1.0 - np.hypot(beta.real, beta.imag) ** 2))
        beta, s = beta[s > 1e-9], s[s > 1e-9]
        meets, ts = _lens_minimum(beta, s, h)
        np.testing.assert_array_equal(meets, _caps_overlap(beta, h))
        for b, sb, met, t in zip(beta, s, meets, ts):
            b, sb, t = complex(b), float(sb), complex(t)
            # in L up to rounding, which the closed caps' TOL absorbs
            assert abs(1.0 - t) <= h + 1e-15 and abs(t) < 1.0
            w = math.sqrt(1.0 - (t.real ** 2 + t.imag ** 2))
            u = 1.0 - b * t
            f = abs(u) - sb * w
            if met:
                assert f <= h + TOL
                # with b = beta a + s e, the point conj(t) a + w e^{i phi}
                # conj(u)/|u| e, the phase phi putting |1 - <xi, b>| <= h
                cos_phi = min(1.0, (abs(u) ** 2 + (sb * w) ** 2 - h * h)
                              / (2.0 * abs(u) * sb * w))
                phi = 0.0 if f >= 0.0 else math.acos(cos_phi)
                U = _unitary(2, rng)
                a, bb = U[:, 0], U @ np.array([b, sb])
                xi = U @ np.array([t.conjugate(), w * cmath.exp(1j * phi)
                                   * u.conjugate() / abs(u)])
                # the caps are closed to TOL; rotating by U rounds anew
                assert abs(np.linalg.norm(xi) - 1.0) <= 1e-14
                assert niso_gap(a, xi)[0] <= h + 1e-15
                assert niso_gap(bb, xi)[0] <= h + TOL + 1e-15
                counts["meets"] += 1
                continue
            g = -b.conjugate() * u / abs(u) + sb * t / w
            lower = f + _lmo_scalar(g, h) - (g.conjugate() * t).real
            if lower > h + TOL:
                counts["disjoint"] += 1
            else:
                # within rounding of tangency: the bound is tight to TOL
                assert f > h + TOL and f - lower <= TOL
                counts["tie"] += 1
    print("overlap certificates:", counts)
    assert 0 < counts["tie"] <= 1e-3 * sum(counts.values())


def test_overlap_matches_sphere_sampling_oracle():
    """d = 2 and d = 3 pairs at least 1e-3 h from tangency against an oracle
    that knows nothing of the lens: points of one cap, found by a random
    search in C^d that shrinks about the points nearest the other cap, are
    tested against the other cap directly."""
    rng = np.random.default_rng(8)

    def oracle(a, b, h):
        pts, scale = a[None, :], math.sqrt(h)
        for _ in range(24):
            cloud = pts[rng.integers(len(pts), size=4000)] + scale * (
                rng.standard_normal((4000, len(a)))
                + 1j * rng.standard_normal((4000, len(a))))
            cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
            pts = np.concatenate([pts, cloud[niso_gap(a, cloud) <= h]])
            gap_b = niso_gap(b, pts)
            if gap_b.min() <= h:
                return True
            pts = pts[np.argsort(gap_b)[:40]]
            scale *= 0.6
        return False

    for d, h in ((2, 0.02), (2, 0.1), (3, 0.05)):
        ph = math.acos(2.0 * h) * rng.uniform(-1.0, 1.0, 12)
        off = h * 10.0 ** rng.uniform(-3.0, -1.0, 12) * np.tile([-1, 1], 6)
        gap = np.concatenate([_tangent_gaps(h, ph) + off,
                              rng.uniform(h, 4.0 * h, 12)])
        ph = np.concatenate([ph, np.arccos(gap[12:] / 2.0)
                             * rng.uniform(-1.0, 1.0, 12)])
        beta = 1.0 - gap * np.exp(1j * ph)
        got = _caps_overlap(beta, h)
        for bt, meets in zip(beta, got):
            U = _unitary(d, rng)
            s = math.sqrt(1.0 - abs(bt) ** 2)
            a, b = U[:, 0], bt * U[:, 0] + s * U[:, 1]    # <b, a> = beta
            assert oracle(a, b, h) == meets, (d, h, bt)


def test_batched_overlap_matches_scalar_reference():
    rng = np.random.default_rng(11)
    stages = {}
    n = 0
    reference_wrong = 0
    for h in (0.009, 0.03, 0.07, 0.2):
        beta = _overlap_pairs(h, rng)
        t_grid = _overlap_t_grid_reference(h)
        want = []
        for b in beta:
            meets, stage = _cap_overlap_reference(b, h, t_grid)
            want.append(meets)
            stages[stage] = stages.get(stage, 0) + 1
        want = np.array(want)
        got = _caps_overlap(beta, h)
        assert got.dtype == bool
        # the reference can only miss a meeting point, and then the
        # predicate holds the witness that shows it
        differ = np.flatnonzero(got != want)
        assert got[differ].all()
        s = np.sqrt(1.0 - np.abs(beta[differ]) ** 2)
        meets, t = _lens_minimum(beta[differ], s, h)
        f = np.abs(1.0 - beta[differ] * t) - s * np.sqrt(1.0 - np.abs(t) ** 2)
        assert meets.all() and (f <= h + TOL).all()
        reference_wrong += len(differ)
        n += len(beta)
    assert n >= 20000
    print("pairs the reference decides wrongly:", reference_wrong)
    assert reference_wrong == 0
    # every stage decides a fair share, the polish included
    assert min(stages.values()) >= 500, stages


def test_overlap_answers_do_not_depend_on_the_batch():
    """The sweep defers band pairs and decides them in batches of any make-up,
    so each pair's answer and witness must depend on its own inner product
    alone: the 20 000 pairs of the scalar comparison, line-case pairs among
    them, give the same bits whole as permuted and cut into chunks."""
    rng = np.random.default_rng(11)
    sizes = (1, 2, 7, 64)
    for h in (0.009, 0.03, 0.07, 0.2):
        beta = _overlap_pairs(h, rng)
        s = np.sqrt(np.maximum(0.0, 1.0 - np.hypot(beta.real, beta.imag) ** 2))
        off = s > 1e-9
        whole = (_caps_overlap(beta, h), *_lens_minimum(beta[off], s[off], h))
        perm = rng.permutation(len(beta))
        cuts, k = [0], 0
        while cuts[-1] < len(perm):
            cuts.append(min(cuts[-1] + sizes[k % len(sizes)], len(perm)))
            k += 1
        meets = np.zeros(len(beta), dtype=bool)
        lens_meets = np.zeros(len(beta), dtype=bool)
        lens_t = np.zeros(len(beta), dtype=complex)
        for a, b in zip(cuts, cuts[1:]):
            part = perm[a:b]
            meets[part] = _caps_overlap(beta[part], h)
            part = part[off[part]]
            lens_meets[part], lens_t[part] = _lens_minimum(beta[part],
                                                            s[part], h)
        assert meets.tobytes() == whole[0].tobytes()
        assert lens_meets[off].tobytes() == whole[1].tobytes()
        assert lens_t[off].tobytes() == whole[2].tobytes()


def _lens_values(beta, s, r, e):
    """F at t = 1 - r e (|e| = 1), with 1 - |t|^2 = 2 r Re e - r^2."""
    w = np.sqrt(np.clip(2.0 * r * e.real - r * r, 0.0, None))
    return np.abs((1.0 - beta) + beta * r * e) - s * w


def _edge_minimum(beta, s, h):
    """min of F on the arc t = 1 - h e^{i psi}, |psi| < acos(h/2), by a
    dense scan and nine shrinking ones: (min, psi there, acos(h/2))."""
    half = math.acos(h / 2.0)
    psi = np.linspace(-half, half, 2001)[1:-1]
    for _ in range(10):
        f = _lens_values(beta, s, h, np.exp(1j * psi))
        i, width = int(np.argmin(f)), psi[1] - psi[0]
        best, at = float(f[i]), float(psi[i])
        psi = np.clip(np.linspace(at - width, at + width, 41), -half, half)
    return best, at, half


def _lens_grid_minimum(beta, s, h):
    """min of F over the lens by a polar grid about 1 (121 radii, 241
    angles) and eight shrinking grids about its least point."""
    r, a = np.linspace(0.0, h, 121), np.linspace(-math.pi, math.pi, 241)
    rw, aw, best = r[1] - r[0], a[1] - a[0], math.inf
    for _ in range(9):
        f = _lens_values(beta, s, r[:, None], np.exp(1j * a)[None, :])
        f[2.0 * r[:, None] * np.cos(a)[None, :] < r[:, None] ** 2] = np.inf
        i, j = np.unravel_index(int(np.argmin(f)), f.shape)
        best = min(best, float(f[i, j]))
        r = np.clip(np.linspace(r[i] - rw, r[i] + rw, 21), 0.0, h)
        a = np.linspace(a[j] - aw, a[j] + aw, 21)
        rw, aw = rw / 4.0, aw / 4.0
    return best


def test_lens_minimum_lies_on_the_circular_edge():
    """The reduction _lens_minimum rests on: for a band pair (gap in
    (h, 4h]) no point of the lens goes below the minimum over its circular
    edge, and that minimum lies strictly inside the arc; the solver's
    answer is the edge minimum's.  Pairs at gap <= h meet at conj(beta)."""
    rng = np.random.default_rng(21)
    closest = 1.0
    for d in (2, 3):
        for h in (0.009, 0.03, 0.07, 0.2):
            a = sample_sphere(d, 1, rng)[0]
            pts = sample_cap(NonisotropicBall(SpherePoint(a), 4.0 * h), 400,
                             rng)
            beta = pts @ np.conj(a)
            inner, beta = beta[np.abs(1.0 - beta) <= h], \
                beta[np.abs(1.0 - beta) > h][:20]
            s = np.sqrt(1.0 - np.abs(beta) ** 2)
            meets, _ = _lens_minimum(beta, s, h)
            for b, sb, met in zip(beta, s, meets):
                edge, at, half = _edge_minimum(b, sb, h)
                assert _lens_grid_minimum(b, sb, h) >= edge - 1e-12
                closest = min(closest, (half - abs(at)) / half)
                assert met == (edge <= h + TOL)
            met, t = _lens_minimum(inner, np.sqrt(1.0 - np.abs(inner) ** 2), h)
            assert len(inner) and met.all()
            assert t.tobytes() == np.conj(inner).tobytes()
    # no minimiser near an end of the arc: the closest lies 0.2 acos(h/2)
    # from one
    assert closest > 0.05


def _first_fit_reference(Q, h, seed):
    """Centres of greedy_packing by a scalar first-fit loop, one overlap
    test per pair.  Pairs beyond 4h by a relative margin of 1e-9 are passed
    over in one vector test, which leaves every decision to scalars."""
    cands = _candidate_centers(Q, h, seed)
    cands = cands[np.argsort(niso_gap(Q.center.coords, cands))]
    gap_c = niso_gap(Q.center.coords, cands)
    budget = math.sqrt(min(2.0 * Q.delta, 2.0)) - math.sqrt(h)
    cands = cands[(np.sqrt(gap_c) <= budget + TOL) | (gap_c <= Q.delta + TOL)]
    selected = np.empty_like(cands)
    k = 0
    for cand in cands:
        near = (np.abs(1.0 - selected[:k] @ np.conj(cand))
                <= 4.0 * h * (1.0 + 1e-9))
        ok = True
        for zj in selected[:k][near]:
            ip = np.sum(cand * np.conj(zj))
            gap = abs(1.0 - ip)
            if gap > 4.0 * h:
                continue
            if gap <= h or _caps_overlap(np.array([ip]), h)[0]:
                ok = False
                break
        if ok:
            selected[k] = cand
            k += 1
    return np.array([SpherePoint(c).coords for c in selected[:k]]), cands


@pytest.mark.parametrize("d, delta, h, seed", [
    (1, 0.5, 0.035, 4),     # h / delta = 0.07
    (1, 0.3, 0.057, 9),     # 0.19, beyond the 0.172 rim threshold
    (2, 0.3, 0.021, 2),     # 0.07: the first ball's (h, 4h] band is large
    (2, 0.45, 0.0855, 6),   # 0.19
    (2, 0.4, 0.025, 5),     # 1/16, the smallest ratio pack is run at
    (3, 0.5, 0.07, 3),      # 0.14
    (3, 0.4, 0.04, 8),      # 0.1: three column products, added in order
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
        assert first_band > 256


def test_sweep_decides_band_pairs_in_few_batches(monkeypatch):
    # band pairs wait until a pending candidate reaches the front, so one
    # overlap call serves many of the 133 balls (one call per ball is 133)
    calls = []

    def spy(beta, h, *rest):
        calls.append(len(beta))
        return _caps_overlap(beta, h, *rest)

    monkeypatch.setattr("revcarleson.geometry._caps_overlap", spy)
    center = np.array([np.exp(0.3j), 0j])
    balls, _ = greedy_packing(NonisotropicBall(SpherePoint(center), 0.3),
                              0.021, seed=2)
    assert len(balls) == 133
    assert len(calls) <= 60


def test_one_dimensional_packing_runs_no_lens_program(monkeypatch):
    # in d = 1 every pair of centres lies on one complex line, where the
    # arc rule decides the overlap, so the lens program is never entered
    calls = []
    real = geometry._lens_minimum
    monkeypatch.setattr(geometry, "_lens_minimum",
                        lambda *args: calls.append(len(args[0]))
                        or real(*args))
    balls, cert = greedy_packing(
        NonisotropicBall(SpherePoint(np.array([1j])), 0.4), 0.02, seed=1,
        certificate_grid=2000)
    assert len(balls) > 1 and cert.disjoint
    assert calls == []


def test_column_inner_has_the_bits_of_the_row_sum():
    # the sweep holds its candidates as columns; their inner products must
    # round as (rows * conj(z)).sum(axis=1) did, one-row slices included
    rng = np.random.default_rng(6)
    for d in (1, 2, 3, 4, 5):
        for n in (1, 2, 3, 9, 300):
            rows = sample_sphere(d, n + 1, rng)
            for z in (rows[1], sample_sphere(d, 1, rng)[0]):
                want = (rows[1:] * np.conj(z)).sum(axis=1)
                got = _column_inner(np.ascontiguousarray(rows.T)[:, 1:], z)
                assert got.tobytes() == want.tobytes(), (d, n)


def _ips_at_gap_edge(g, rng):
    """Inner products b in the unit disc whose gap np.hypot(1 - b) lies
    within 4 ulps of g, chosen where a squared gap would decide otherwise:
    (1 - Re b)^2 + (Im b)^2 against g^2 with and without the factor
    1 + 1e-12, and the same sum formed from 1 - b; eight of each, and eight
    more at random."""
    phi = rng.uniform(-1.2, 1.2, 40000)
    b = 1.0 - g * (1 + rng.integers(-4, 5, phi.size) * 2.0 ** -53) \
        * np.exp(1j * phi)
    om = 1.0 - b
    within = np.hypot(om.real, om.imag) <= g
    sq = (1.0 - b.real) ** 2 + b.imag ** 2
    picks = [np.flatnonzero(within != (sq <= g * g * (1 + f)))[:8]
             for f in (0.0, 1e-12)]
    picks.append(np.flatnonzero(within != (om.real ** 2 + om.imag ** 2
                                           <= g * g))[:8])
    assert all(len(p) for p in picks[::2])   # the slack leaves none
    return b[np.concatenate(picks + [np.arange(8)])]


def test_sweep_classifies_gaps_as_hypot_does(monkeypatch):
    # one admitted ball e1 and one candidate x with <x, e1> = b: the sweep
    # drops x (gap <= h), holds the pair for an overlap call (h < gap <=
    # 4h) or passes it by (gap > 4h), deciding by np.hypot(1 - b) to the
    # last bit, past its squared-gap prefilter; the candidates lie within
    # 4 ulps of h and 4h, h(1 +- 2^-52) among them
    h = 0.05
    e1 = np.array([1.0 + 0j, 0j])
    Q = NonisotropicBall(SpherePoint(e1), 0.5)
    calls = []

    def spy(beta, h, *rest):
        calls.append(beta.copy())
        return _caps_overlap(beta, h, *rest)

    monkeypatch.setattr(geometry, "_caps_overlap", spy)
    rng = np.random.default_rng(12)
    classes = set()
    for g in (h, 4.0 * h):
        for b in _ips_at_gap_edge(g, rng):
            x = np.array([b, math.sqrt(1.0 - abs(b) ** 2)])
            monkeypatch.setattr(geometry, "_candidate_centers",
                                lambda *args: np.array([e1, x]))
            calls.clear()
            balls, _ = greedy_packing(Q, h)
            om = 1.0 - b
            gap = np.hypot(om.real, om.imag)
            if gap <= h:
                assert len(balls) == 1 and calls == [], gap
                classes.add("meets")
            elif gap <= 4.0 * h:
                assert len(calls) == 1, gap
                np.testing.assert_array_equal(calls[0], [b])
                classes.add("band")
            else:
                assert len(balls) == 2 and calls == [], gap
                classes.add("out")
    assert classes == {"meets", "band", "out"}


@pytest.mark.parametrize("d, delta, h", [(1, 0.6, 0.02), (2, 0.4, 0.03)])
def test_blocked_certificate_matches_dense_formula(monkeypatch, d, delta, h):
    # blocks of three balls, so every instance spans many blocks
    center = np.zeros(d, dtype=complex)
    center[0] = np.exp(0.7j)
    Q = NonisotropicBall(SpherePoint(center), delta)
    grid_n = 3000
    monkeypatch.setattr(geometry, "_CERT_BLOCK", 3 * grid_n)
    balls, cert = greedy_packing(Q, h, seed=4, certificate_grid=grid_n)
    centers = np.array([b.center.coords for b in balls])
    assert len(centers) > 9
    # the packing's own grid (seed + 1) and the dense formula on it
    grid = sample_cap(Q, grid_n, np.random.default_rng(5))
    gaps = np.abs(1.0 - grid @ np.conj(centers.T))
    inside, covered = (gaps <= h + TOL).sum(axis=1), \
        (gaps <= 2.0 * h + TOL).any(axis=1)
    got = _grid_certificate(grid, centers, h)
    np.testing.assert_array_equal(got[0], inside)
    np.testing.assert_array_equal(got[1], covered)
    assert cert.disjoint == bool((inside <= 1).all())
    assert cert.covered_fraction == float(covered.mean())


def test_packing_memory_does_not_grow_with_the_ball_count():
    # the dense certificate's gap matrices peaked at 78 MiB here
    Q = NonisotropicBall(SpherePoint(np.array([1.0 + 0j, 0j])), 0.4)
    tracemalloc.start()
    try:
        balls, cert = greedy_packing(Q, 0.02, certificate_grid=10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(balls) == 253 and cert.disjoint
    assert peak < 16 * 2 ** 20
