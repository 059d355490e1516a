"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen.  Three criteria check a standard fact rather than the naive constant
one might first write down, each at the bound the fact supports:

* criterion 1: the closed form (1-|w|^2)^{-d/q} is the H^p norm of k_w only
  at p = 2.  The exact norm is that closed form times
  2F1(d-pd/2, d-pd/2; d; |w|^2)^{1/p} (Rudin, Function Theory in the Unit
  Ball of C^n, Prop. 1.4.10, then Euler's transformation), and the factor
  lies in [1, (Gamma(d) Gamma(pd-d) / Gamma(pd/2)^2)^{1/p}], with equality
  at p = 2.  The quadrature is held to 1e-6 against the exact value over the
  whole (d, p, |w|, direction) sweep; the d = 2, |w| = 0.9 norms use a finer
  torus rule, because its phase aliasing decays only like |w|^n;
* criterion 2: off the closed cap the weight (1-|w|^2)^{pd-d} <= (2h)^{pd-d}
  on S_{Q,h} makes Phi_h(z) of order h^{pd-d} = h, so Phi_{2^-8} /
  Phi_{2^-1} is about 2^-7 times a z-dependent pre-asymptotic factor (the
  ratio reads 0.0099 to 0.0785 at the 50 sample points) and no fixed constant
  such as 0.01 is the statement; the decay clause checks strict decrease and
  a log-log slope within 10% of pd - d (measured 0.946 to 0.997);
* criterion 5: rho = |1 - <.,.>|^{1/2} is a metric (Rudin, Prop. 5.1.2), so
  a maximal disjoint family Q(c_j, h) covers by Q(c_j, 4h): doubling the
  metric radius multiplies delta by 4.  In d = 1 the gap |1 - <.,.>| is
  itself a metric (the chordal distance) and Q(c_j, 2h) covers; in d >= 2
  it is not, and Q(c_j, 2h) misses up to 10% of Q.  greedy_packing admits
  every centre of Q, so the d >= 2 cover is checked at uniform points of all
  of Q; the worst dilation needed there is 3.98.
"""

import math

import numpy as np
import pytest
from scipy.special import gamma, hyp2f1

from revcarleson.criteria import (SearchGrid, condition_ii_profile,
                                  equivalence_report)
from revcarleson.dbr import (Symbol, dbr_kernel, kernel_test,
                             necessary_condition_constant,
                             one_minus_b_integral, refute_sampling,
                             sampling_candidate_measure)
from revcarleson.geometry import (BallPoint, CarlesonWindow, NonisotropicBall,
                                  SpherePoint, greedy_packing, sample_cap,
                                  sample_sphere)
from revcarleson.kernels import (Exponents, cauchy_kernel, kernel_norm, phi_h)
from revcarleson.measures import (BallMeasure, DensityExpr,
                                  measure_of_window, radon_nikodym_profile,
                                  sigma_measure)
from revcarleson.quadrature import radial_rule, sphere_grid

E1 = SpherePoint(np.array([1.0 + 0j]))


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def circle512():
    return sphere_grid(1, 512)


@pytest.fixture(scope="module")
def circle2048():
    return sphere_grid(1, 2048)


@pytest.fixture(scope="module")
def rad1():
    return radial_rule(1, 24)


def test_criterion_01_kernel_norm_identity(circle512):
    rng = np.random.default_rng(3)
    worst, worst_at = 0.0, None
    two_sided = True
    for d in (1, 2):
        coarse = circle512 if d == 1 else sphere_grid(2, 64)
        # the torus rule is a trapezoid rule in the phase of zeta_1, whose
        # aliasing error decays like |w|^n at n points per axis: at
        # |w| = 0.9, 64 per axis misses the exact norm by 4.9e-4, 2.1e-3 and
        # 1.4e-2 at p = 4/3, 2, 4; 192 per axis brings the worst to 1.4e-7
        fine = circle512 if d == 1 else sphere_grid(2, 192)
        dirs = (np.eye(d, dtype=complex)[0], sample_sphere(d, 1, rng)[0])
        for p in (4.0 / 3.0, 2.0, 4.0):
            ex = Exponents(p, d)
            a_hyp = d - p * d / 2
            factor_cap = (gamma(d) * gamma(p * d - d)
                          / gamma(p * d / 2) ** 2) ** (1.0 / p)
            for a in (0.0, 0.3, 0.6, 0.9):
                grid = fine if a == 0.9 else coarse
                for u in dirs:
                    w = a * u
                    closed = kernel_norm(w, ex)
                    exact = closed * hyp2f1(a_hyp, a_hyp, d, a * a) ** (1 / p)
                    quad = kernel_norm(w, ex, grid)
                    rel = abs(quad - exact) / exact
                    if rel > worst:
                        worst, worst_at = rel, (d, round(p, 3), a)
                    two_sided &= (1 - 1e-6 <= quad / closed
                                  <= factor_cap * (1 + 1e-6))
    _report(1, "kernel-norm-identity", worst <= 1e-6 and two_sided,
            f"max rel err vs closed*2F1^(1/p) {worst:.3e} at "
            f"(d,p,|w|)={worst_at}; 1 <= quad/closed <= "
            f"(G(d)G(pd-d)/G(pd/2)^2)^(1/p): {two_sided}")


def test_criterion_02_balayage_bounded_and_decaying(circle2048):
    ex = Exponents(2.0, 1)
    Q = NonisotropicBall(E1, 0.5)
    rng = np.random.default_rng(11)
    z = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 200))
    gap = np.abs(1 - z / np.abs(np.where(np.abs(z) > 0, z, 1)))
    outside = np.flatnonzero(gap > 0.5)[:50]
    hs = [2.0 ** -k for k in range(1, 9)]
    values = {}
    for h in hs:
        rad = radial_rule(1, 16, h)
        values[h] = np.array([phi_h(np.array([zz]), Q, h, ex, circle2048, rad)
                              for zz in z])
    maxes = [values[h].max() for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(maxes), 1)[0])
    bounded = slope >= -0.05
    # off the closed cap, (1-|w|^2)^(pd-d) <= (2h)^(pd-d) on S_{Q,h} makes
    # Phi_h(z) of order h^(pd-d): the decay is a rate, whose constant
    # carries a z-dependent pre-asymptotic factor.  Strict decrease over
    # h = 2^-5 .. 2^-8; the log-log slope over the finest three depths
    rate = ex.p * ex.d - ex.d
    fine = np.array([values[h][outside] for h in hs[4:]])
    decreasing = bool(np.all(np.diff(fine, axis=0) < 0))
    slopes = np.polyfit(np.log(hs[5:]), np.log(fine[1:]), 1)[0]
    decayed = decreasing and bool(
        np.all(np.abs(slopes - rate) <= 0.1 * rate))
    _report(2, "balayage-bounded-and-decaying", bounded and decayed,
            f"slope {slope:.3f}; off-cap decay slope in "
            f"[{slopes.min():.3f}, {slopes.max():.3f}] vs pd-d = {rate:g}; "
            f"strictly decreasing {decreasing}")


def test_criterion_03_equivalence_positive(circle2048, rad1):
    ok, details = True, []
    for d, grid, rad in ((1, circle2048, rad1),
                         (2, sphere_grid(2, 48), radial_rule(2, 24))):
        rep = equivalence_report(sigma_measure(d), Exponents(2.0, d),
                                 SearchGrid(d, 6, 3), grid, rad,
                                 refinements=2)
        vals = [rep.conditions[t].trend[-1] for t in ("i", "ii", "iii")]
        vals.append(rep.forward_extremal)
        ok &= all(0.9 <= v <= 1.1 for v in vals)
        details.append(f"d={d}: " + ",".join(f"{v:.3f}" for v in vals))
    _report(3, "equivalence-positive-sigma", ok, "; ".join(details))


def test_criterion_04_equivalence_degenerate(circle2048, rad1):
    mu = BallMeasure(1, interior_atoms=((BallPoint(np.array([0j])), 1.0),))
    rep = equivalence_report(mu, Exponents(2.0, 1), SearchGrid(1, 6, 6),
                             circle2048, rad1, refinements=4)
    ok = True
    for tag in ("i", "ii", "iii"):
        trend = rep.conditions[tag].trend
        ok &= trend[-1] <= 1e-2
        # the atom value at radius 1 - 2^-k is 2^-k (2 - 2^-k), whose step
        # ratio is 0.5 (1 + 2^-k-1) > 0.5; allow 1% slack on the halving
        ok &= all(b <= 0.505 * a + 1e-15 for a, b in zip(trend, trend[1:]))
        ok &= rep.conditions[tag].verdict == "degenerate"
    _report(4, "equivalence-degenerate-atom", ok,
            "finest " + ",".join(f"{rep.conditions[t].trend[-1]:.2e}"
                                 for t in ("i", "ii", "iii")))


def test_criterion_05_packing_instances(circle512, rad1):
    rng = np.random.default_rng(0)
    # covering points come from their own stream, so the instances and the
    # additivity atoms drawn from rng are those of the certificate checks
    cover_rng = np.random.default_rng(5)
    all_disjoint, all_covered = True, True
    worst_cover = 1.0
    add_err = 0.0
    needed = {1: 0.0, 2: 0.0}
    for i in range(100):
        d = 1 if i < 50 else 2
        center = SpherePoint(sample_sphere(d, 1, rng)[0])
        delta = float(rng.uniform(0.15, 0.6))
        h = float(rng.uniform(delta / 16, delta / 5))
        Q = NonisotropicBall(center, delta)
        balls, cert = greedy_packing(Q, h, seed=i, certificate_grid=10000)
        all_disjoint &= cert.disjoint
        worst_cover = min(worst_cover, cert.covered_fraction)
        # the dilation Q(c_j, r h) that reaches each point of Q: r = 2 in
        # d = 1, where the gap is the chordal metric; r = 4 in d >= 2, where
        # only rho is a metric.  greedy_packing admits every centre of Q, so
        # the Vitali argument holds at every point of Q up to the spacing of
        # its candidate grid; over all of Q the worst dilation is 3.98
        # (instance 90, by 10^6 points and a local search; 3.60 at these)
        pts = sample_cap(Q, 10000, cover_rng)
        centers = np.array([b.center.coords for b in balls])
        r = np.abs(1.0 - pts @ np.conj(centers.T)).min(axis=1) / h
        needed[d] = max(needed[d], float(r.max()))
        if d == 1:
            all_covered &= cert.covered_fraction == 1.0
        else:
            all_covered &= bool(np.all(r <= 4.0))
        if d == 1 and i % 10 == 0:
            # additivity over the disjoint windows, for a purely atomic mu
            pts = 0.97 * sample_sphere(1, 30, rng)
            mu = BallMeasure(1, interior_atoms=tuple(
                (BallPoint(p), 1.0) for p in pts))
            windows = [CarlesonWindow(b, h) for b in balls]
            total = sum(measure_of_window(mu, S, circle512, rad1)
                        for S in windows)
            union = sum(
                m for pt, m in mu.interior_atoms
                if any(S.contains_coords(pt.coords[None, :])[0]
                       for S in windows))
            add_err = max(add_err, abs(total - union))
    ok = all_disjoint and all_covered and add_err <= 1e-12
    _report(5, "maximal-packing-disjoint-and-covering", ok,
            f"disjoint={all_disjoint}, worst dilation needed "
            f"{needed[1]:.3f} (d=1, vs 2), {needed[2]:.3f} (d=2, vs 4); "
            f"Q(c_j, 2h) covers {worst_cover:.3f}; "
            f"additivity err={add_err:.1e}")


def test_criterion_06_radon_nikodym_differentiation():
    g_expr = DensityExpr({"sum": [1.0, {"prod": [0.5, {"re": 0}]}]})
    mu = BallMeasure(1, boundary_density=g_expr)
    grid = sphere_grid(1, 65536)
    rng = np.random.default_rng(21)
    centers = [SpherePoint(c) for c in sample_sphere(1, 10, rng)]
    deltas = [2.0 ** -k for k in range(3, 10)]
    prof = radon_nikodym_profile(mu, centers, deltas, grid)
    ok = True
    worst = 0.0
    for i, c in enumerate(centers):
        target = 1.0 + 0.5 * float(np.real(c.coords[0]))
        err = abs(prof.ratios[i, -1] - target) / target
        worst = max(worst, err)
        ok &= err <= 0.05
    _report(6, "radon-nikodym-differentiation", ok,
            f"worst rel err {worst:.4f} at delta=2^-9")


def test_criterion_07_hb_reduction_to_hardy(circle2048, rad1):
    rng = np.random.default_rng(5)
    ok = True
    for d in (1, 2):
        b = Symbol("constant", d, 0j)
        for _ in range(10):
            w = rng.uniform(0, 0.95) * sample_sphere(d, 1, rng)[0]
            z = rng.uniform(0, 0.95) * sample_sphere(d, 1, rng)[0]
            kb = dbr_kernel(b, w, z)
            kc = cauchy_kernel(w, z)
            ok &= abs(kb - kc) <= 1e-12 * abs(kc)
    sg = SearchGrid(1, 6, 4)
    mu = sigma_measure(1)
    prof_b = kernel_test(mu, Symbol("constant", 1, 0j), sg, circle2048, rad1)
    prof_2 = condition_ii_profile(mu, Exponents(2.0, 1), sg, circle2048, rad1)
    entrywise = float(np.max(np.abs(prof_b.values - prof_2.values)))
    ok &= entrywise <= 1e-10
    _report(7, "hb-reduces-to-hardy-at-b-zero", ok,
            f"profile gap {entrywise:.2e}")


def test_criterion_08_necessary_constant(circle2048):
    b = Symbol("constant", 1, 0.5 + 0j)
    nc = necessary_condition_constant(b, 1.0, circle2048)
    ok = abs(nc.value - 4.0 / 3.0) <= 1e-12
    half = lambda z: (np.real(z[:, 0]) > 0).astype(float)
    nc0 = necessary_condition_constant(b, half, circle2048)
    ok &= math.isinf(nc0.value) and len(nc0.violating_nodes) > 0
    _report(8, "necessary-constant-value-and-blowup", ok,
            f"C*={nc.value!r}, vanishing-density flag={nc0.value}")


def test_criterion_09_integrability_obstruction(circle2048):
    v1 = one_minus_b_integral(
        Symbol("polynomial", 1, ((0.5 + 0j, (0,)), (0.5 + 0j, (1,)))),
        circle2048, refinements=3)
    ok = v1.verdict == "divergent"
    ok &= all(b >= 1.5 * a for a, b in zip(v1.estimates, v1.estimates[1:]))
    v2 = one_minus_b_integral(Symbol("constant", 1, 0.5 + 0j), circle2048)
    ok &= v2.verdict == "finite"
    ok &= abs(v2.estimates[-1] - 2.0) <= 0.02 * 2.0
    v3 = one_minus_b_integral(Symbol("polynomial", 3, ((1.0 + 0j, (1, 0, 0)),)),
                              sphere_grid(3, 20000, seed=0), refinements=3)
    ok &= v3.verdict == "finite"
    _report(9, "one-minus-b-integrability", ok,
            f"verdicts {v1.verdict}/{v2.verdict}/{v3.verdict}, "
            f"const value {v2.estimates[-1]:.4f}")


def test_criterion_10_sampling_refutation(circle2048, rad1):
    b = Symbol("constant", 1, 0.5 + 0j)
    pts = [np.array([(1 - 2.0 ** -j) + 0j]) for j in range(1, 11)]
    mu = sampling_candidate_measure(b, pts)
    ok = mu.boundary_density is None and mu.boundary_atoms == ()
    rep = refute_sampling(b, pts, SearchGrid(1, 6, 5), circle2048, rad1,
                          refinements=4)
    trend = rep.kernel_test_trend
    ok &= rep.verdict == "refuted"
    ok &= trend[-1] <= 1e-2
    ok &= all(t2 < t1 for t1, t2 in zip(trend, trend[1:]))
    inner = Symbol("blaschke", 1, ((0.5 + 0j,), 1.0 + 0j))
    rep2 = refute_sampling(inner, pts, SearchGrid(1, 6, 4), circle2048, rad1)
    ok &= rep2.verdict == "inconclusive"
    _report(10, "sampling-sequence-refutation", ok,
            f"finest min {trend[-1]:.2e}; inner verdict {rep2.verdict}")


def test_criterion_11_gram_positivity():
    rng = np.random.default_rng(17)
    symbols = [Symbol("constant", 1, 0j),
               Symbol("constant", 1, 0.5 + 0j),
               Symbol("constant", 1, 0.3 - 0.4j),
               Symbol("blaschke", 1, ((0.5 + 0j,), 1.0 + 0j)),
               Symbol("blaschke", 1, ((0.2 + 0j, -0.6j), 1.0 + 0j)),
               Symbol("polynomial", 1, ((0.25 + 0j, (0,)), (0.25 + 0j, (1,)))),
               Symbol("polynomial", 2, ((0.9 + 0j, (1, 1)),))]
    worst = 0.0
    for trial in range(50):
        b = symbols[trial % len(symbols)]
        m = int(rng.integers(2, 9))
        ws = rng.uniform(0, 0.9, m)[:, None] * sample_sphere(b.d, m, rng)
        G = np.array([[dbr_kernel(b, wj, wi) for wj in ws] for wi in ws])
        worst = min(worst, float(np.linalg.eigvalsh(G).min()))
    _report(11, "gram-matrices-psd", worst >= -1e-10,
            f"smallest eigenvalue {worst:.2e}")


def test_criterion_12_deterministic_reports(tmp_path):
    from revcarleson.cli import main
    sym = tmp_path / "b.yaml"
    sym.write_text("kind: constant\ndimension: 1\ndata: {value: [0.5, 0.0]}\n")
    pts = tmp_path / "w.yaml"
    pts.write_text("points:\n- [[0.5, 0.0]]\n- [[0.75, 0.0]]\n")
    commands = [
        ["verify-kernels", "--dim", "1", "--resolution", "512"],
        ["criteria", "--dim", "1", "--resolution", "512"],
        ["equivalence", "--dim", "1", "--resolution", "512",
         "--refinements", "2"],
        ["pack", "--dim", "1", "--delta", "0.5", "--h", "0.1",
         "--grid-points", "1000"],
        ["dbr-check", "--dim", "1", "--symbol", str(sym),
         "--resolution", "512"],
        ["refute-sampling", "--dim", "1", "--symbol", str(sym),
         "--points", str(pts), "--resolution", "512",
         "--refinements", "2"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        a, b = tmp_path / f"{i}a.json", tmp_path / f"{i}b.json"
        ra = main(argv + ["--seed", "0", "--out", str(a)])
        rb = main(argv + ["--seed", "0", "--out", str(b)])
        ok &= ra == rb and ra in (0, 1)
        ok &= a.read_bytes() == b.read_bytes()
    _report(12, "byte-identical-reports", ok,
            f"{len(commands)} subcommands, two runs each")
