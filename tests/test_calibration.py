"""Ground-truth calibration: a measure whose condition (ii) is known from
a one-dimensional mpmath integral, checked at the command line's default
configuration (ExperimentConfig) in d = 1, 2 and 3.

Normalised volume nu (interior density 1) at p = 2: condition (ii) at w is

    (1 - |w|^2)^d int_0^1 2d r^(2d-1) (1 - r^2 |w|^2)^(-d) dr,

which tends to 0 as |w| -> 1 (in d = 1 it is
-(1 - |w|^2) log(1 - |w|^2) / |w|^2).  The kernel pass takes a radial
density on its slices, exact in angle, so what is left is the radial rule:
24 Gauss-Legendre nodes on [0, 1), which resolve the integrand to 1e-7 up
to |w| = 1 - 2^-4 and to 2e-3 at the default grid's last radius 1 - 2^-6.
"""

import mpmath
import numpy as np
import pytest

from revcarleson.cli import ExperimentConfig
from revcarleson.criteria import _rays, condition_ii_profile
from revcarleson.kernels import Exponents
from revcarleson.measures import BallMeasure, DensityExpr, _NodeTable


def _nu(d):
    return BallMeasure(d, interior_density=DensityExpr(1.0))


def _volume_ii(d, a):
    """Condition (ii) of nu at p = 2 and |w| = a, to 20 digits."""
    with mpmath.workdps(20):
        a = mpmath.mpf(float(a))
        radial = mpmath.quad(
            lambda r: 2 * d * r ** (2 * d - 1) * (1 - r * r * a * a) ** -d,
            [0, a, 1])
        return (1 - a * a) ** d * radial


@pytest.mark.parametrize("d", [1, 2, 3])
def test_volume_condition_ii_matches_its_radial_integral(d):
    cfg = ExperimentConfig(dim=d)
    prof = condition_ii_profile(_nu(d), Exponents(2.0, d), cfg.search(),
                                cfg.sphere(), cfg.radial())
    exact, worst = {}, {}
    for w, got in zip(prof.params, prof.values):
        a = float(np.linalg.norm(w))
        key = round(a, 12)
        if key not in exact:
            exact[key] = _volume_ii(d, a)
        rel = float(abs(got - exact[key]) / exact[key])
        worst[key] = max(worst.get(key, 0.0), rel)
        assert rel <= (1e-7 if a <= 1 - 2 ** -4 + 1e-12 else 2e-3), (a, rel)
    # every radius of the default search grid was seen
    assert len(worst) == cfg.search_kmax + 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_volume_slices_at_p_2_5_match_mpmath(d):
    # off p = 2 each slice's norm carries the factor
    # 2F1(d - pd/2, d - pd/2; d; |a|^2): the pass's integral of |k_w|^p
    # against nu is within 1e-12 of mpmath's
    # sum_j wr_j ||k_{rho r_j c}||_p^p at every default radius
    cfg, p = ExperimentConfig(dim=d), 2.5
    radial = cfg.radial()
    table = _NodeTable.build(_nu(d), cfg.sphere(), radial)
    c, ws = next(_rays(cfg.search()))
    ray = table.ray(c)
    for rho, _ in ws:
        got, _ = table.kernel_pass(ray, rho, p)
        with mpmath.workdps(50):
            e, want = d - mpmath.mpf(p) * d / 2, 0
            for r, wr in zip(radial.nodes, radial.weights):
                a2 = (mpmath.mpf(float(rho)) * mpmath.mpf(float(r))) ** 2
                want += mpmath.mpf(float(wr)) * (1 - a2) ** (
                    -d * (mpmath.mpf(p) - 1)) * mpmath.hyp2f1(e, e, d, a2)
        assert abs(got - want) <= 1e-12 * want, (rho, got, want)
