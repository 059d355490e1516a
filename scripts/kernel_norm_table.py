"""Print closed-form, exact and quadrature Cauchy-kernel norms over a
(d, p, |w|) sweep.  The closed form (1-|w|^2)^(-d/q) is exact only at p = 2;
the exact norm is the closed form times the 2F1 factor of
kernels._norm_factor to the power 1/p, and `rel err` is the quadrature's
error against it.  The closed/exact gap, which grows away from p = 2, is
visible at a glance."""

import numpy as np

from revcarleson.kernels import Exponents, _norm_factor, kernel_norm
from revcarleson.quadrature import sphere_grid


def main():
    print(f"{'d':>2} {'p':>6} {'|w|':>5} {'closed':>12} {'exact':>12} "
          f"{'quad':>12} {'rel err':>10}")
    for d, res in ((1, 2048), (2, 48)):
        grid = sphere_grid(d, res)
        e1 = np.zeros(d, dtype=complex)
        e1[0] = 1.0
        for p in (4.0 / 3.0, 2.0, 4.0):
            ex = Exponents(p, d)
            for a in (0.0, 0.3, 0.6, 0.9):
                closed = kernel_norm(a * e1, ex)
                exact = closed * _norm_factor(a * a, ex) ** (1.0 / p)
                quad = kernel_norm(a * e1, ex, grid)
                rel = abs(quad - exact) / exact
                print(f"{d:>2} {p:>6.3f} {a:>5.1f} {closed:>12.6f} "
                      f"{exact:>12.6f} {quad:>12.6f} {rel:>10.2e}")


if __name__ == "__main__":
    main()
