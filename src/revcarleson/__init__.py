"""Numerical toolkit for reverse Carleson criteria on Hardy spaces of the
unit ball of C^d and the associated necessary conditions for de
Branges-Rovnyak spaces."""

from .geometry import (BallPoint, CarlesonWindow, NonisotropicBall,
                       SpherePoint, greedy_packing, sigma_of_ball)
from .quadrature import (RadialRule, SphereGrid, integrate_sphere,
                         integrate_window, radial_rule, refine, sphere_grid)
from .measures import (BallMeasure, DensityExpr, integrate_measure,
                       load_measure, measure_of_ball, measure_of_window,
                       radon_nikodym_profile, sigma_measure)
from .kernels import (Exponents, TestFunction, cauchy_kernel, hp_norm,
                      kernel_norm, normalized_kernel, phi_h)
from .criteria import (CriterionProfile, SearchGrid, condition_ii_profile,
                       condition_iii_profile, equivalence_report,
                       forward_profile, reverse_inequality_witness,
                       window_profile)
from .dbr import (Symbol, dbr_kernel, eval_symbol, kernel_test, load_symbol,
                  necessary_condition_constant, one_minus_b_integral,
                  refute_sampling, sampling_candidate_measure)

__version__ = "0.1.0"
