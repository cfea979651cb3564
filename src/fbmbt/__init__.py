"""fbmbt: simulation and statistical verification of the time-changed
process Z = X(Y), where X is two-sided fractional Brownian motion and Y an
independent Brownian clock.

Modules
-------
fgn         exact-covariance samplers and covariance kernels
skeleton    dyadic hitting-time structure of the Brownian clock
variations  Hermite machinery and symmetric weighted power variations
calculus    change-of-variable residuals, correction term, branch checks
scaling     quadratic/cubic variation scaling laws for plain fBm
stats       KS tests, Monte Carlo summaries, log2-slope fits
criteria    the acceptance criteria C1-C12 and the identity checks selftest runs
cli         command-line front end (``fbmbt`` entry point)
"""

from .calculus import (KAPPA3, JointSample, TaylorScheme, VerificationReport,
                       VerifyConfig, correction_std, ito_residual,
                       sample_joint, taylor_coefficients, verify_branch)
from .fgn import (BmPath, FbmPath, HurstParameter, fbm_covariance,
                  increment_autocovariance, sample_bm, sample_fbm_two_sided,
                  sample_fgn)
from .scaling import ScalingReport, check_cubic, check_quadratic
from .skeleton import (CrossingCounts, SkeletalStructure, crossing_counts,
                       sample_walk_exact, updown_difference)
from .stats import KsResult, SampleSummary, fit_log2_slope, ks_two_sample
from .streams import SeedRecord
from .variations import (SmoothFunction, hermite, odd_power_hermite_coeffs,
                         symmetric_cell_sum, symmetric_variation_direct,
                         weighted_hermite_variation)

__version__ = "0.1.0"
