"""Effective capacity of two-user downlink NOMA with finite-blocklength coding.

Cross-validated analytics (closed forms, quadrature oracle, Monte-Carlo) for
the link-layer rate and queueing-delay-violation behavior of a power-domain
NOMA pair drawn from an ordered Rayleigh user pool, plus a block-level queue
simulator that checks the tail laws empirically.
"""

from .channel import (SystemConfig, db_to_linear, gain_for_gamma,
                      gamma_for_role, ordered_cdf, ordered_pdf,
                      ordered_quantile)
from .delay import DelayPoint, delay_violation_curve, delay_violation_prob
from .eccalc import (EcResult, EvalControls, ec_closed_strong, ec_closed_weak,
                     ec_monte_carlo, ec_quadrature, evaluate)
from .fblrate import (KernelParams, dispersion_root, ec_kernel, fbl_rate,
                      make_kernel_params)
from .queuesim import (QueueStats, SimSpec, fit_tail_exponent, run_queue_sim,
                       simulate_workload)
from .specfun import (ConvergenceError, InsufficientDataError, beta_fn,
                      exp_integral_ei, gaussian_q, gaussian_q_inv, tricomi_u)
from .sweep import (ResultRow, SweepSpec, ValidationReport, figure_preset,
                    load_sweep_config, read_rows, run_sweep, validate_report,
                    write_rows)

__version__ = "0.1.0"
