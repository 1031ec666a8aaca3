"""Specular-derivative toolkit.

Scalar kernels for the bisecting-slope average, assembly of specular
directional derivatives and gradients, a convex objective catalog with
analytic one-sided oracles, the SPEG family of nonsmooth optimizers with
GD/Adam baselines, and a seeded elastic-net benchmark harness.
"""

__version__ = "0.1.0"

from .objectives import (
    DiagonalLasso,
    ElasticNetComponent,
    ElasticNetProblem,
    Objective,
    PiecewiseScalar,
    sum_abs,
)
from .optimizers import (
    Box,
    EuclideanBall,
    RunRecord,
    StepSchedule,
    adam_run,
    basic_inequality_bound,
    gd_run,
    hspeg_run,
    projected_speg_step,
    speg_run,
    sspeg_run,
)
from .scalar import INFINITY_THRESHOLD, afun, afun_array, afun_tan_form, bfun
from .specular import (
    FdEstimate,
    HypothesisViolationError,
    OneSidedPair,
    fd_specular_directional,
    frechet_residual,
    specular_directional,
    specular_from_one_sided,
    specular_gradient,
    specular_jacobian,
)
from .harness import (
    ExperimentConfig,
    MethodStats,
    TrialStats,
    aggregate_stats,
    run_trials,
    sample_instance,
    substream,
)

__all__ = [
    "INFINITY_THRESHOLD",
    "afun",
    "afun_array",
    "afun_tan_form",
    "bfun",
    "OneSidedPair",
    "FdEstimate",
    "HypothesisViolationError",
    "fd_specular_directional",
    "frechet_residual",
    "specular_directional",
    "specular_from_one_sided",
    "specular_gradient",
    "specular_jacobian",
    "Objective",
    "ElasticNetProblem",
    "ElasticNetComponent",
    "DiagonalLasso",
    "PiecewiseScalar",
    "sum_abs",
    "StepSchedule",
    "RunRecord",
    "speg_run",
    "sspeg_run",
    "hspeg_run",
    "gd_run",
    "adam_run",
    "projected_speg_step",
    "EuclideanBall",
    "Box",
    "basic_inequality_bound",
    "ExperimentConfig",
    "MethodStats",
    "TrialStats",
    "aggregate_stats",
    "run_trials",
    "sample_instance",
    "substream",
]
