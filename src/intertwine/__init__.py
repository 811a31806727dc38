"""Pseudospectral simulator and verification harness for coupled pairs of the
2D periodic Navier-Stokes equations (nudging and direct-replacement families).
"""

from .spectral import (
    AliasingViolation,
    Grid,
    SpectralField,
    bilinear_B,
    frechet_DB,
    leray_project,
    project_high,
    project_low,
    random_field,
    stokes_apply,
    trilinear_b,
)
from .forcing import ForcingPair, SteadyForcing, TimePeriodicForcing, kolmogorov_force
from .dynamics import (
    BlowupDetected,
    IntertwinedState,
    IntertwiningMatrix,
    WrongMatrixClass,
    derived_views,
    integrate,
    integrate_many,
    residual_half_DB,
    residual_twisted,
    rhs_general,
)
from .diagnostics import (
    ConditionReport,
    ConstantsConfig,
    GrashofSet,
    calibrate_constants,
    check_dr_condition,
    check_K_log_condition,
    check_nudge_fdss_condition,
    check_nudge_ss_condition,
    check_theta_regime,
    check_uniform_bound,
    decay_detect,
    default_constants,
    heat_compare,
)

__version__ = "0.1.0"
