"""Grouped self-sustainable RIS link simulator.

Closed-form outage and feasibility analysis for a relay-style reflecting
surface whose elements are partitioned into groups, with one group serving
the data link while all groups harvest RF energy, plus a seeded Monte Carlo
engine that validates every closed form.
"""

__version__ = "0.15.0"

from .bounds import (
    FeasibleInterval,
    rho_bounds_linear,
    rho_bounds_nonlinear,
    zeta_bounds_linear,
    zeta_bounds_nonlinear,
)
from .channel import (
    ChannelLaw,
    ChannelSnapshot,
    DegenerateFitError,
    GammaFit,
    SystemParams,
    channel_law,
    fit_gamma_product,
    mean_snr_scale,
    sample_channels,
)
from .energy import (
    EhModel,
    NONLINEAR_DEFAULT,
    harvest_rate,
)
from .evt import (
    BisectionError,
    EvtConstants,
    check_gumbel_domain,
    kth_limit_cdf,
    normalizing_constants,
    outage_evt,
)
from .selection import (
    RisMode,
    SelectionStrategy,
    fit_energy_distribution,
    outage_rgs,
    outage_sbgs,
    required_energy,
)
from .sim import (
    OutageEstimate,
    TrialConfig,
    analytic_outage,
    estimate_outage,
    sweep_points,
)
from .specfun import (
    ConvergenceError,
    reg_incomplete_beta,
    reg_lower_incomplete_gamma,
)

__all__ = [
    "BisectionError",
    "ChannelLaw",
    "ChannelSnapshot",
    "ConvergenceError",
    "DegenerateFitError",
    "EhModel",
    "EvtConstants",
    "FeasibleInterval",
    "GammaFit",
    "NONLINEAR_DEFAULT",
    "OutageEstimate",
    "RisMode",
    "SelectionStrategy",
    "SystemParams",
    "TrialConfig",
    "analytic_outage",
    "channel_law",
    "check_gumbel_domain",
    "estimate_outage",
    "fit_energy_distribution",
    "fit_gamma_product",
    "harvest_rate",
    "kth_limit_cdf",
    "mean_snr_scale",
    "normalizing_constants",
    "outage_evt",
    "outage_rgs",
    "outage_sbgs",
    "reg_incomplete_beta",
    "reg_lower_incomplete_gamma",
    "required_energy",
    "rho_bounds_linear",
    "rho_bounds_nonlinear",
    "sample_channels",
    "sweep_points",
    "zeta_bounds_linear",
    "zeta_bounds_nonlinear",
]
