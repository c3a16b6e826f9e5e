"""Brownian bridge simulation on the flat torus.

A plane diffusion pulled toward the nearest lattice lift of a torus
point projects onto a bridge on the torus; this package simulates that
proposal process, the exact bridge with its wrapped-Gaussian drift, and
the free and single-endpoint reference processes, together with
Girsanov reweighting and the batch statistics that compare them.
"""

from .geometry import (
    nearest_offset,
    project,
    torus_distance,
)
from .drift import (
    DriftModel,
    EuclideanBridge,
    FreeBrownianMotion,
    HorizonError,
    ProposedBridge,
    TrueBridge,
    VARIANTS,
    drift,
    wrapped_gaussian_log_density,
)
from .engine import (
    BatchResult,
    PathSample,
    SimConfig,
    config_from_dict,
    config_to_dict,
    euler_step,
    simulate_batch,
    simulate_path,
    wiener_increments,
)
from .girsanov import (
    drift_bound_constant,
    log_girsanov_weight,
)
from .analysis import (
    AgreementReport,
    EndpointHistogram,
    TerminalSummary,
    agreement_rate,
    drift_field,
    lattice_endpoint_histogram,
    terminal_convergence,
    terminal_distances,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "project",
    "nearest_offset",
    "torus_distance",
    # drift models
    "DriftModel",
    "FreeBrownianMotion",
    "EuclideanBridge",
    "ProposedBridge",
    "TrueBridge",
    "VARIANTS",
    "HorizonError",
    "drift",
    "wrapped_gaussian_log_density",
    # engine
    "SimConfig",
    "PathSample",
    "BatchResult",
    "euler_step",
    "wiener_increments",
    "simulate_path",
    "simulate_batch",
    "config_to_dict",
    "config_from_dict",
    # measure change
    "log_girsanov_weight",
    "drift_bound_constant",
    # analysis
    "TerminalSummary",
    "EndpointHistogram",
    "AgreementReport",
    "terminal_distances",
    "terminal_convergence",
    "lattice_endpoint_histogram",
    "agreement_rate",
    "drift_field",
]
