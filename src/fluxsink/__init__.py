"""Partial-wave scattering and absorption on magnetic flux lines.

Two singular attractive potentials around an Aharonov-Bohm flux line:
an inverse-square core (channels: closed forms per mode, plus an
independent radial-integration oracle) and an inverse-quartic core
(quartic: connection matrices between exact endpoint wave bases).  Both
take the same boundary models (channels).  The cli module drives
scenario files, parameter sweeps, and the self-check suite; scenario
holds the config schema.  The top level re-exports the names the README
documents; everything else lives in the submodules.
"""

from .channels import (
    Custom,
    Elastic,
    ElasticSubcritical,
    ElasticSupercritical,
    ScatteringConfig,
    Sink,
    TotalAbsorption,
    classify_mode,
    solve_channel,
)
from .errors import (
    ConfigError,
    DegenerateModeError,
    DegenerateOrderError,
    FitDegenerateError,
    FluxsinkError,
    ForwardDirectionError,
    IncompleteRangeError,
    ModelRegimeMismatch,
    PoleError,
    RangeError,
    StiffnessError,
    UnitarityViolation,
)
from .oracle import oracle_smatrix
from .quartic import QuarticConfig, capture_probability
from .scenario import load_scenario, write_scenario

__version__ = "0.1.0"

__all__ = [
    "Custom",
    "Elastic",
    "ElasticSubcritical",
    "ElasticSupercritical",
    "ScatteringConfig",
    "Sink",
    "TotalAbsorption",
    "classify_mode",
    "solve_channel",
    "ConfigError",
    "DegenerateModeError",
    "DegenerateOrderError",
    "FitDegenerateError",
    "FluxsinkError",
    "ForwardDirectionError",
    "IncompleteRangeError",
    "ModelRegimeMismatch",
    "PoleError",
    "RangeError",
    "StiffnessError",
    "UnitarityViolation",
    "oracle_smatrix",
    "QuarticConfig",
    "capture_probability",
    "load_scenario",
    "write_scenario",
    "__version__",
]
