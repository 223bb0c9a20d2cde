"""Exception types raised by the public API.

Every error carries enough context (argument values, positions) to
reproduce the failing call.
"""


class FluxsinkError(Exception):
    """Base class for all package errors."""


class PoleError(FluxsinkError):
    """Gamma function evaluated at a non-positive real integer."""


class RangeError(FluxsinkError):
    """Argument outside the supported evaluation box."""


class DegenerateModeError(FluxsinkError):
    """Partial mode sits on a regime boundary (mu = 0 or the upper edge)."""


class UnitarityViolation(FluxsinkError):
    """Coefficient ratio implies |S| > 1 (outgoing flux exceeds ingoing)."""


class ForwardDirectionError(FluxsinkError):
    """Scattering angle inside the excluded forward cone."""


class IncompleteRangeError(FluxsinkError):
    """Mode range misses a non-Regular mode that carries absorption."""


class StiffnessError(FluxsinkError):
    """Radial integration step collapsed or dynamic range exhausted."""


class FitDegenerateError(FluxsinkError):
    """Asymptotic fit basis is degenerate or the window is under-resolved."""


class ConfigError(FluxsinkError):
    """Scenario file is malformed or inconsistent."""


class ModelRegimeMismatch(ConfigError):
    """Boundary model applied to a mode regime it does not describe."""
