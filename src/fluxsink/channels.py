"""Partial-wave channels for a flux line with an attractive 1/rho^2 core.

The radial equation for angular index m is Bessel-like with effective
order nu^2 = (m - beta)^2 - gamma^2, beta the flux in flux-quantum units
and gamma^2 = 2 M kappa^2 the core strength.  Three regimes:

* Regular      |m - beta| > sqrt(1 + gamma^2): only J_mu is admissible,
               nothing to choose, the mode scatters elastically.
* Subcritical  gamma < |m - beta| < sqrt(1 + gamma^2): both rho^{+mu} and
               rho^{-mu} behaviors are normalizable; a one-parameter
               family of elastic boundary conditions (l_m) exists.
* Supercritical |m - beta| < gamma: the order is imaginary, the solution
               oscillates in ln rho near the origin ("fall to the
               center"); boundary models range from elastic reflection
               (theta_m) through a perfectly absorbing sink.

Conventions: time dependence e^{-iEt}, so H^(1) is outgoing and H^(2)
ingoing; asymptotic channel form R_m ~ a_m H^(1)_ord + b_m H^(2)_ord with
ord = mu (subcritical) or i mu (supercritical).  Internally b_m = 1; all
observables depend on the ratio a_m / b_m only.  S-matrix phases:

    Regular        S_m = e^{i pi (m - mu)}
    Subcritical    S_m = e^{i pi (m - mu)} (a_m / b_m)
    Supercritical  S_m = e^{i pi m} e^{pi mu} (a_m / b_m)

Default mass M = 1/2 makes the stationary equation read
R'' + R'/rho + (p^2 - nu^2/rho^2) R = 0 with no stray factors.

The boundary models below are the one vocabulary of the package: an
absorption model is a choice of exact solution near the singular core,
and the same classes serve the inverse-quartic core (quartic module).
Each config class (ScatteringConfig here, QuarticConfig there) is the
only place that knows its potential: scenario files, the CLI and the
amplitude assembly go through its KIND, COUPLING, required_modes, solve,
amplitudes and differential.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateModeError,
    ForwardDirectionError,
    IncompleteRangeError,
    ModelRegimeMismatch,
    UnitarityViolation,
)
from .specfun import complex_gamma

__all__ = [
    "Regime",
    "ScatteringConfig",
    "PartialMode",
    "Elastic",
    "ElasticSubcritical",
    "ElasticSupercritical",
    "Sink",
    "TotalAbsorption",
    "Custom",
    "ChannelSolution",
    "classify_mode",
    "nonregular_modes",
    "solve_channel",
    "physical_coefficients",
    "partial_current",
    "amplitude",
    "amplitudes",
    "ab_amplitude_closed",
    "PHI_MIN",
]

# forward-cone exclusion for the scattering amplitude (rad); the flux-line
# amplitude diverges at phi = 0 like 1/sin(phi/2)
PHI_MIN = 1e-3

# half-width of the critical bands treated as degenerate
REGIME_EPS = 1e-9

MODES_MAX = 10**5  # most modes a run solves: an explicit range or a total-absorption window
PAIR_BUDGET = 2**18  # most float64 values (2 MiB) _amplitude_grid holds for the +m partners of modes -m

# largest core strength: supercritical orders mu <= gamma need e^(-pi mu)
# to stay a normal double, i.e. gamma <= -ln(float_min)/pi ~ 225.49
GAMMA_MAX = -math.log(sys.float_info.min) / math.pi


class Regime:
    REGULAR = "Regular"
    SUBCRITICAL = "Subcritical"
    SUPERCRITICAL = "Supercritical"


class _Amplitudes:
    """amplitudes and differential of a potential from its float64 (Re f, Im f) pass, _grid."""

    def amplitudes(self, solutions: list, phis) -> list[complex]:
        re, im = self._grid(solutions, phis)
        return list(map(complex, re.tolist(), im.tolist()))

    def differential(self, solutions: list, phis) -> np.ndarray:
        """d sigma/d phi = |f(phi)|^2 as float64, bit for bit abs(f) ** 2 over amplitudes; inf past a double."""
        with np.errstate(over="ignore"):
            return np.float_power(np.hypot(*self._grid(solutions, phis)), 2.0)


@dataclass(frozen=True)
class ScatteringConfig(_Amplitudes):
    """Potential and kinematics: flux beta, core strength gamma, wavenumber p.

    gamma^2 = 2 M kappa^2 for core potential -kappa^2 / rho^2.  mass enters
    only through probability-current normalization.
    """

    KIND = "inverse_square"  # [potential] kind in scenario files
    COUPLING = "gamma"  # core-strength field, scenario key and sweep axis
    ELASTIC_KEYS = ("l", "theta")  # Elastic parameters this core reads
    WINDOW_KEYS = ("n_minus", "n_plus")  # scenario keys of a TotalAbsorption window
    WINDOW_LABEL = "total_absorption(window=[{lo}, {hi}])"
    REQUIRED = "non-Regular modes"  # what required_modes returns, for messages

    beta: float
    gamma: float
    p: float
    mass: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and 0.0 <= self.beta < 1.0):
            raise ConfigError(f"beta={self.beta} outside [0, 1)")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ConfigError(f"gamma={self.gamma} must be finite and >= 0")
        if self.gamma > GAMMA_MAX:
            raise ConfigError(f"gamma={self.gamma} above {GAMMA_MAX:.4f} (e^(-pi gamma) subnormal)")
        if not (math.isfinite(self.p) and self.p > 0.0):
            raise ConfigError(f"p={self.p} must be finite and > 0")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ConfigError(f"mass={self.mass} must be finite and > 0")

    @property
    def critical_upper(self) -> float:
        """|m - beta| above this is Regular."""
        return math.sqrt(1.0 + self.gamma**2)

    def required_modes(self, model) -> list[int]:
        """Modes every solved range must hold: the non-Regular ones, for any model."""
        return nonregular_modes(self)

    def solve(self, ms, model) -> list:
        """ChannelSolutions of modes ms, in order, under the boundary model."""
        return [solve_channel(self, classify_mode(self, m), model) for m in ms]

    def _grid(self, solutions: list, phis) -> tuple:
        """(Re f, Im f) after the checks of amplitudes(); the mode phases see phi reduced to (-pi, pi]."""
        ws = _outside_cone(phis)
        present = {s.mode.m for s in solutions}
        missing = [m for m in nonregular_modes(self) if m not in present]
        if missing:
            raise IncompleteRangeError(f"amplitude needs every non-Regular mode; missing {missing}")
        return _amplitude_grid(self, solutions, ws)


@dataclass(frozen=True)
class PartialMode:
    m: int
    nu_squared: float
    mu: float
    regime: str


# ---------------------------------------------------------------------
# boundary models
# ---------------------------------------------------------------------


def _require_finite(**params) -> None:
    """ConfigError naming the first non-finite boundary-model parameter."""
    for name, value in params.items():
        if not cmath.isfinite(value):
            raise ConfigError(f"{name}={value} must be finite")


@dataclass(frozen=True, kw_only=True)
class Elastic:
    """Self-adjoint condition on every non-Regular mode, whatever its regime.

    Subcritical modes get ElasticSubcritical(l), supercritical ones
    ElasticSupercritical(theta), and inverse-quartic modes the core phase
    theta.  A run usually spans several regimes, so this is the elastic
    model of scenario files.  Keyword-only: a bare number cannot land on
    the wrong parameter.
    """

    l: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(l=self.l, theta=self.theta)


@dataclass(frozen=True)
class ElasticSubcritical:
    """Self-adjoint boundary condition R -> B(rho^mu + l rho^{-mu}), l real.

    l = 0 keeps the regular branch.
    """

    l: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(l=self.l)


@dataclass(frozen=True)
class ElasticSupercritical:
    """Reflecting core phase: R -> B(rho^{i mu} + e^{i theta} rho^{-i mu})."""

    theta: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(theta=self.theta)


@dataclass(frozen=True)
class Sink:
    """Purely ingoing wave at the origin (perfect absorber), R ~ J_{-i mu}.

    Defined for supercritical and inverse-quartic modes; subcritical modes
    under this model fall back to the regular elastic branch (they cannot
    reach the core).
    """


@dataclass(frozen=True)
class TotalAbsorption:
    """S_m = 0 on a closed window of modes [-n_minus, n_plus].

    Windowed modes keep only the ingoing Hankel wave; every mode outside
    the window gets Elastic().  On the inverse-square core the window may
    not contain Regular modes: a Regular mode has a single admissible
    solution and cannot be forced silent.
    """

    n_minus: int = 0
    n_plus: int = 0

    def __post_init__(self) -> None:
        if self.n_minus < 0 or self.n_plus < 0:
            raise ConfigError("total-absorption window bounds must be >= 0")
        if self.n_minus + self.n_plus >= MODES_MAX:
            raise ConfigError(f"total-absorption window holds more than {MODES_MAX} modes")

    def covers(self, m: int) -> bool:
        return -self.n_minus <= m <= self.n_plus


@dataclass(frozen=True)
class Custom:
    """Explicit a_m / b_m per non-Regular mode; |S_m| <= 1 enforced."""

    ratios: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_finite(**{f"ratio_{m}": r for m, r in self.ratios.items()})

    def value(self, m: int) -> complex:
        if m not in self.ratios:
            raise ConfigError(f"custom model has no ratio for mode m={m}")
        return complex(self.ratios[m])


BoundaryModel = (
    Elastic | ElasticSubcritical | ElasticSupercritical | Sink | TotalAbsorption | Custom
)


# ---------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------


def classify_mode(cfg: ScatteringConfig, m: int) -> PartialMode:
    """Place angular index m into its regime.

    Exactly critical modes (|m - beta| within 1e-9 of gamma or of
    sqrt(1 + gamma^2)) are rejected: they need logarithmic solutions this
    package does not carry.  The exception is the free field beta = gamma
    = 0, where every mode is Regular with mu = |m| and scatters nothing.
    """
    dm = abs(m - cfg.beta)
    if cfg.beta == 0.0 and cfg.gamma == 0.0:
        return PartialMode(m=m, nu_squared=dm * dm, mu=dm, regime=Regime.REGULAR)
    upper = cfg.critical_upper
    if abs(dm - cfg.gamma) < REGIME_EPS or abs(dm - upper) < REGIME_EPS:
        raise DegenerateModeError(
            f"mode m={m} sits on a regime boundary (|m-beta|={dm}, "
            f"gamma={cfg.gamma}, upper={upper})"
        )
    nu2 = dm * dm - cfg.gamma**2
    mu = math.sqrt(abs(nu2))
    if dm > upper:
        regime = Regime.REGULAR
    elif dm > cfg.gamma:
        regime = Regime.SUBCRITICAL
    else:
        regime = Regime.SUPERCRITICAL
    return PartialMode(m=m, nu_squared=nu2, mu=mu, regime=regime)


def nonregular_modes(cfg: ScatteringConfig) -> list[int]:
    """All m with |m - beta| < sqrt(1 + gamma^2), ascending; none for the free field."""
    if cfg.beta == 0.0 and cfg.gamma == 0.0:
        return []
    upper = cfg.critical_upper
    lo = math.ceil(cfg.beta - upper)
    hi = math.floor(cfg.beta + upper)
    out = []
    for m in range(lo, hi + 1):
        if abs(m - cfg.beta) < upper - REGIME_EPS:
            out.append(m)
    return out


# ---------------------------------------------------------------------
# channel solves
# ---------------------------------------------------------------------


def _subcritical_ratio_from_l(cfg: ScatteringConfig, mode: PartialMode, l: float) -> complex:
    """a/b realizing the small-rho condition A = l B for R = A rho^{-mu} + B rho^{mu}.

    Expanding a H1_mu + b H2_mu near the origin through J_{+-mu} gives
        A propto (a - b),    B propto (b e^{i mu pi} - a e^{-i mu pi}),
    and solving A = l B for r = a/b yields
        r = (1 + t e^{i mu pi}) / (1 + t e^{-i mu pi}),
        t = l (p/2)^{2 mu} Gamma(1 - mu) / Gamma(1 + mu).
    Real l makes |r| = 1 exactly (elastic); l = 0 gives r = 1, the regular
    branch, reproducing the Regular-regime phase.
    """
    mu = mode.mu
    try:  # a signed-zero l stays itself: Gamma(1 - mu) / Gamma(1 + mu) > 0 for 0 < mu < 1
        t = l and l * (0.5 * cfg.p) ** (2.0 * mu) * (complex_gamma(1.0 - mu) / complex_gamma(1.0 + mu)).real
    except OverflowError:  # the power, at huge p
        t = math.inf
    if not abs(t) < 1e300:  # r is its t -> +-inf limit to rounding, and past ~1e308 num / den fails
        return cmath.exp(2j * math.pi * mu)
    ph = cmath.exp(1j * math.pi * mu)
    num = 1.0 + t * ph
    den = 1.0 + t / ph
    if abs(den) < 1e-300:
        raise DegenerateModeError(
            f"boundary parameter l={l} hits the singular condition at mode m={mode.m}"
        )
    r = num / den
    # real t makes num and den conjugates; renormalize away rounding
    return r / abs(r)


def _supercritical_ratio_from_theta(
    cfg: ScatteringConfig, mode: PartialMode, theta: float
) -> complex:
    """a/b realizing R -> B(rho^{i mu} + e^{i theta} rho^{-i mu}) at the origin.

    With Phi = (p/2)^{-2 i mu} Gamma(1 + i mu) / Gamma(1 - i mu) (unit
    modulus), psi = theta - arg Phi:
        r = (1 + e^{i psi} e^{-pi mu}) / (1 + e^{i psi} e^{+pi mu}).
    Then |S| = e^{pi mu} |r| = 1 for every theta: the core reflects.
    """
    mu = mode.mu
    phi_factor = (
        cmath.exp(-2j * mu * math.log(0.5 * cfg.p))
        * complex_gamma(complex(1.0, mu))
        / complex_gamma(complex(1.0, -mu))
    )
    psi = theta - cmath.phase(phi_factor)
    e_ipsi = cmath.exp(1j * psi)
    num = 1.0 + e_ipsi * math.exp(-math.pi * mu)
    den = 1.0 + e_ipsi * math.exp(math.pi * mu)
    r = num / den
    # exact elastic condition: |r| = e^{-pi mu}
    return r * (math.exp(-math.pi * mu) / abs(r))


def _regular_solution(cfg: ScatteringConfig, mode: PartialMode) -> "ChannelSolution":
    s = cmath.exp(1j * math.pi * (mode.m - mode.mu))
    return ChannelSolution(
        mode=mode, a=0.5 + 0.0j, b=0.5 + 0.0j, s_matrix=s,
        sigma_abs=0.0, _cfg=cfg,
    )


def _resolve(model: BoundaryModel, mode: PartialMode):
    """Per-mode model resolution; returns a (kind, parameter) action.

    A single model instance typically spans modes of different regimes in
    one run; the fallbacks below keep that meaningful: a Sink cannot act
    on a subcritical mode (no classical capture), so such modes keep the
    regular elastic branch, and modes outside a total-absorption window
    get Elastic().
    """
    regime = mode.regime
    if isinstance(model, TotalAbsorption) and model.covers(mode.m):
        if regime == Regime.REGULAR:
            raise ModelRegimeMismatch(
                f"total-absorption window covers Regular mode m={mode.m}, "
                "which has no ingoing-only solution"
            )
        return ("total", None)
    if regime == Regime.REGULAR:
        return ("regular", None)
    if isinstance(model, Sink) and regime == Regime.SUPERCRITICAL:
        return ("sink", None)
    if isinstance(model, (Sink, TotalAbsorption)):
        model = Elastic()
    if isinstance(model, Elastic):
        if regime == Regime.SUPERCRITICAL:
            return ("elastic_super", model.theta)
        return ("elastic_sub", model.l)
    if isinstance(model, ElasticSubcritical):
        if regime != Regime.SUBCRITICAL:
            raise ModelRegimeMismatch(
                f"subcritical boundary parameter given to {regime} mode m={mode.m}"
            )
        return ("elastic_sub", model.l)
    if isinstance(model, ElasticSupercritical):
        if regime != Regime.SUPERCRITICAL:
            raise ModelRegimeMismatch(
                f"reflecting-core phase given to {regime} mode m={mode.m}"
            )
        return ("elastic_super", model.theta)
    if isinstance(model, Custom):
        return ("custom", model.value(mode.m))
    raise ConfigError(f"unknown boundary model {model!r}")


def solve_channel(
    cfg: ScatteringConfig, mode: PartialMode, model: BoundaryModel
) -> "ChannelSolution":
    """Fix (a_m, b_m) for one mode under a boundary model and form S_m.

    Regular modes ignore the model (their solution is unique).  The
    internal normalization is b_m = 1 for non-Regular modes and c_m = 1
    (a = b = 1/2) for Regular ones; observables use ratios only.
    """
    action, param = _resolve(model, mode)
    if action == "regular":
        return _regular_solution(cfg, mode)

    mu = mode.mu
    if action == "elastic_sub":
        r = _subcritical_ratio_from_l(cfg, mode, param)
    elif action == "elastic_super":
        r = _supercritical_ratio_from_theta(cfg, mode, param)
    elif action == "sink":
        # R = c J_{-i mu}: with J_{-nu} = (e^{nu pi i} H1 + e^{-nu pi i} H2)/2
        # and nu = i mu, the ratio is e^{-mu pi} / e^{+mu pi}
        r = complex(math.exp(-2.0 * math.pi * mu))
    elif action == "total":
        r = 0.0 + 0.0j
    elif action == "custom":
        r = complex(param)
    else:  # pragma: no cover
        raise ConfigError(f"unhandled action {action}")

    if mode.regime == Regime.SUBCRITICAL:
        s = cmath.exp(1j * math.pi * (mode.m - mu)) * r
    else:
        s = cmath.exp(1j * math.pi * mode.m) * math.exp(math.pi * mu) * r

    mod = abs(s)
    if not mod <= 1.0 + 1e-12:  # NaN fails too
        raise UnitarityViolation(
            f"|S|={mod} > 1 for mode m={mode.m} (ratio {r})"
        )
    if action in ("elastic_sub", "elastic_super"):
        sigma = 0.0  # exact: |S| = 1 is enforced analytically above
        s = s / mod
    else:
        sigma = (1.0 - min(mod, 1.0) ** 2) / cfg.p
    return ChannelSolution(
        mode=mode, a=r, b=1.0 + 0.0j, s_matrix=s, sigma_abs=sigma, _cfg=cfg,
    )


# ---------------------------------------------------------------------
# per-channel record
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSolution:
    """One solved partial wave: coefficients, S_m, and derived scalars."""

    mode: PartialMode
    a: complex
    b: complex
    s_matrix: complex
    sigma_abs: float
    _cfg: ScatteringConfig  # or a QuarticConfig; f_coeff reads beta and p

    @property
    def delta(self) -> complex | None:
        """Phase shift with S = e^{2 i delta}; None when S = 0 (no phase)."""
        if self.s_matrix == 0:
            return None
        return cmath.log(self.s_matrix) / 2j

    @property
    def f_coeff(self) -> complex:
        """Mode coefficient (e^{-i pi/4}/p)(S_m - cos(pi beta)).

        This is the per-mode absorption-problem normalization; the angular
        amplitude assembled by amplitude() carries 1/sqrt(2 pi p) instead,
        i.e. f_m^{angular} = f_coeff * sqrt(p / (2 pi)).
        """
        return (
            cmath.exp(-0.25j * math.pi)
            / self._cfg.p
            * (self.s_matrix - math.cos(math.pi * self._cfg.beta))
        )


def physical_coefficients(sol: ChannelSolution) -> tuple[complex, complex]:
    """(a, b) rescaled to the unit-incident-wave normalization.

    The incident flux-adapted plane wave assigns each mode the ingoing
    coefficient b_m = (1/2) e^{i pi m} e^{+pi mu/2} (supercritical) or
    (1/2) e^{i pi m} e^{-i pi mu/2} (subcritical).  With this scaling the
    flux balance p sigma_m = -M (2 pi rho j_m) holds exactly.
    """
    mode = sol.mode
    if mode.regime == Regime.SUPERCRITICAL:
        scale = 0.5 * cmath.exp(1j * math.pi * mode.m) * math.exp(0.5 * math.pi * mode.mu)
    elif mode.regime == Regime.SUBCRITICAL:
        scale = 0.5 * cmath.exp(1j * math.pi * mode.m) * cmath.exp(-0.5j * math.pi * mode.mu)
    else:
        scale = 1.0 + 0.0j
    return sol.a * scale, sol.b * scale


def partial_current(
    cfg: ScatteringConfig,
    mode: PartialMode,
    a: complex,
    b: complex,
    rho: float,
) -> float:
    """Radial probability current of one mode at radius rho (closed form).

    Subcritical:   j = 2/(pi M rho) (|a|^2 - |b|^2)
    Supercritical: j = 2/(pi M rho) (|a|^2 e^{pi mu} - |b|^2 e^{-pi mu})
    Negative values mean net inflow (absorption).  Regular modes carry
    identically zero net current; exact 0.0 is returned.
    """
    if rho <= 0.0:
        raise ConfigError(f"rho={rho} must be > 0")
    if mode.regime == Regime.REGULAR:
        return 0.0
    pref = 2.0 / (math.pi * cfg.mass * rho)
    if mode.regime == Regime.SUBCRITICAL:
        return pref * (abs(a) ** 2 - abs(b) ** 2)
    e = math.exp(math.pi * mode.mu)
    return pref * (abs(a) ** 2 * e - abs(b) ** 2 / e)


# ---------------------------------------------------------------------
# amplitudes and cross sections
# ---------------------------------------------------------------------


def _outside_cone(phis) -> np.ndarray:
    """phis reduced to (-pi, pi] as math.fmod reduces them; non-finite or |phi| < PHI_MIN refused."""
    phi = np.asarray(phis, dtype=float)
    if not np.isfinite(phi).all():
        raise ConfigError(f"phi={float(phi[~np.isfinite(phi)][0])} must be finite")
    w = np.fmod(phi + math.pi, 2.0 * math.pi)
    w = np.where(w <= 0.0, w + 2.0 * math.pi, w) - math.pi
    inside = np.abs(w) < PHI_MIN
    if inside.any():
        raise ForwardDirectionError(f"phi={float(phi[inside][0])} is inside the excluded forward cone (|phi| < {PHI_MIN})")
    return w


def _amplitude_grid(cfg, solutions: list, phis) -> tuple[np.ndarray, np.ndarray]:
    """(Re f, Im f) of C sum_m (S_m - S_m^AB) e^{i m phi} + f_AB(phi) at each phi as given; f_AB alone without modes.

    Float64 arrays over phi do CPython's complex arithmetic one IEEE operation
    at a time, adding the terms in ascending m, so every value has the bits
    of a per-angle cmath loop: cmath.exp(i y) is (cos y, sin y), numpy's
    float64 cos and sin are the C library's (complex128 arrays round otherwise).
    float(-m) phi is -(float(m) phi) and that cos is even and sin odd bit for
    bit, so mode -m hands its cos and sin to +m, up to PAIR_BUDGET held values.
    """
    phi = np.asarray(phis, dtype=float)
    w = _outside_cone(phi)  # f_AB reduces phi on its own
    c = cmath.exp(-0.25j * math.pi) / math.sqrt(2.0 * math.pi * cfg.p)
    k = -c * math.sin(math.pi * cfg.beta)
    er, sn = np.cos(0.5 * w), np.sin(0.5 * w)
    ar, ai = k.real * er - k.imag * sn, k.real * sn + k.imag * er
    z = 0.0 / sn  # CPython divides by the complex (sn, 0) by Smith's rule: z signs the zeros
    re, im = (ar + ai * z) / sn, (ai - ar * z) / sn
    if solutions:
        acc_r = acc_i = 0.0
        sols = sorted(solutions, key=lambda s: s.mode.m)
        held, room = {}, PAIR_BUDGET // (2 * phi.size + 64)  # |m| -> (cos, sin) of |m| phi, headers counted
        for sol in sols:
            m = sol.mode.m
            d = sol.s_matrix - cmath.exp((1j if m >= 1 else -1j) * math.pi * cfg.beta)  # S_m - S_m^AB
            if m in held:
                co, si = held.pop(m)
            else:
                y = float(abs(m)) * phi
                co, si = np.cos(y), np.sin(y)
            if m < 0:
                if -m <= sols[-1].mode.m and len(held) < room:  # a +m may follow
                    held[-m] = co, si
                si = -si
            acc_r = acc_r + (d.real * co - d.imag * si)
            acc_i = acc_i + (d.real * si + d.imag * co)
        re = (c.real * acc_r - c.imag * acc_i) + re
        im = (c.real * acc_i + c.imag * acc_r) + im
    return re, im


def ab_amplitude_closed(cfg: ScatteringConfig, phi: float) -> complex:
    """Closed-form pure-flux (gamma = 0) amplitude.

    f_AB(phi) = -(e^{-i pi/4}/sqrt(2 pi p)) sin(pi beta) e^{i phi/2}/sin(phi/2),
    the Abel-summed full mode series; |f_AB| = sin(pi beta)/(sqrt(2 pi p)
    |sin(phi/2)|).
    """
    re, im = _amplitude_grid(cfg, [], [phi])
    return complex(re[0], im[0])


def amplitudes(cfg: ScatteringConfig, solutions: list[ChannelSolution], phis) -> list[complex]:
    """Scattering amplitude f(phi) = C sum_m (S_m - cos pi beta) e^{i m phi} at each phi.

    C = e^{-i pi/4}/sqrt(2 pi p).  The explicitly solved modes enter as
    differences against the pure-flux background S_m^{AB}; the infinite
    Regular tail is the Abel-summed closed form ab_amplitude_closed.  At
    gamma = 0 the resummation is exact.  Every non-Regular mode must be
    present among the solutions (IncompleteRangeError); before that, every
    phi must be finite (ConfigError) and outside |phi| < 1e-3 (ForwardDirectionError).
    """
    return cfg.amplitudes(solutions, phis)


def amplitude(cfg: ScatteringConfig, solutions: list[ChannelSolution], phi: float) -> complex:
    """f(phi) at one angle; see amplitudes."""
    return amplitudes(cfg, solutions, [phi])[0]
