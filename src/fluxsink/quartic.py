"""Flux plus attractive rho^-4 core: S-matrices from a mirror-symmetric connection.

The radial equation

    R'' + R'/rho - (m - beta)^2 R / rho^2 + lam^2 R / rho^4 + p^2 R = 0

has Hankel-type wave asymptotes on both ends: H_{nu}(lam/rho) near the
origin (falling/escaping waves, nu = |m - beta|) and H_{nu}(p rho) at
infinity.  In x = ln(rho/rho_0) with rho_0 = sqrt(lam/p) it is the
modified Mathieu form

    R_xx - (a - 2 q cosh 2x) R = 0,   a = (m - beta)^2,  q = p lam,

symmetric under x -> -x, with w = lam/rho = sqrt(q) e^{-x} on the left
and u = p rho = sqrt(q) e^{x} on the right.  A connection matrix T maps
the origin-side wave coefficients (c3, c4) to the infinity-side (a, b);
boundary models pick the origin-side combination and T delivers S_m.
The models are the channels vocabulary: Sink (c4 = 0), Elastic(theta)
and TotalAbsorption, whose window has S_m = 0 and Elastic() outside.

By the mirror symmetry the origin-side waves are the infinity-side ones
reflected.  The outgoing solution f+ (f+ ~ H1_nu(u) as u -> inf) and
its x-derivative at x = 0 give M = [[f+, f-], [f+', f-']] there, with
f- = conj(f+); the origin basis has the same values and negated
derivatives, so T = M^{-1} diag(1, -1) M.  f+ at x = 0 comes one of two
ways, picked by the tol argument:

* tol=None, the default: from Floquet data, no ODE, at every q.  The
  characteristic exponent nu(a, q) (real in stable bands, k + i mu in
  instability bands) comes from Hill's determinant as a continuant,
  sin^2(pi nu / 2) = Delta(0) sin^2(pi sqrt(a) / 2) (Whittaker & Watson,
  Modern Analysis, 19.42), and c_2n from the Hill recurrence
  ((nu + 2n)^2 - a) c_2n + q (c_2n-2 + c_2n+2) = 0 (_floquet).  The
  Bessel-product series (DLMF 28.23) gives f+ = e^{i pi (nu - nu0)/2}
  sum (-1)^n c_2n J_n(w) H1_{nu+n}(u), with w = u = sqrt(q) at x = 0, as
  Vogt & Wannier (Phys. Rev. 95, 1190, 1954) used for this core.
* a float tol: the oracle's DOP853 (_integrate, on oracle._dop853)
  integrates the dressed outgoing wave inward from u = _start_w(q), one
  call per order, in v = sqrt(q) e^{|x|}.  It serves the checks:
  forward_fit_defect and backward_defect check this path, and it checks
  the Floquet one.

Wave-basis dressing: the exact solutions deviate from pure Hankels by
the opposite end's potential tail, a + q^2/u^4 term in each local wave
equation.  Its WKB orders multiply the e^{+iu} branch by
exp(-i q^2/(6 u^3) - q^2/(4 u^4) + i (5 - a1) q^2/(10 u^5)), a1 =
(4 a - 1)/8; the inward start and the check fits carry this factor.  At
tol 1e-10 the inward S then meets the Floquet one to 6e-11 for |m| <= 12
and 0.3 <= q <= 100, against 1.4e-8 at q = 100 with the first two terms
alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .channels import (
    ChannelSolution,
    Elastic,
    PartialMode,
    Sink,
    TotalAbsorption,
    _amplitude_grid,
    _Amplitudes,
)
from .errors import ConfigError, FitDegenerateError
from .oracle import POINTS_PER_WAVELENGTH, _check_tol, _dop853, _lstsq_two_column

__all__ = [
    "QuarticConfig",
    "ConnectionMatrix",
    "connection_matrix",
    "connection_matrices",
    "quartic_smatrix",
    "quartic_smatrices",
    "capture_probability",
    "backward_defect",
    "forward_fit_defect",
    "quartic_amplitude",
]

REGIME_QUARTIC = "Quartic"
FIT_U = (60.0, 120.0)  # floor of _start_w, and the outer start of backward_defect
_START_BIAS = 1e-9
# Largest coupling q = p lam accepted: the Floquet exponent and S are checked against references up to
# here, and the instability exponent mu stays below specfun.ORDER_MAX (54.15 at q = 1e4).
Q_MAX = 1e4
_CACHE_SIZE = 128
_cache: dict = {}  # (nu, q, tol) -> ConnectionMatrix, oldest first; tol None: Floquet


@dataclass(frozen=True)
class QuarticConfig(_Amplitudes):
    """Flux beta, core coupling lam (length^2 scale), wavenumber p, mass."""

    KIND = "inverse_quartic"  # [potential] kind in scenario files
    COUPLING = "lam"  # core-strength field, scenario key and sweep axis
    ELASTIC_KEYS = ("theta",)  # Elastic parameters this core reads
    WINDOW_KEYS = ("m_abs",)  # one key: the window |m| <= m_abs
    WINDOW_LABEL = "total_absorption(|m| <= {hi}) + elastic outside"
    REQUIRED = "absorbed modes"  # what required_modes returns, for messages

    beta: float
    lam: float
    p: float
    mass: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and 0.0 <= self.beta < 1.0):
            raise ConfigError(f"beta must lie in [0, 1), got {self.beta}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ConfigError(f"lam must be positive, got {self.lam}")
        if not (math.isfinite(self.p) and self.p > 0.0):
            raise ConfigError(f"p must be positive, got {self.p}")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ConfigError(f"mass must be positive, got {self.mass}")
        if self.q > Q_MAX:
            raise ConfigError(f"q = p*lam = {self.q:g} is too large (supported: q <= {Q_MAX:g})")

    @property
    def q(self) -> float:
        return self.p * self.lam

    def required_modes(self, model) -> list[int]:
        """The TotalAbsorption window, which an explicit range must cover."""
        if not isinstance(model, (Sink, Elastic, TotalAbsorption)):
            raise ConfigError(f"{type(model).__name__} does not apply to the inverse_quartic core")
        if isinstance(model, TotalAbsorption):
            if model.n_minus != model.n_plus:
                raise ConfigError("the inverse_quartic window is |m| <= m_abs: n_minus must equal n_plus")
            return list(range(-model.n_minus, model.n_plus + 1))
        return []

    def solve(self, ms, model) -> list:
        return quartic_smatrices(self, ms, model)

    # f(phi) from explicitly solved modes plus the pure-flux background: the inverse-square
    # assembly with phi unreduced in the mode phases and no required modes; S_m -> S_m^{AB} as
    # capture shuts off at large |m - beta|, so the caller's mode range sets the truncation error
    _grid = _amplitude_grid


@dataclass(frozen=True)
class ConnectionMatrix:
    """2x2 map from origin-side (c3, c4) to infinity-side (a, b) coefficients.

    Column j holds the (a, b) pair of the j-th origin basis vector, in the
    H_{nu}(p rho) normalization.  Current conservation fixes
    |b|^2 - |a|^2 = -+1 per column and det T = -1; the mirror construction
    meets both by construction, so forward_fit_defect checks the integration.
    """

    entries: np.ndarray
    nu: float
    q: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.entries)):
            raise FitDegenerateError(f"connection matrix has non-finite entries (nu={self.nu}, q={self.q})")
        a3, b3, a4, b4, s3, s4 = self._scaled()
        # entries beyond ~1e7 cannot resolve det = -1: their det is rounding noise
        det = abs(a3 * b4 - a4 * b3) * s3 * s4
        if det < 1e-6 and 1e-15 * (abs(a3 * b4) + abs(a4 * b3)) * s3 * s4 < 1e-6:
            raise FitDegenerateError(f"connection matrix is singular (det={det})")

    def _scaled(self) -> tuple:
        """(a3, b3, a4, b4), each column over its largest |entry|, and the two divisors."""
        s3, s4 = (float(v) for v in np.abs(self.entries).max(axis=0))
        (a3, a4), (b3, b4) = self.entries.tolist()  # Python complex: inf, not overflow warnings
        return a3 / (s3 or 1.0), b3 / (s3 or 1.0), a4 / (s4 or 1.0), b4 / (s4 or 1.0), s3, s4

    @property
    def flux_defects(self) -> tuple[float, float, float]:
        """Deviations of the column flux forms and det T from -+1 and -1.

        Scaled by the column magnitudes: for small q the entries grow like
        q^{-nu}, and |b|^2 - |a|^2 = 1 then sits below the floating-point
        cancellation floor of the squares even though a/b stays accurate.
        Columns are divided by their largest entry before squaring (no overflow).
        """
        a3, b3, a4, b4, s3, s4 = self._scaled()
        r3, r4 = 1.0 / s3, 1.0 / s4  # the unit flux of each column, in its scaled units
        n3 = max(r3 * r3, abs(a3) ** 2 + abs(b3) ** 2)
        n4 = max(r4 * r4, abs(a4) ** 2 + abs(b4) ** 2)
        f3, f4 = abs(b3) ** 2 - abs(a3) ** 2, abs(a4) ** 2 - abs(b4) ** 2
        det = a3 * b4 - a4 * b3
        return abs(f3 - r3 * r3) / n3, abs(f4 - r4 * r4) / n4, abs(det + r3 * r4) / math.sqrt(n3 * n4)


def _wave_dressing(nu, q: float, u):
    """(D, dD/du) for the e^{+iu} branch at u, a float or an array; conjugate serves e^{-iu}.

    R = H D with H = H1_nu(u) solves the local wave equation when D'' + (2 H'/H + 1/u) D' + (q^2/u^4) D = 0.
    With H'/H = i - 1/(2u) - i a1/u^2 + O(u^-3), a1 = (4 nu^2 - 1)/8, D = exp(phi) and phi' by orders in 1/u.
    """
    c = 0.1 * (5.0 - (4.0 * nu * nu - 1.0) / 8.0)
    qq = q * q
    d = np.exp(qq * (-1j / (6.0 * u**3) - 0.25 / u**4 + 1j * c / u**5))
    return d, qq * (0.5j / u**4 + 1.0 / u**5 - 5j * c / u**6) * d


def _outgoing(nu, q: float, u: float):
    """Dressed H1_nu(u) D(u) and its u-derivative."""
    d, dp = _wave_dressing(nu, q, u)
    h = specfun._sp.hankel1(nu, u)
    return h * d, specfun._sp.h1vp(nu, u) * d + h * dp


def _start_w(q: float) -> float:
    # 2 q^2 / w^5 <= _START_BIAS: the bias of a dressing without its q^2 / w^5 term, which takes it lower
    return max(FIT_U[0], (2.0 * q * q / _START_BIAS) ** 0.2)


def _fit_waves(nu: float, q: float, u: np.ndarray, values: np.ndarray):
    """(c_plus, c_minus): coefficients of dressed H1, H2 = conj(H1 D) at coordinate u."""
    basis_plus = specfun._sp.hankel1(nu, u) * _wave_dressing(nu, q, u)[0]
    return _lstsq_two_column(basis_plus, np.conj(basis_plus), values, "wave")


def _window_grid(u_lo: float, u_hi: float) -> np.ndarray:
    """Fit points covering [u_lo, u_hi], ascending, POINTS_PER_WAVELENGTH to a wavelength."""
    n = max(80, int(POINTS_PER_WAVELENGTH * (u_hi - u_lo) / (2.0 * math.pi)) + 2)
    return np.linspace(u_lo, u_hi, n)


def _coef(a: float, q: float):
    """t -> (alpha, beta) with R_tt = alpha R + beta R_t: the radial equation in t = +-v, for _dop853."""
    qq = q * q

    def coef(t):
        tt = t * t
        return (a - tt - qq / tt) / tt, -1.0 / t

    return coef


def _integrate(a: float, q: float, y0, t0: float, t1: float, t_eval, tol: float) -> tuple:
    """(R, R_t) at ascending t_eval on t1's half-line, for R_xx = (a - 2 q cosh 2x) R from y0 = (R, R_t) at t0 < t1.

    Each half-line runs in its own variable v = sqrt(q) e^{|x|}: u for x > 0, w for x < 0.  There
    2 q cosh 2x = v^2 + q^2/v^2 and R_vv = ((a - v^2 - q^2/v^2)/v^2) R - R_v/v, so the wave rate is about 1
    everywhere and one step cap in v follows the local wavelength.  t = +-v, signed so that t ascends along
    the path, obeys the same equation (_coef).  A path from t0 < 0 to t1 > 0 crosses x = 0, where t jumps
    from -sqrt(q) to sqrt(q) and R_t carries on: dt/dx is the same there from both sides.  Each stage is
    one _dop853 call.
    """
    _check_tol(tol)
    coef = _coef(a, q)
    cap = min(2.0 * math.pi / 20.0, 26.5 * tol**0.3)  # >= 20 solver points per local wavelength
    what = f"mathieu (nu = {math.sqrt(a):.6g})"
    if t0 < 0.0 < t1:
        root = math.sqrt(q)
        r, dr, _ = _dop853(coef, t0, -root, y0, [-root], tol, cap, what)
        t0, y0 = root, (r[0], dr[0])
    return _dop853(coef, t0, t1, y0, t_eval, tol, cap, what)[:2]


def _mirror_matrix(f: complex, g: complex, wronskian: float, nu: float, q: float) -> ConnectionMatrix:
    """T = M^{-1} diag(1, -1) M for M = [[f, conj f], [g, conj g]], written out.

    det M = 2i Im(f conj g) = 2i wronskian.  The Wronskian is conserved, so
    it is -2/pi exactly or taken from the start point: at x = 0 orders
    nu >> sqrt(q) have |f| |g| near 1e22, and Im(f conj g) cancels there.
    """
    fg = f * g.conjugate()
    t = np.array([[2.0 * fg.real, 2.0 * (f * g).conjugate()], [-2.0 * f * g, -2.0 * fg.real]])
    matrix = ConnectionMatrix(entries=t / (2j * wronskian), nu=nu, q=q)
    d3, d4, ddet = matrix.flux_defects
    if not max(d3, d4, ddet) <= 1e-6:  # NaN fails too
        raise FitDegenerateError(f"connection flux defects ({d3:.2e}, {d4:.2e}, {ddet:.2e}) exceed 1e-6")
    return matrix


def _hill(k: int, t, nu0: float, q: float, n: int) -> tuple:
    """(P, dP/dnu) at nu = k + t over rows j = -n..n of H - a, by the continuant recurrence.

    Row j holds (t + k + 2j - nu0)(t + k + 2j + nu0) = (nu + 2j)^2 - a, exact near a root, and q
    beside it, all over 4 j^2 for j != 0.
    """
    p, p_prev, dp, dp_prev, off = 1.0, 0.0, 0.0, 0.0, 0.0
    for j in range(-n, n + 1):
        scale = 4.0 * j * j or 1.0
        lo, hi = t + (k + 2 * j - nu0), t + (k + 2 * j + nu0)
        pair = off * q / scale
        dp, dp_prev = ((lo + hi) * p + lo * hi * dp) / scale - pair * dp_prev, dp
        p, p_prev = lo * hi * p / scale - pair * p_prev, p
        off = q / scale
    return p, dp


def _coefficients(k: int, t, nu0: float, q: float, n: int) -> tuple:
    """(c, r): c_2j for j = -n..n with c_0 = 1, and the residual r of row 0.

    Backward recursion from c_{+-(n+1)} = 0 keeps each side's decaying solution, so only
    row 0 can fail: it holds where nu = k + t is an exponent whose c peaks at j = 0.
    """
    c = np.ones(2 * n + 1, dtype=complex)
    for side in (1, -1):
        ratio, ratios = 0.0, []
        for j in range(n, 0, -1):
            b = k + 2 * side * j
            ratio = -q / ((t + (b - nu0)) * (t + (b + nu0)) + q * ratio)
            ratios.append(ratio)
        c[n + side * np.arange(1, n + 1)] = np.cumprod(ratios[::-1])
    return c, (t + (k - nu0)) * (t + (k + nu0)) + q * (c[n - 1] + c[n + 1])


def _floquet(nu0: float, q: float) -> tuple[complex, np.ndarray]:
    """(nu, c): characteristic exponent of (a = nu0^2, q) and c_{2n}, n = -N..N, c_0 = 1.

    cos(pi nu) = 1 + (pi^2 / 2) P(0) over all rows: sin^2(pi nu / 2) = Delta(0) sin^2(pi sqrt(a) / 2)
    (Whittaker & Watson 19.42), and _hill's row scaling has no pole at a = 4 k^2.  Rows |j| > n add
    prod (1 - a / 4 j^2), a Gamma ratio, and per side exp(-sum e - (3/2) sum e^2), e_j = xi_j xi_{j-1},
    xi_j = q / (4 j^2 - a), by Euler-Maclaurin to O(q^2 a^2 / n^7).  cos gives nu = k +- t, with t in
    [0, 1/2] or i mu.  Below |cos| = 1e3, where acos loses digits and P's terms do not yet cancel,
    Newton polishes tau = t^2, in which P is even.  Of the representatives +-nu + 2j, one whose c_0 is
    within 10 of its peak and that solves row 0, relative to its scale, is kept; else FitDegenerateError.
    """
    a, s = nu0 * nu0, 0.5 * nu0
    n = 20 + math.ceil(10.0 * (math.sqrt(q) + nu0))
    tail = 4.0 * math.lgamma(n + 1) - 2.0 * (math.lgamma(n + 1 - s) + math.lgamma(n + 1 + s))
    tail -= q * q / 8.0 * (1.0 / (3.0 * n**3) + (0.1 * a - 1.0 / 15.0) / n**5) + 3.0 * q**4 / (1792.0 * n**7)
    cos = 1.0 + 0.5 * math.pi**2 * _hill(0, 0.0, nu0, q, n)[0] * math.exp(tail)
    k = round(nu0)
    t = cmath.acos(cos * (-1) ** k).conjugate() / math.pi  # cos(pi (k + t)) = (-1)^k cos(pi t)
    if t.real > 0.5:  # nu lies nearer the next integer
        k, t = k + (1 if nu0 >= k else -1), 1.0 - t.conjugate()
    n = 20 + math.ceil(2.0 * math.sqrt(q))
    if abs(cos) < 1e3:
        tau = (t * t).real
        for _ in range(8):  # Newton, to convergence or to rounding
            root = cmath.sqrt(tau) or 1e-300
            p, dp = _hill(k, root, nu0, q, n + k)
            step = p.real / (dp / (2.0 * root)).real
            tau -= step
            if abs(step) <= 1e-15 * abs(tau):
                break
        t = cmath.sqrt(tau)
    found = []
    for kk, t in ((k, t), (k, -t)) if not t.imag else ((k, t),):  # k +- t share cos; in a gap, conjugates
        for _ in range(4):  # move by 2j to a representative whose c_0 is within 10 of its peak
            try:
                c, res = _coefficients(kk, t, nu0, q, n)
            except ZeroDivisionError:  # an exactly zero pivot: q underflows against the diagonal
                raise FitDegenerateError(f"Floquet recursion hits a zero pivot (nu={nu0}, q={q})") from None
            if np.abs(c).max() <= 10.0:
                break
            kk += 2 * (int(np.argmax(np.abs(c))) - n)
        found.append((np.abs(c).max() > 10.0, abs(res), kk + t, c))
    peaked_off, res, nu, c = min(found, key=lambda item: item[:2])
    if peaked_off or not res <= 1e-10 * (1.0 + abs(nu) ** 2 + a + 2.0 * q):
        raise FitDegenerateError(f"Floquet exponent not resolved (nu={nu0}, q={q})")
    return nu, c


def _core_values(nu0: float, q: float) -> tuple[complex, complex]:
    """(f+, df+/dx) at x = 0 by the series in the module docstring (DLMF 28.23).

    df+/dx takes sqrt(q) (J_n H1'_{nu+n} - J_n' H1_{nu+n}).
    """
    nu, c = _floquet(nu0, q)
    n = np.arange(len(c)) - len(c) // 2
    x = math.sqrt(q)
    if nu.imag > 0.0:  # an instability band: nu = k + i mu
        h, hd = specfun.hankel1_ladder(nu.imag, x, round(nu.real) + n[0], round(nu.real) + n[-1])
    else:
        h, hd = specfun._sp.hankel1(nu.real + n, x), specfun._sp.h1vp(nu.real + n, x)
    w = np.where(n % 2, -c, c) * cmath.exp(0.5j * math.pi * (nu - nu0))
    jn, jd = specfun._sp.jv(n, x), specfun._sp.jvp(n, x)
    return complex(w @ (jn * h)), complex(x * (w @ (jn * hd - jd * h)))


def connection_matrices(cfg: QuarticConfig, ms, tol: float | None = None) -> list:
    """Connection matrices of modes ms, cached on (nu, q, tol): mass and the sign of m - beta do not enter.

    tol=None, the default, takes T from Floquet data at every q, with no ODE.  A float tol runs the
    inward solve at that tolerance, one solve per uncached order; it serves the checks.
    """
    q = cfg.q
    if tol is not None:
        _check_tol(tol)
    keys = [(abs(m - cfg.beta), q, tol) for m in ms]
    todo = sorted({key for key in keys if key not in _cache})
    if todo and tol is None:
        with np.errstate(all="ignore"):  # past the double range T is inf or nan and says so
            for key in todo:  # f- = conj f+ for real a and q: the Wronskian is exact
                _cache[key] = _mirror_matrix(*_core_values(key[0], q), -2.0 / math.pi, key[0], q)
    elif todo:
        u0, root = _start_w(q), math.sqrt(q)
        for key in todo:  # inward in t = -u: R_t = -R_u, and at x = 0 R_x = u R_u = -root R_t
            nu = key[0]
            val, der = _outgoing(nu, q, u0)
            wronskian = u0 * (val * der.conjugate()).imag  # Im(R conj R_x): -2/pi up to the dressing
            r, dr = _integrate(nu * nu, q, (val, -der), -u0, -root, [-root], tol)
            _cache[key] = _mirror_matrix(complex(r[0]), -root * complex(dr[0]), float(wronskian), nu, q)
    found = [_cache[key] for key in keys]
    while len(_cache) > _CACHE_SIZE:  # oldest first
        del _cache[next(iter(_cache))]
    return found


def connection_matrix(cfg: QuarticConfig, m: int, tol: float | None = None) -> ConnectionMatrix:
    """Map origin-side wave coefficients to infinity-side ones for mode m."""
    return connection_matrices(cfg, [m], tol)[0]


def forward_fit_defect(cfg: QuarticConfig, m: int, tol: float = 1e-8) -> float:
    """Largest sink or elastic |S_m| difference between T and a forward fit.

    The forward fit integrates both origin waves out to p rho = 2 u0 and
    fits dressed waves over [u0, 2 u0], u0 = _start_w(q).  It shares
    neither the mirror argument nor the 2x2 solve, so a small defect is
    evidence that the inward integration is right.
    """
    nu = abs(m - cfg.beta)
    q = cfg.q
    u0 = _start_w(q)
    u = _window_grid(u0, 2.0 * u0)
    val, der = _outgoing(nu, q, u0)  # dressed H1 of argument w = u0, H2 D* = conj(H1 D); t = -w: R_t = -R_w
    cols = []
    for y0 in ((val, -der), (val.conjugate(), -der.conjugate())):
        cols.append(_fit_waves(nu, q, u, _integrate(nu * nu, q, y0, -u0, u[-1], u, tol)[0]))
    forward = ConnectionMatrix(entries=np.array(cols, dtype=complex).T, nu=nu, q=q)
    pair = (connection_matrix(cfg, m, tol), forward)
    s = [[_solution(cfg, m, model, t).s_matrix for t in pair] for model in (Sink(), Elastic(theta=1.1))]
    return max(abs(a - b) for a, b in s)


def backward_defect(cfg: QuarticConfig, m: int, tol: float = 1e-8) -> float:
    """Round-trip check: propagate T's first column back inward.

    Starts at p rho = 120 with the (a, b) waves of T, integrates back to
    the deep-origin window and refits (c3, c4); returns the deviation from
    the identity column (1, 0).  Spread beyond ~1e-5 flags an inconsistent
    connection.
    """
    nu = abs(m - cfg.beta)
    q = cfg.q
    t = connection_matrix(cfg, m, tol).entries
    w_deep = max(_start_w(q), 150.0)
    w = _window_grid(70.0, min(140.0, w_deep))

    val, der = _outgoing(nu, q, FIT_U[1])  # inward in t = -u: R_t = -R_u
    a_m, b_m = t[0, 0], t[1, 0]
    y0 = (a_m * val + b_m * val.conjugate(), -(a_m * der + b_m * der.conjugate()))
    c3, c4 = _fit_waves(nu, q, w, _integrate(nu * nu, q, y0, -FIT_U[1], w_deep, w, tol)[0])
    return float(abs(c3 - 1.0) + abs(c4))


def _solution(cfg: QuarticConfig, m: int, model, conn) -> ChannelSolution:
    """Mode m under model; conn is its ConnectionMatrix (unused inside a window).

    Elastic is R = e^{-i theta} R3 + e^{i theta} R4 at the origin, Sink
    the purely infalling R3.
    """
    nu = abs(m - cfg.beta)
    mode = PartialMode(m=m, nu_squared=nu * nu, mu=nu, regime=REGIME_QUARTIC)
    if isinstance(model, TotalAbsorption):
        if model.covers(m):
            return ChannelSolution(
                mode=mode, a=0.0, b=1.0, s_matrix=0.0, sigma_abs=1.0 / cfg.p, _cfg=cfg
            )
        model = Elastic()
    t = conn.entries
    if isinstance(model, Sink):
        a_m, b_m = t[0, 0], t[1, 0]
    else:
        c = np.array([cmath.exp(-1j * model.theta), cmath.exp(1j * model.theta)])
        a_m, b_m = t @ c
    s = cmath.exp(1j * math.pi * (m - nu)) * a_m / b_m
    if isinstance(model, Elastic):
        sigma = 0.0  # self-adjoint condition conserves flux exactly
    else:
        sigma = max(0.0, 1.0 - abs(s) ** 2) / cfg.p
        if not abs(s) <= 1.0 + 1e-6:  # NaN fails too
            raise FitDegenerateError(f"mode m={m}: |S|={abs(s)} > 1 from a capture boundary")
    return ChannelSolution(mode=mode, a=a_m, b=b_m, s_matrix=s, sigma_abs=sigma, _cfg=cfg)


def quartic_smatrices(cfg: QuarticConfig, ms, model, tol: float | None = None) -> list:
    """Solve modes ms of the rho^-4 channel under model, in order; tol as in connection_matrices."""
    ms = list(ms)
    window = set(cfg.required_modes(model))  # S = 0 there: no connection matrix needed
    need = [m for m in ms if m not in window]
    conns = dict(zip(need, connection_matrices(cfg, need, tol)))
    return [_solution(cfg, m, model, conns.get(m)) for m in ms]


def quartic_smatrix(cfg: QuarticConfig, m: int, model, tol: float | None = None) -> ChannelSolution:
    """Solve one mode of the rho^-4 channel under the given boundary model."""
    return quartic_smatrices(cfg, [m], model, tol)[0]


def capture_probability(cfg: QuarticConfig, m: int, tol: float | None = None) -> float:
    """1 - |S_m|^2 for the purely infalling (capture) boundary condition."""
    return cfg.p * quartic_smatrix(cfg, m, Sink(), tol).sigma_abs


def quartic_amplitude(cfg: QuarticConfig, solutions: list, phi: float) -> complex:
    """f(phi) at one angle; see QuarticConfig.amplitudes."""
    return cfg.amplitudes(solutions, [phi])[0]
