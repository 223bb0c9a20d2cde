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

* tol=None (the default) and q <= Q_SPECTRAL: from Floquet data, no ODE.
  The characteristic exponent nu(a, q) makes a an eigenvalue of the Hill
  matrix diag((nu + 2n)^2) + q (ones off the diagonal), whose eigenvector
  gives c_2n; nu is real in stable bands, k + i mu in instability bands.
  The Bessel-product series (DLMF 28.23) gives f+ = e^{i pi (nu - nu0)/2}
  sum (-1)^n c_2n J_n(w) H1_{nu+n}(u), with w = u = sqrt(q) at x = 0, as
  Vogt & Wannier (Phys. Rev. 95, 1190, 1954) used for this core.
* a float tol, or the default above Q_SPECTRAL at 1e-8: scipy's solve_ivp
  (in _integrate, this module's only ODE call) integrates the dressed
  outgoing waves of all orders inward from u = _start_w(q) as one
  vector, each half-line in v = sqrt(q) e^{|x|}.
  forward_fit_defect and backward_defect check this path.  The oracle's
  scalar DOP853 kernel is not used here: one order at a time it ran a
  21-order solve about 5x slower at q = 100 and 7x at q = 1000.  A numpy
  vector port of the same kernel takes solve_ivp's steps and values; it
  ran that q = 100 solve in 0.188 s against 0.203 s (nfev 14813 on
  both), but the oracle's two-component stage 2.8x slower than the scalar
  kernel (60.3 against 21.3 ms at tol 1e-6; its straight-line stages later
  cut 10.9 to 8.7 ms), so one shared kernel would branch on its caller.

Wave-basis dressing: the exact solutions deviate from pure Hankels by
the opposite end's potential tail, a + q^2/u^4 term in each local wave
equation.  Its first WKB order multiplies the e^{+iu} branch by
(1 - q^2/(4 u^4)) exp(-i q^2/(6 u^3)); the inward start and the check
fits carry this factor, leaving residual bias around 1e-8 at u >= 60
for q <= 10.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import h1vp, hankel1, jv, jvp

from .channels import (
    ChannelSolution,
    Elastic,
    PartialMode,
    Sink,
    TotalAbsorption,
    _amplitude_grid,
)
from .errors import ConfigError, FitDegenerateError, StiffnessError
from .oracle import POINTS_PER_WAVELENGTH, _check_tol, _lstsq_two_column
from .specfun import hankel1_ladder

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
# Largest coupling q = p lam accepted.  The inward solve's work grows like
# q^0.4 (a 21-mode run takes seconds at q = 1e4), and past q ~ 4e18 the
# start point _start_w(q) falls below sqrt(q), i.e. on the wrong side of x = 0.
Q_MAX = 1e4
# Largest q whose default T comes from Floquet data (no ODE): the range checked against
# 40-digit references and the inward solve.  Above it the default is the inward solve at 1e-8.
Q_SPECTRAL = 30.0
_CACHE_SIZE = 128
_cache: dict = {}  # (nu, q, tol) -> ConnectionMatrix, oldest first; tol None: Floquet


@dataclass(frozen=True)
class QuarticConfig:
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

    def amplitudes(self, solutions: list, phis) -> list[complex]:
        """f(phi) at each phi from explicitly solved modes plus the pure-flux background.

        The inverse-square assembly with phi unreduced in the mode phases and
        no required modes: S_m -> S_m^{AB} as capture shuts off at large
        |m - beta|, so the caller's mode range sets the truncation error.
        """
        return _amplitude_grid(self, solutions, phis)


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


def _wave_dressing(q: float, u):
    """(D, dD/du) for the e^{+iu} branch at u, a float or an array; conjugate serves e^{-iu}."""
    amp = 1.0 - q * q / (4.0 * u**4)
    ph = np.exp(-1j * q * q / (6.0 * u**3))
    return amp * ph, (q * q / u**5) * ph + amp * ph * (1j * q * q / (2.0 * u**4))


def _outgoing(nu, q: float, u: float):
    """Dressed H1_nu(u) D(u) and its u d/du; nu may be an array."""
    d, dp = _wave_dressing(q, u)
    h, hd = hankel1(nu, u), h1vp(nu, u)
    return h * d, u * (hd * d + h * dp)


def _start_w(q: float) -> float:
    # residual init bias ~ 2 q^2 / w^5 kept below _START_BIAS
    return max(FIT_U[0], (2.0 * q * q / _START_BIAS) ** 0.2)


def _fit_waves(nu: float, q: float, u: np.ndarray, values: np.ndarray):
    """(c_plus, c_minus): coefficients of dressed H1, H2 = conj(H1 D) at coordinate u."""
    basis_plus = hankel1(nu, u) * _wave_dressing(q, u)[0]
    return _lstsq_two_column(basis_plus, np.conj(basis_plus), values, "wave")


def _window_grid(q: float, u_lo: float, u_hi: float, sign: int) -> np.ndarray:
    """x values with u = sqrt(q) e^{sign x} covering [u_lo, u_hi], ascending."""
    n = max(80, int(POINTS_PER_WAVELENGTH * (u_hi - u_lo) / (2.0 * math.pi)) + 2)
    u = np.linspace(u_lo, u_hi, n)
    x = sign * np.log(u / math.sqrt(q))
    return np.sort(x)


def _integrate(a: np.ndarray, q: float, y0, x0: float, x1: float, x_eval, tol: float) -> np.ndarray:
    """Solve R_xx = (a_k - 2 q cosh 2x) R_k for all k at once; y = (R..., R_x...).

    Each half-line runs in its own variable v = sqrt(q) e^{|x|}: u for
    x > 0, w for x < 0.  There dx/dv = sign(x)/v and 2 q cosh 2x =
    v^2 + q^2/v^2, so the wave rate is about 1 everywhere and one step
    cap in v follows the local wavelength.  An interval across x = 0 runs
    as two stages split there, each one DOP853 solve_ivp call over all
    orders at once.  Returns y at x_eval, ordered from x0 to x1.
    """
    _check_tol(tol)
    from scipy.integrate import solve_ivp  # imported on first use: a default quartic run needs no ODE
    k = len(a)
    swap = np.r_[k : 2 * k, 0:k]  # (R, R_x) -> (R_x, R)
    qq = q * q
    root = math.sqrt(q)

    def rhs(v, y):  # sign is the current stage's, set below
        dy = y[swap]
        dy[k:] *= a - v * v - qq / (v * v)
        dy *= sign / v
        return dy

    # >= 20 solver points per local wavelength
    cap = min(2.0 * math.pi / 20.0, 26.5 * tol**0.3)
    what = "mathieu (nu = " + ", ".join(f"{math.sqrt(ak):.6g}" for ak in a) + ")"
    x_eval = np.asarray(x_eval, dtype=float)
    ends = [x0, 0.0, x1] if x0 * x1 < 0.0 else [x0, x1]
    y = np.asarray(y0, dtype=complex)
    out = []
    for xa, xb in zip(ends, ends[1:]):
        sign = 1.0 if xa + xb > 0.0 else -1.0
        last = xb == x1
        pts = x_eval[sign * x_eval >= 0.0] if last else x_eval[sign * x_eval > 0.0]
        v_eval = root * np.exp(sign * pts)
        if not last:  # also stop at x = 0 to hand the state on
            v_eval = np.append(v_eval, root)
        va, vb = root * math.exp(sign * xa), root * math.exp(sign * xb)
        # np.exp and math.exp may differ in the last bit at the ends
        v_eval = np.clip(v_eval, min(va, vb), max(va, vb))
        atol = 1e-3 * tol * max(np.max(np.abs(y)), 1e-30)
        res = solve_ivp(rhs, (va, vb), y, method="DOP853", t_eval=v_eval, rtol=tol, atol=atol, max_step=cap)
        if not res.success:
            raise StiffnessError(f"{what} stage failed near t={res.t[-1] if len(res.t) else va}: {res.message}")
        if not np.all(np.isfinite(res.y)):
            raise StiffnessError(f"{what} stage produced non-finite values")
        y = res.y[:, -1]
        out.append(res.y if last else res.y[:, :-1])
    return np.concatenate(out, axis=1)


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


def _floquet_start(nu0: float, q: float) -> complex:
    """Characteristic exponent of (a = nu0^2, q), unrefined, from a companion matrix.

    ((nu + 2n)^2 - a) c_n + q (c_{n-1} + c_{n+1}) = 0 is nu^2 c + nu D c + K c = 0,
    D = diag(4n), K = diag(4n^2 - a) + q (ones off the diagonal).  Roots whose
    eigenvector reaches the truncation edge are dropped; the rest (+-nu + 2k or
    conjugates) move by 2k to peak at n = 0, take Re, Im >= 0, and the one nearest nu0 wins.
    """
    n = 8 + math.ceil(math.sqrt(q))
    k = np.arange(-n, n + 1)
    stiff = np.diag(4.0 * k * k - nu0 * nu0) + q * (np.eye(2 * n + 1, k=1) + np.eye(2 * n + 1, k=-1))
    roots, vectors = np.linalg.eig(np.block([[0.0 * stiff, np.eye(2 * n + 1)], [-stiff, -np.diag(4.0 * k)]]))
    c = np.abs(vectors[: 2 * n + 1])
    inside = c[[0, 1, -2, -1]].sum(axis=0) < 1e-4 * c.max(axis=0)
    if not inside.any():
        raise FitDegenerateError(f"no Floquet exponent resolved (nu={nu0}, q={q})")
    roots = roots[inside] + 2 * (np.argmax(c[:, inside], axis=0) - n)
    roots = np.abs(roots.real) + 1j * np.abs(roots.imag)
    return complex(roots[np.argmin(np.abs(roots - nu0))])


def _floquet(nu0: float, q: float) -> tuple[complex, np.ndarray]:
    """(nu, c): characteristic exponent of (a = nu0^2, q) and c_{2n}, n = -N..N, c_0 = 1.

    Newton on det(H - a), H = diag((nu + 2n)^2) + q (ones off the diagonal),
    whose log-derivative is tr((H - a)^{-1} diag(2 (nu + 2n))).  Near an integer
    k the roots k +- t pair up, t real (stable) or imaginary (instability band);
    the companion cannot tell which when t is tiny, so Newton then starts off
    both axes and real t^2 decides.  c is the smallest right singular vector of
    H - a, which is defective at a band centre; of k +- t, the one whose c_0 is
    within 10 of the peak is kept (the other's c_0 can be 1e-48 of it).
    """
    a = nu0 * nu0
    nu = _floquet_start(nu0, q)
    k = round(nu.real)
    if abs(nu - k) < 1e-7:  # keep the side of k, leave the real axis
        nu = k + math.copysign(max(abs(nu.real - k), 1e-9), nu.real - k) + 1e-9j
    n = 20 + math.ceil(math.sqrt(q))
    shift = 2.0 * np.arange(-n, n + 1)
    hill = q * (np.eye(2 * n + 1, k=1) + np.eye(2 * n + 1, k=-1)) + 0j
    for _ in range(60):
        np.fill_diagonal(hill, (nu + shift) ** 2 - a)
        step = 1.0 / (np.linalg.inv(hill).diagonal() @ (2.0 * (nu + shift)))
        if abs(step) <= 1e-14 * max(1.0, abs(nu)):
            break
        nu -= step * min(1.0, 0.25 / abs(step))
    k = round(nu.real)
    t2 = ((nu - k) ** 2).real
    nu = k + (complex(math.copysign(math.sqrt(t2), nu.real - k)) if t2 >= 0.0 else 1j * math.sqrt(-t2))
    for _ in range(2):
        np.fill_diagonal(hill, (nu + shift) ** 2 - a)
        inv = np.linalg.inv(hill)
        c = np.ones(2 * n + 1, dtype=complex)
        for _ in range(3):  # inverse iteration on (H - a)^H (H - a)
            c = inv @ (inv.conj().T @ c)
            c /= c[np.argmax(np.abs(c))]
        if abs(c[n]) >= 0.1:  # c_0 near the peak: a usable normalization
            break
        nu = complex(abs(nu.real + 2 * (int(np.argmax(np.abs(c))) - n)), abs(nu.imag))
    if abs(c[n]) < 0.1 or np.max(np.abs(hill @ c)) > 1e-10 * (1.0 + a + 2.0 * q):  # also: Newton stalled
        raise FitDegenerateError(f"Floquet exponent not resolved (nu={nu0}, q={q})")
    return nu, c / c[n]


def _core_values(nu0: float, q: float) -> tuple[complex, complex]:
    """(f+, df+/dx) at x = 0 by the series in the module docstring (DLMF 28.23).

    df+/dx takes sqrt(q) (J_n H1'_{nu+n} - J_n' H1_{nu+n}); |c_2n| < 1e-20 is dropped.
    """
    nu, c = _floquet(nu0, q)
    keep = np.nonzero(np.abs(c) >= 1e-20)[0]
    n = np.arange(keep[0], keep[-1] + 1) - len(c) // 2
    c = c[keep[0] : keep[-1] + 1]
    x = math.sqrt(q)
    if nu.imag > 0.0:  # an instability band: nu = k + i mu
        h, hd = hankel1_ladder(nu.imag, x, round(nu.real) + n[0], round(nu.real) + n[-1])
    else:
        h, hd = hankel1(nu.real + n, x), h1vp(nu.real + n, x)
    w = np.where(n % 2, -c, c) * cmath.exp(0.5j * math.pi * (nu - nu0))
    jn, jd = jv(n, x), jvp(n, x)
    return complex(w @ (jn * h)), complex(x * (w @ (jn * hd - jd * h)))


def connection_matrices(cfg: QuarticConfig, ms, tol: float | None = None) -> list:
    """Connection matrices of modes ms.

    tol=None, the default, takes T from Floquet data for q <= Q_SPECTRAL,
    with no ODE, and from the inward solve at tol 1e-8 above it.  A float
    tol always runs the inward solve at that tolerance; one solve covers
    all uncached orders.  T depends on (nu, q, tol) only and is cached on
    that key: mass and the sign of m - beta do not enter.
    """
    q = cfg.q
    if tol is None and q > Q_SPECTRAL:
        tol = 1e-8
    if tol is not None:
        _check_tol(tol)
    keys = [(abs(m - cfg.beta), q, tol) for m in ms]
    todo = sorted({key for key in keys if key not in _cache})
    if todo and tol is None:
        with np.errstate(all="ignore"):  # past the double range T is inf or nan and says so
            for key in todo:  # f- = conj f+ for real a and q: the Wronskian is exact
                _cache[key] = _mirror_matrix(*_core_values(key[0], q), -2.0 / math.pi, key[0], q)
    elif todo:
        nus = np.array([key[0] for key in todo])
        u0 = _start_w(q)
        val, der = _outgoing(nus, q, u0)  # d/dx = u d/du on this side
        wronskians = (val * der.conjugate()).imag  # -2/pi up to the dressing
        x0 = math.log(u0 / math.sqrt(q))
        y0 = np.concatenate((val, der))
        end = _integrate(nus * nus, q, y0, x0, 0.0, [0.0], tol)[:, -1]
        for key, f, g, w in zip(todo, end[: len(todo)], end[len(todo) :], wronskians):
            _cache[key] = _mirror_matrix(complex(f), complex(g), float(w), key[0], q)
    found = [_cache[key] for key in keys]
    while len(_cache) > _CACHE_SIZE:  # oldest first
        del _cache[next(iter(_cache))]
    return found


def connection_matrix(cfg: QuarticConfig, m: int, tol: float | None = None) -> ConnectionMatrix:
    """Map origin-side wave coefficients to infinity-side ones for mode m."""
    return connection_matrices(cfg, [m], tol)[0]


def _origin_init(nu: float, q: float, x0: float) -> list:
    """(R, R_x) of dressed H1 (column 0) and H2 (column 1) of argument w at x0."""
    val, der = _outgoing(nu, q, math.sqrt(q) * math.exp(-x0))
    # d/dx = -w d/dw on the origin side; H2 D* = conj(H1 D) for real nu, w
    return [[val, -der], [val.conjugate(), -der.conjugate()]]


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
    x0 = math.log(math.sqrt(q) / u0)
    x1 = math.log(2.0 * u0 / math.sqrt(q))
    x_eval = _window_grid(q, u0, 2.0 * u0, sign=+1)
    cols = []
    for y0 in _origin_init(nu, q, x0):
        y = _integrate(np.array([nu * nu]), q, y0, x0, x1, x_eval, tol)
        cols.append(_fit_waves(nu, q, math.sqrt(q) * np.exp(x_eval), y[0]))
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
    x1 = math.log(FIT_U[1] / math.sqrt(q))
    w_deep = max(_start_w(q), 150.0)
    x0 = math.log(math.sqrt(q) / w_deep)
    w_hi = min(140.0, w_deep)
    x_eval = _window_grid(q, 70.0, w_hi, sign=-1)[::-1]  # inward: descending x

    val, der = _outgoing(nu, q, FIT_U[1])  # d/dx = +u d/du on the infinity side
    a_m, b_m = t[0, 0], t[1, 0]
    y0 = [a_m * val + b_m * val.conjugate(), a_m * der + b_m * der.conjugate()]

    y = _integrate(np.array([nu * nu]), q, y0, x1, x0, x_eval, tol)
    c3, c4 = _fit_waves(nu, q, math.sqrt(q) * np.exp(-x_eval), y[0])
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
