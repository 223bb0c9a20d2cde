"""Independent numerical verification of the closed-form channels.

This module never uses the closed-form S-matrix algebra: it integrates
the radial equation

    R'' + R'/rho + (p^2 - nu^2/rho^2) R = 0

outward from series initial data near the origin and reads the S-matrix
off a least-squares fit of ingoing/outgoing waves at large radius.  Any
agreement with the channels module is therefore evidence, not tautology.

Integration runs in two stages: in x = ln(rho) from rho_in up to 2/p
(the equation becomes R_xx + (p^2 e^{2x} - nu^2) R = 0, with a constant
phase rate mu near the origin), then in rho itself out to rho_out.  The
step size is capped at c tau^{0.3} so the global error scales roughly as
tau^{2.4}: halving the tolerance then shrinks S-matrix errors by ~5x,
comfortably beating the factor-4 refinement contract, which pure
adaptive stepping (error ~ tau^{7/8}) cannot meet.

Both stages run on _dop853: DOP853 (Hairer, Norsett & Wanner, Solving
ODEs I, II.5-II.6) with scipy's tableau and step controller in plain
Python complex arithmetic on (R, dR).  It takes solve_ivp's steps without
its generic n-vector machinery (~230 us a step against ~3 us for this
right-hand side), summing its stages in generated straight-line code.
oracle_smatrix samples only the fit window, so earlier steps skip dense
output: a call takes 7.4 ms at tol 1e-6 and 24.6 ms at 1e-8 (260 and
1025 steps) against 12.5 and 36.9 ms with loop sums and a full grid.

Large-rho fits use the correction-dressed wave basis

    g_out/in = e^{+-i(p rho - pi/4)} / sqrt(rho) * sum_k (+-i)^k a_k (p rho)^{-k}

with the standard a_k recurrence; the undressed leading waves would bias
the fit at the |4 nu^2 - 1|/(8 p rho) ~ 1e-2 level, far above the 1e-6
residual budget.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    PartialMode,
    Regime,
    ScatteringConfig,
    _resolve,
)
from .errors import ConfigError, FitDegenerateError, StiffnessError
from .specfun import Order, bessel_j_pair, complex_gamma, hankel_pair

__all__ = [
    "RadialProfile",
    "default_rho_in",
    "init_for_model",
    "integrate_radial",
    "match_small_rho",
    "match_large_rho",
    "extract_smatrix",
    "oracle_smatrix",
    "profile_current",
    "current_spread",
]

MU_FIT_MIN = 1e-3
POINTS_PER_WAVELENGTH = 40
FIT_WINDOW = (50.0, 100.0)  # in units of 1/p


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial solution: R and dR/drho on an ascending grid."""

    rho_grid: np.ndarray
    values: np.ndarray
    derivative_values: np.ndarray

    def __post_init__(self) -> None:
        if self.rho_grid.size == 0:
            raise ConfigError("profile grid is empty: the radial range is too short to sample")
        if np.any(np.diff(self.rho_grid) <= 0):
            raise ConfigError("profile grid must be strictly increasing")
        if not (
            np.all(np.isfinite(self.values))
            and np.all(np.isfinite(self.derivative_values))
        ):
            raise StiffnessError("profile contains non-finite values")


def default_rho_in(cfg: ScatteringConfig) -> float:
    return 1e-4 * min(1.0 / cfg.p, 1.0)


# ---------------------------------------------------------------------
# series initial data
# ---------------------------------------------------------------------


def _order_of(mode: PartialMode) -> Order:
    if mode.regime == Regime.SUPERCRITICAL:
        return Order.imaginary(mode.mu)
    return Order.real(mode.mu)


def _j_neg_pair(order: Order, x: float) -> tuple[complex, complex]:
    """(J_{-nu}, J'_{-nu}) from H1 (real nu, H2 = conj H1) or conjugation."""
    if order.kind == "imaginary":
        v, d = bessel_j_pair(order, x)
        return v.conjugate(), d.conjugate()
    h, hd = hankel_pair(1, order, x)
    ph = cmath.exp(1j * math.pi * order.mu)
    return 0.5 * (ph * h + h.conjugate() / ph), 0.5 * (ph * hd + hd.conjugate() / ph)


def _power_normalized_pair(
    cfg: ScatteringConfig, mode: PartialMode, rho: float, sign: int
) -> tuple[complex, complex]:
    """Exact solution behaving as rho^{+nu} (sign=+1) or rho^{-nu} (sign=-1).

    g_{+-} = Gamma(1 -+ ... ) scaled Bessel: g = Gamma(1 +- nu) (p/2)^{-+ nu}
    J_{+-nu}(p rho) -> rho^{+-nu} (1 + O(rho^2)).
    """
    order = _order_of(mode)
    nu = order.nu
    x = cfg.p * rho
    if sign > 0:
        j, jd = bessel_j_pair(order, x)
        pref = complex_gamma(1.0 + nu) * cmath.exp(-nu * cmath.log(0.5 * cfg.p))
    else:
        j, jd = _j_neg_pair(order, x)
        pref = complex_gamma(1.0 - nu) * cmath.exp(nu * cmath.log(0.5 * cfg.p))
    return pref * j, pref * jd * cfg.p


def init_for_model(
    cfg: ScatteringConfig, mode: PartialMode, model, rho: float
) -> tuple[complex, complex]:
    """(R, dR/drho) at rho implementing the model's near-origin condition.

    Sink and elastic conditions are built from J-type series only, keeping
    the oracle independent of the Hankel connection algebra the closed
    forms rest on.  Total absorption and custom ratios are defined through
    the Hankel pair itself, so those inits share that algebra; their
    oracle runs still independently verify the radial propagation and the
    large-rho bookkeeping.
    """
    action, param = _resolve(model, mode)
    order, x = _order_of(mode), cfg.p * rho
    if action == "regular":
        return _power_normalized_pair(cfg, mode, rho, +1)
    if action == "sink":
        j, jd = bessel_j_pair(order, x)
        return j.conjugate(), cfg.p * jd.conjugate()
    if action in ("elastic_sub", "elastic_super"):
        # R = g+ + c g-, c = l (subcritical) or e^{i theta} (supercritical)
        c = param if action == "elastic_sub" else cmath.exp(1j * param)
        gp, gpd = _power_normalized_pair(cfg, mode, rho, +1)
        gm, gmd = _power_normalized_pair(cfg, mode, rho, -1)
        return gp + c * gm, gpd + c * gmd
    h2, h2d = hankel_pair(2, order, x)
    if action == "total":
        return h2, cfg.p * h2d
    # custom ratio r: R = r H1 + H2
    h1, h1d = hankel_pair(1, order, x)
    r = complex(param)
    return r * h1 + h2, cfg.p * (r * h1d + h2d)


# ---------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------


def _tableau() -> tuple:
    """scipy's DOP853 (C, A, E5, E3, D), rows as (j, coefficient) pairs; A row 12 is B, 13..15 dense output."""
    from scipy.integrate._ivp import dop853_coefficients as dc  # first use only

    def rows(m):
        return tuple(tuple((j, float(v)) for j, v in enumerate(row) if v) for row in m)

    return (tuple(dc.C.tolist()), rows(dc.A), *rows([dc.E5, dc.E3]), rows(dc.D))


@functools.cache
def _kernel() -> tuple:
    """(step, dense): DOP853's stages as straight-line code generated from _tableau() on first use.

    Every stage sum is 0j + w k_j over the row's (j, w) pairs in ascending j, w written as
    its exact repr: the same IEEE operations, in the same order, as a loop over the row.
    step returns y_new, the E5 and E3 sums and stages 0-12; dense runs stages 13-15 and
    returns h times the 4 D-row sums of the interpolant.
    """
    c, a, e5, e3, d = _tableau()
    ks = [", ".join(f"k{j}{x}" for j in range(13)) for x in "rd"]

    def dot(row, x):
        return "(0j" + "".join(f" + {w!r} * k{j}{x}" for j, w in row) + ")"

    def stage(s):  # y at the stage's node (y_new for s = 12), then k_s = f there
        return (f"    yr, yd = r + {dot(a[s], 'r')} * h, dr + {dot(a[s], 'd')} * h\n"
                f"    k{s}r, k{s}d = rhs(t + {c[s]!r} * h, yr, yd)\n")

    terms = ", ".join(f"(h * {dot(row, 'r')}, h * {dot(row, 'd')})" for row in d)
    src = (
        "def step(rhs, t, h, r, dr, k0r, k0d):\n" + "".join(map(stage, range(1, 13)))
        + f"    return yr, yd, {dot(e5, 'r')}, {dot(e5, 'd')}, {dot(e3, 'r')}, {dot(e3, 'd')}, ({ks[0]}), ({ks[1]})\n"
        + f"def dense(rhs, t, h, r, dr, kr, kd):\n    {ks[0]} = kr\n    {ks[1]} = kd\n"
        + "".join(map(stage, (13, 14, 15))) + f"    return [{terms}]\n"
    )
    namespace: dict = {}
    exec(compile(src, "<dop853>", "exec"), namespace)
    return namespace["step"], namespace["dense"]


def _dop853(rhs, t0: float, t1: float, y0, t_eval, tol: float, max_step: float, what: str):
    """(R, dR, nfev) of (R, dR)' = rhs(t, R, dR) at the ascending points t_eval in [t0, t1], t0 < t1.

    The steps and, up to rounding, the values of solve_ivp(method="DOP853", rtol=tol, atol=1e-3 tol max|y0|).
    The stages run as _kernel's straight-line code, bit-identical to the loop form summing each
    tableau row.  Steps with no point of t_eval skip the 3 dense-output stages (and their nfev).
    """
    step, dense = _kernel()
    r, dr = complex(y0[0]), complex(y0[1])
    rtol, atol = tol, 1e-3 * tol * max(abs(r), abs(dr), 1e-30)

    def rms(x, y):  # over the scale (sr, sd)
        return math.sqrt(0.5 * (abs(x / sr) ** 2 + abs(y / sd) ** 2))

    # select_initial_step (Hairer, Norsett & Wanner, Solving ODEs I, II.4), error order 7
    fr, fd = rhs(t0, r, dr)
    sr, sd = atol + abs(r) * rtol, atol + abs(dr) * rtol
    d0, d1 = rms(r, dr), rms(fr, fd)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    gr, gd = rhs(t0 + h0, r + h0 * fr, dr + h0 * fd)
    d2 = rms(gr - fr, gd - fd) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs, nfev = min(100.0 * h0, h1, t1 - t0, max_step), 2

    t, t_eval, i_eval, out = t0, list(t_eval), 0, []
    while t < t1:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    f"{what} stage failed near t={t}: Required step size is less than spacing between numbers."
                )
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            r_new, dr_new, e5r, e5d, e3r, e3d, kr, kd = step(rhs, t, h, r, dr, fr, fd)
            nfev += 12
            # the combined E5/E3 error norm, scaled by atol + rtol max(|y|, |y_new|)
            sr, sd = atol + max(abs(r), abs(r_new)) * rtol, atol + max(abs(dr), abs(dr_new)) * rtol
            err5, err3 = rms(e5r, e5d) ** 2, rms(e3r, e3d) ** 2
            err = 0.0 if err5 == 0.0 and err3 == 0.0 else h * err5 / math.sqrt(err5 + 0.01 * err3)
            if err != err:  # nan: the state went non-finite
                raise StiffnessError(f"{what} stage produced non-finite values")
            factor = 10.0 if err == 0.0 else 0.9 * err**-0.125  # SAFETY 0.9, MAX_FACTOR 10
            if err < 1.0:
                h_abs *= min(1.0 if rejected else 10.0, factor)  # no growth right after a rejection
                break
            h_abs *= max(0.2, factor)  # MIN_FACTOR
            rejected = True

        if i_eval < len(t_eval) and t_eval[i_eval] <= t_new:
            # dense output: three more stages and the 7-term interpolant
            nfev += 3
            ur, ud = r_new - r, dr_new - dr
            poly = [(ur, ud), (h * fr - ur, h * fd - ud), (2.0 * ur - h * (kr[12] + fr), 2.0 * ud - h * (kd[12] + fd))]
            poly += dense(rhs, t, h, r, dr, kr, kd)
            while i_eval < len(t_eval) and t_eval[i_eval] <= t_new:
                x = (t_eval[i_eval] - t) / h
                vr = vd = 0j
                for (pr, pd), f in zip(poly[::-1], (x, 1.0 - x, x, 1.0 - x, x, 1.0 - x, x)):
                    vr, vd = (vr + pr) * f, (vd + pd) * f
                out.append((r + vr, dr + vd))
                i_eval += 1
        t, r, dr, fr, fd = t_new, r_new, dr_new, kr[12], kd[12]

    return (*np.array(out, dtype=complex).reshape(-1, 2).T, nfev)


def _check_tol(tol) -> None:
    """Refuse an ODE tolerance outside [1e-10, 1e-3]: nan would never finish a step."""
    if not 1e-10 <= tol <= 1e-3:  # nan fails too
        raise ConfigError(f"tol must be finite and in [1e-10, 1e-3], got {tol}")


def integrate_radial(
    cfg: ScatteringConfig,
    mode: PartialMode,
    init: tuple[complex, complex],
    rho_out: float,
    rho_in: float | None = None,
    tol: float = 1e-8,
) -> RadialProfile:
    """Propagate (R, dR/drho) from rho_in to rho_out on a dense grid.

    init gives (R, dR/drho) at rho_in (default 1e-4 min(1/p, 1)).  The
    returned grid is log-spaced inside the oscillation-free core region
    and carries >= 40 points per wavelength beyond it.
    """
    return _sample_radial(cfg, mode, init, rho_out, default_rho_in(cfg) if rho_in is None else rho_in, tol, 0.0)


def _sample_radial(cfg, mode, init, rho_out: float, rho_in: float, tol: float, lo: float) -> RadialProfile:
    """integrate_radial's grid points rho >= lo and the log stage's last (the hand-off): same steps, same values."""
    _check_tol(tol)
    if not 0.0 < rho_in < rho_out:
        raise ConfigError(f"need 0 < rho_in < rho_out, got [{rho_in}, {rho_out}]")
    nu2, p2 = mode.nu_squared, cfg.p**2
    cap = min(0.9, 26.5 * tol**0.3)

    split = min(2.0 / cfg.p, rho_out)
    rho, vals, ders = np.array([]), np.array([], dtype=complex), np.array([], dtype=complex)
    y = (complex(init[0]), complex(init[1]))

    if split > rho_in * (1 + 1e-12):
        x0, x1 = math.log(rho_in), math.log(split)
        n = max(60, int(40 * (x1 - x0) / math.log(10.0)) + 1)
        xs = np.linspace(x0, x1, n)
        rho = np.exp(xs)
        keep = rho >= lo
        keep[-1] = True  # the hand-off to the radius stage

        def rhs_log(x, r, dr):
            # R_xx + (p^2 e^{2x} - nu^2) R = 0
            e = math.exp(x)
            return dr, (nu2 - p2 * e * e) * r

        vals, dx, _ = _dop853(rhs_log, x0, x1, (y[0], y[1] * rho_in), xs[keep], tol, cap, "log-radius")
        rho = rho[keep]
        ders = dx / rho  # dR/dx = rho dR/drho
        y = (vals[-1], ders[-1])

    if rho_out > split * (1 + 1e-12):
        wavelengths = (rho_out - split) * cfg.p / (2.0 * math.pi)
        n = max(80, int(POINTS_PER_WAVELENGTH * wavelengths) + 2)
        rs = np.linspace(split, rho_out, n)
        rs = rs[rs >= lo]

        def rhs_lin(r, v, dv):
            return dv, -dv / r + (nu2 / (r * r) - p2) * v

        vals_lin, ders_lin, _ = _dop853(rhs_lin, split, rho_out, y, rs, tol, cap / cfg.p, "radius")
        # split ends the log grid and starts this one: keep it once
        rho, vals, ders = np.append(rho[:-1], rs), np.append(vals[:-1], vals_lin), np.append(ders[:-1], ders_lin)

    return RadialProfile(rho_grid=rho, values=vals, derivative_values=ders)


# ---------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------


def _lstsq_two_column(basis_a, basis_b, data, what: str) -> tuple:
    """Least-squares coefficients of data on two basis columns; FitDegenerateError past 1e-6 residual."""
    m = np.column_stack([basis_a, basis_b])
    scale = np.linalg.norm(m, axis=0)
    if np.any(scale == 0.0):
        raise FitDegenerateError("fit basis column vanished on the window")
    coef, _, rank, sv = np.linalg.lstsq(m / scale, data, rcond=None)
    if rank < 2 or sv[-1] < 1e-12 * sv[0]:
        raise FitDegenerateError(
            f"fit basis nearly collinear (singular values {sv})"
        )
    coef = coef / scale
    resid = np.linalg.norm(m @ coef - data) / max(np.linalg.norm(data), 1e-300)
    if resid > 1e-6:
        raise FitDegenerateError(f"{what} fit residual {resid:.2e} exceeds 1e-6")
    return coef[0], coef[1]


def match_small_rho(profile: RadialProfile, mode: PartialMode, cfg: ScatteringConfig) -> tuple:
    """(A, B) with R ~ A rho^{-ord} + B rho^{+ord} over the innermost decade.

    The basis carries the first Bessel-series correction, so the fit
    window [rho_in, 10 rho_in] contributes O((p rho)^4) bias only.
    """
    if mode.mu < MU_FIT_MIN:
        raise FitDegenerateError(
            f"mu={mode.mu} too small: rho^{{+-mu}} branches are collinear"
        )
    rho = profile.rho_grid
    lo = rho[0]
    if lo > 0.01 * min(1.0, 1.0 / cfg.p, 1.0 / max(mode.mu, 1e-12)):
        raise ConfigError(f"grid starts at {lo}, too far out for a small-rho fit")
    sel = rho <= 10.0 * lo
    if np.count_nonzero(sel) < 8:
        raise FitDegenerateError("too few points in the innermost decade")
    r = rho[sel]
    nu = complex(mode.mu) if mode.regime != Regime.SUPERCRITICAL else 1j * mode.mu
    q = (0.5 * cfg.p * r) ** 2
    b_minus = np.exp(-nu * np.log(r)) * (1.0 - q / (1.0 - nu))
    b_plus = np.exp(nu * np.log(r)) * (1.0 - q / (1.0 + nu))
    return _lstsq_two_column(b_minus, b_plus, profile.values[sel], "small-rho")


def _wave_dressing(nu_squared: float, x: np.ndarray) -> np.ndarray:
    """sum_k i^k a_k x^{-k}, truncated at the min term.

    The a_k are real, so the ingoing (-i)^k series is its exact conjugate.
    """
    terms = [np.ones_like(x)]
    a_k = 1.0
    mags = [1.0]
    xmin = float(np.min(x))
    for k in range(0, 40):
        a_k = a_k * (4.0 * nu_squared - (2 * k + 1) ** 2) / (8.0 * (k + 1))
        terms.append(a_k / x ** (k + 1))
        mags.append(abs(a_k) / xmin ** (k + 1))
        if mags[-1] < 1e-16:
            break
    k_min = int(np.argmin(mags))
    if mags[k_min] > 1e-9:
        raise FitDegenerateError(
            f"wave-basis correction series bottoms out at {mags[k_min]:.2e}; "
            "order too large for the fit window"
        )
    s = np.zeros_like(x, dtype=complex)
    ik = 1.0 + 0.0j
    for k in range(k_min + 1):
        s = s + ik * terms[k]
        ik *= 1j
    return s


def match_large_rho(
    profile: RadialProfile, cfg: ScatteringConfig, mode: PartialMode
) -> tuple:
    """(ingoing, outgoing) amplitudes in the e^{-+i(p rho - pi/4)}/sqrt(rho) basis.

    Fits over the [50/p, 100/p] window of the grid; raises
    FitDegenerateError when the window holds fewer than 20 samples per
    wavelength or the correction series cannot reach 1e-9.
    """
    rho = profile.rho_grid
    lo, hi = FIT_WINDOW[0] / cfg.p, FIT_WINDOW[1] / cfg.p
    if rho[-1] < hi * (1.0 - 1e-9):
        raise ConfigError(f"grid ends at {rho[-1]}, before the fit window [{lo}, {hi}]")
    sel = (rho >= lo) & (rho <= hi)
    n = int(np.count_nonzero(sel))
    wavelengths = (hi - lo) * cfg.p / (2.0 * math.pi)
    if n < 20 * wavelengths:
        raise FitDegenerateError(
            f"only {n} samples across {wavelengths:.1f} wavelengths in the fit window"
        )
    r = rho[sel]
    x = cfg.p * r
    phase = np.exp(1j * (x - 0.25 * math.pi))
    g_out = phase * _wave_dressing(mode.nu_squared, x) / np.sqrt(r)
    return _lstsq_two_column(np.conj(g_out), g_out, profile.values[sel], "large-rho")


def extract_smatrix(profile: RadialProfile, cfg: ScatteringConfig, mode: PartialMode) -> complex:
    """S_m = e^{i pi m} c_out / c_in, uniform across regimes.

    The order-dependent phases e^{-+i nu pi/2} of the Hankel asymptotics
    stay inside the coefficient ratio; the single e^{i pi m} factor
    completes the plane-wave bookkeeping.
    """
    c_in, c_out = match_large_rho(profile, cfg, mode)
    if c_in == 0:
        raise FitDegenerateError("no ingoing component; S is undefined")
    return cmath.exp(1j * math.pi * mode.m) * c_out / c_in


def oracle_smatrix(
    cfg: ScatteringConfig,
    mode: PartialMode,
    model,
    tol: float = 1e-6,
) -> complex:
    """End-to-end numerical S_m: series init, radial propagation, wave fit."""
    rho_in = default_rho_in(cfg)
    init = init_for_model(cfg, mode, model, rho_in)
    # the fit reads only the window's points: steps before it skip dense output
    profile = _sample_radial(cfg, mode, init, FIT_WINDOW[1] / cfg.p, rho_in, tol, FIT_WINDOW[0] / cfg.p)
    return extract_smatrix(profile, cfg, mode)


# ---------------------------------------------------------------------
# currents
# ---------------------------------------------------------------------


def profile_current(profile: RadialProfile, mass: float) -> np.ndarray:
    """rho Im(conj(R) dR/drho) / M on the grid; constant for exact solutions."""
    return (
        profile.rho_grid
        * np.imag(np.conj(profile.values) * profile.derivative_values)
        / mass
    )


def current_spread(profile: RadialProfile, mass: float) -> tuple[float, float]:
    """(mean scaled current, relative spread) over the grid."""
    j = profile_current(profile, mass)
    mean = float(np.mean(j))
    spread = float(np.max(j) - np.min(j))
    return mean, spread / max(abs(mean), 1e-300)
