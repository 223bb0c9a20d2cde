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
ODEs I, II.5-II.6) with scipy's tableau and step controller.  The
equation is linear with coefficients of rho alone, so each step is a 2x2
map of (R, dR): numpy passes build the maps of a block of up to BLOCK
steps, all but the first at the cap, with every tableau row contracted
by einsum, and a doubling scan of their products carries (R, dR) through
them.  An oracle_smatrix call takes 1.4 ms at tol 1e-6 and 2.9 ms at
1e-8 (260 and 1025 steps) on a 2-CPU x86 host.

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
BLOCK = 256  # steps per DOP853 block: its maps stay a few hundred kB on any stage


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
        if not (np.isfinite(self.values).all() and np.isfinite(self.derivative_values).all()):
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


@functools.cache
def _tableau() -> tuple:
    """scipy's DOP853 (C, A, E, D) on first use: A row 12 is B, E stacks the rows E5 and E3."""
    from scipy.integrate._ivp import dop853_coefficients as dc  # first use only

    return dc.C, dc.A, np.array([dc.E5, dc.E3]), dc.D


def _combine(w, k) -> np.ndarray:
    """sum_j w_j k_j over a tableau row w, or each row of a stack w, in ascending j: einsum's order without optimize."""
    return np.einsum("...j,jab->...ab", w, k[: w.shape[-1]])


def _stages(coef, t, h, x0, n_stages: int) -> np.ndarray:
    """DOP853's first n_stages stages of the steps (t, h) from the columns x0, as an (n_stages, 4, len(t)) stack.

    A step carries two columns of (R, dR), stored as rows (R 0, R 1, dR 0, dR 1).  Stage s starts from
    G = x0 + (sum_{j<s} A_sj k_j) h at t + c_s h, where (alpha, beta) = coef(t + c_s h) makes k_s =
    (G_dR, alpha G_R + beta G_dR).  From the unit columns x0 = I, k_s is the stage's map: k_s = K_s y.
    """
    c, a = _tableau()[:2]
    nodes = t + c[:n_stages, None] * h
    alpha, beta = (np.broadcast_to(v, nodes.shape) for v in coef(nodes))
    k = np.empty((n_stages, 4, len(t)), np.result_type(alpha, beta))
    for s in range(n_stages):
        g = _combine(a[s, :s], k)
        g *= h
        g += x0
        k[s, :2] = g[2:]
        np.add(np.multiply(alpha[s], g[:2], out=g[:2]), np.multiply(beta[s], g[2:], out=g[2:]), out=k[s, 2:])
    return k


def _apply(m, r, dr) -> np.ndarray:
    """The 2x2 maps m (rows 00, 01, 10, 11) applied to (r, dr)."""
    return np.array([m[0] * r + m[1] * dr, m[2] * r + m[3] * dr])


def _carry(m) -> np.ndarray:
    """Column 0 + i column 1 of the products m_j ... m_0 of 2x2 maps m (rows 00, 01, 10, 11), as (2, n).

    A doubling scan (Blelloch, Prefix sums and their applications, CMU 1990): the pass at stride s joins runs of s.
    """
    p, s = m.reshape(2, 2, -1).copy(), 1
    while s < p.shape[2]:
        np.add.reduce(p[:, :, None, s:] * p[None, :, :, :-s], axis=1, out=p[:, :, s:])
        s *= 2
    return p[:, 0] + 1j * p[:, 1]


def _dop853(coef, t0: float, t1: float, y0, t_eval, tol: float, max_step: float, what: str):
    """(R, dR, nfev) of (R, dR)' = (dR, alpha R + beta dR), (alpha, beta) = coef(t), at ascending t_eval in [t0 < t1].

    The steps and, up to rounding, the values of solve_ivp(method="DOP853", rtol=tol, atol=1e-3 tol max|y0|).
    A step is y -> y + U y, with U, the error sums and the dense-output rows 2x2 maps from _stages.  A block is a
    step at the controller's h and up to BLOCK - 1 at the cap max_step, of which the controller takes the prefix
    it would take step by step: a rejection, or a step after which h falls below max_step, ends it.  A retry, or
    a step with 10 h < max_step, is a block of one.  The first step starts from (Re y, Im y), so it rounds as a
    scalar step does: it is the step whose error sets h where the cap does not.  _carry takes y through the
    rest.  nfev counts 12 a step tried, 3 a step with output.
    """
    _, a, e, d = _tableau()
    r, dr = complex(y0[0]), complex(y0[1])
    rtol, atol = tol, 1e-3 * tol * max(abs(r), abs(dr), 1e-30)

    def rms(x, y):  # over the scale (sr, sd)
        return math.sqrt(0.5 * (abs(x / sr) ** 2 + abs(y / sd) ** 2))

    t, t_eval, i_eval, rejected, out = t0, np.asarray(t_eval, dtype=float), 0, False, [np.empty((2, 0), complex)]
    with np.errstate(all="ignore"):  # a non-finite state is caught by its nan error below
        # select_initial_step (Hairer, Norsett & Wanner, Solving ODEs I, II.4), error order 7
        fr, fd = _apply((0.0, 1.0, *coef(t0)), r, dr)  # the right-hand side is the map (0, 1, alpha, beta)
        sr, sd = atol + abs(r) * rtol, atol + abs(dr) * rtol
        d0, d1 = rms(r, dr), rms(fr, fd)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
        gr, gd = _apply((0.0, 1.0, *coef(t0 + h0)), r + h0 * fr, dr + h0 * fd)
        d2 = rms(gr - fr, gd - fd) / h0
        h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
        h_abs, nfev = float(min(100.0 * h0, h1, t1 - t0, max_step)), 2

        while t < t1:
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            if not rejected:
                h_abs = min(max(h_abs, min_step), max_step)
            if h_abs < min_step:
                raise StiffnessError(
                    f"{what} stage failed near t={t}: Required step size is less than spacing between numbers."
                )
            size = BLOCK if 10.0 * h_abs >= max_step and not rejected else 1  # steps after the first at the cap
            ends = np.cumsum(np.concatenate(([t, h_abs], np.full(size - 1, max_step))))[1:]
            ends = np.minimum(ends[: int(np.searchsorted(ends, t1)) + 1], t1)  # the last ends at t1
            starts = np.concatenate(([t], ends[:-1]))
            h = ends - starts
            x0 = np.repeat([[1.0], [0.0], [0.0], [1.0]], len(h), 1)
            x0[:, 0] = r.real, r.imag, dr.real, dr.imag
            k = _stages(coef, starts, h, x0, 16 if i_eval < len(t_eval) and t_eval[i_eval] <= ends[-1] else 13)
            # y_new = x0 + U x0 of each step: (Re, Im) of the first's, the map 1 + U of the others'
            y = np.concatenate(([[r], [dr]], _carry(_combine(a[12, :12], k) * h + x0)), axis=1)
            w = np.concatenate(([[1.0], [1j]], y[:, 1:-1]), axis=1)  # what turns each step's columns into its y

            # the combined E5/E3 error norm, scaled by atol + rtol max(|y|, |y_new|)
            scale = atol + np.maximum(abs(y[:, :-1]), abs(y[:, 1:])) * rtol
            err5, err3 = 0.5 * (abs(_apply(_combine(e, k).swapaxes(0, 1), *w) / scale[:, None]) ** 2).sum(0)
            err = np.where((err5 == 0.0) & (err3 == 0.0), 0.0, h * err5 / np.sqrt(err5 + 0.01 * err3))
            factor = np.where(err == 0.0, 10.0, 0.9 * err**-0.125)  # SAFETY 0.9, MAX_FACTOR 10
            grow = np.minimum(factor, 1.0 if rejected else 10.0)  # no growth right after a rejection
            stop = ~((err < 1.0) & (h * grow >= max_step))
            i = int(np.argmax(stop)) if stop.any() else len(h) - 1
            if err[i] != err[i]:  # nan: the state went non-finite
                raise StiffnessError(f"{what} stage produced non-finite values")
            nfev += 12 * (i + 1)
            rejected = not err[i] < 1.0
            h_abs = float(h[i] * (max(0.2, factor[i]) if rejected else grow[i]))  # MIN_FACTOR
            n = i + (not rejected)  # steps taken
            t, (r, dr) = float(ends[n - 1]) if n else t, y[:, n].tolist()

            j_eval = int(np.searchsorted(t_eval, t, "right"))
            if n and j_eval > i_eval:
                # dense output: the 7-term interpolant of the steps holding a point
                pts = t_eval[i_eval:j_eval]
                steps, at = np.unique(np.searchsorted(ends[:n], pts), return_inverse=True)
                nfev += 3 * len(steps)
                hs, ws, ks = h[steps], w[:, steps], k[:, :, steps]
                f, g, du = _apply(ks[0], *ws), _apply(ks[12], *ws), y[:, steps + 1] - y[:, steps]
                dense = _apply((_combine(d, ks) * hs).swapaxes(0, 1), *ws).swapaxes(0, 1)
                poly = np.concatenate(([du, hs * f - du, 2.0 * du - hs * (g + f)], dense))[:, :, at]
                x = (pts - starts[steps][at]) / hs[at]
                v = 0.0
                for p, f in zip(poly[::-1], (x, 1.0 - x, x, 1.0 - x, x, 1.0 - x, x)):
                    v = (v + p) * f
                out.append(y[:, steps[at]] + v)
                i_eval = j_eval

    return (*np.concatenate(out, axis=1), nfev)


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

        # R_xx + (p^2 e^{2x} - nu^2) R = 0
        vals, dx, _ = _dop853(lambda x: (nu2 - p2 * np.exp(2.0 * x), 0.0), x0, x1, (y[0], y[1] * rho_in), xs[keep],
                              tol, cap, "log-radius")
        rho = rho[keep]
        ders = dx / rho  # dR/dx = rho dR/drho
        y = (vals[-1], ders[-1])

    if rho_out > split * (1 + 1e-12):
        wavelengths = (rho_out - split) * cfg.p / (2.0 * math.pi)
        n = max(80, int(POINTS_PER_WAVELENGTH * wavelengths) + 2)
        rs = np.linspace(split, rho_out, n)
        rs = rs[rs >= lo]

        vals_lin, ders_lin, _ = _dop853(lambda r: (nu2 / (r * r) - p2, -1.0 / r), split, rho_out, y, rs, tol,
                                        cap / cfg.p, "radius")
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
        raise FitDegenerateError(f"fit basis nearly collinear (singular values {sv})")
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
        raise FitDegenerateError(f"mu={mode.mu} too small: rho^{{+-mu}} branches are collinear")
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
        raise FitDegenerateError(f"only {n} samples across {wavelengths:.1f} wavelengths in the fit window")
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
    """End-to-end numerical S_m: series init, radial propagation, wave fit.

    A real order nu > 1/2 starts at 10^(-2/nu) min(1/p, 1), where its rho^{+nu} branch is >= 1e-4 of the
    rho^{-nu} one: at 1e-8 of it (nu near 1, default_rho_in) rounding leaves S ~1e-7 off at any tol.
    """
    rho_in = default_rho_in(cfg)
    if mode.regime != Regime.SUPERCRITICAL and mode.mu > 0.5:
        rho_in = 10.0 ** (-2.0 / mode.mu) * min(1.0 / cfg.p, 1.0)
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
