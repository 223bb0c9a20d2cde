"""Bessel and Hankel functions of real and purely imaginary order.

The radial problems in this package reduce to Bessel's equation

    y'' + y'/x + (1 - nu^2/x^2) y = 0

with nu^2 of either sign.  For nu^2 >= 0 (order nu = mu real) we delegate to
scipy's AMOS bindings, imported on first use (``_sp``; an inverse-square Sink
run never needs them); a value and its derivative come from one ufunc call
over the orders mu - 1, mu, mu + 1.  For nu^2 < 0 (order nu = i*mu, mu > 0)
scipy has no support; J_{i mu} and the outgoing Hankel function H1 are
routed by region:

* ``x < max(30, 10*mu)``: the ascending power series in Python integer
  fixed point with exact term ratios, at about 64 + x/ln 2 bits so that
  the alternating sum's ~e^x cancellation leaves double precision (see
  ``_series_imag_exact``); 0.009-2.4 ms per value and derivative on a
  2-CPU x86 host.
* ``x >= max(30, 10*mu)``: Hankel's large-argument expansion, summed in
  double precision.  At x = 10*mu the smallest term is below ~1e-12 for
  every mu <= 60.

Below the edge H1 is formed from J_{i mu} and J_{-i mu} = conj J_{i mu}.
The ingoing H2 is never evaluated on its own: at real argument it is the
reflection of H1, H2_mu = conj H1_mu and H2_{i mu} = e^{-mu pi} conj H1_{i mu}
(DLMF 10.11).

Supported box: order magnitude mu <= 60 and 0 < x <= 1e4.  Outside it the
functions raise RangeError rather than silently losing digits.
hankel1_ladder carries one pair of order i*mu to the complex orders
k + i*mu by recurrence, for the quartic core's instability bands.

Conventions (fixed package-wide): time dependence e^{-iEt}, so
H^{(1)}_nu(x) ~ sqrt(2/(pi x)) e^{+i(x - nu pi/2 - pi/4)} is the outgoing
wave and H^{(2)} the ingoing one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, RangeError

__all__ = [
    "Order",
    "complex_gamma",
    "bessel_j",
    "bessel_j_pair",
    "hankel",
    "hankel_pair",
    "wronskian_check",
]

ORDER_MAX = 60.0
X_MAX = 1.0e4


class _DeferredSpecial:
    """scipy.special, most of the package's import time, imported on first use."""

    def __getattr__(self, name: str):  # the first fetch rebinds _sp to the module
        global _sp
        from scipy import special as _sp

        return getattr(_sp, name)


_sp = _DeferredSpecial()  # reach it as specfun._sp: a name imported from here keeps the placeholder, an import per call


# =====================================================================
# complex gamma
# =====================================================================

_POLE_TOL = 1e-14


def complex_gamma(z: complex) -> complex:
    """Gamma(z) for complex z (scipy.special.gamma).

    Against a 40-digit mpmath reference the relative error is below 6e-14
    for |z| <= 51 and below 4e-13 on the line 1 +- i mu for mu <= 240,
    which covers every Gamma(1 +- i mu) a scattering run forms.

    Raises
    ------
    PoleError
        If z is a non-positive real integer within 1e-14 (scipy gives NaN).
    RangeError
        If z or Gamma(z) is not finite.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise RangeError(f"complex_gamma: non-finite argument {z!r}")
    if (
        abs(z.imag) <= _POLE_TOL
        and z.real <= 0.5
        and abs(z.real - round(z.real)) <= _POLE_TOL
    ):
        raise PoleError(f"gamma pole at z = {z!r}")
    g = complex(_sp.gamma(z))
    _check_finite("complex_gamma", g)
    return g


# =====================================================================
# order tag
# =====================================================================


@dataclass(frozen=True)
class Order:
    """Bessel order, either mu (real) or i*mu (purely imaginary), mu >= 0.

    Mixed complex orders are out of scope; the two families cover the
    centrifugal strengths nu^2 >= 0 and nu^2 < 0 respectively.
    """

    kind: str  # "real" | "imaginary"
    mu: float

    def __post_init__(self) -> None:
        if self.kind not in ("real", "imaginary"):
            raise RangeError(f"unknown order kind {self.kind!r}")
        mu = float(self.mu)
        if not math.isfinite(mu):
            raise RangeError("order magnitude must be finite")
        if self.kind == "real" and not 0.0 <= mu <= ORDER_MAX:
            raise RangeError(f"real order mu={mu} outside [0, {ORDER_MAX}]")
        if self.kind == "imaginary" and not 0.0 < mu <= ORDER_MAX:
            raise RangeError(f"imaginary order mu={mu} outside (0, {ORDER_MAX}]")
        object.__setattr__(self, "mu", mu)

    @classmethod
    def real(cls, mu: float) -> "Order":
        return cls("real", mu)

    @classmethod
    def imaginary(cls, mu: float) -> "Order":
        return cls("imaginary", mu)

    @property
    def nu(self) -> complex:
        """The order as a complex number."""
        return complex(self.mu, 0.0) if self.kind == "real" else complex(0.0, self.mu)

    @property
    def nu_squared(self) -> float:
        return self.mu**2 if self.kind == "real" else -(self.mu**2)


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or not 0.0 < x <= X_MAX:
        raise RangeError(f"argument x={x!r} outside (0, {X_MAX}]")
    return x


def _check_finite(tag: str, *vals: complex) -> None:
    for v in vals:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise RangeError(f"{tag}: result exceeded double dynamic range")


# =====================================================================
# imaginary order: ascending series
# =====================================================================


def _dyadic(v: float) -> tuple[int, int]:
    """(n, a) with v = n / 2**a exactly, a >= 0, and n odd when a > 0."""
    n, d = v.as_integer_ratio()
    return n, d.bit_length() - 1


def _series_imag_exact(mu: float, x: float) -> tuple[complex, complex]:
    """(sum t_k, sum (2k + i mu) t_k) of the series in integer fixed point.

    mu = M / 2^a and x = X / 2^b are taken exactly, so the term ratio
    t_k / t_{k-1} = -(x/2)^2 / (k (k + i mu))
                  = -X^2 (k 2^a - i M) / (2^(2b+2) k ((k 2^a)^2 + M^2))
    is an exact rational, and each term T_k = t_k 2^P is rounded once, by
    the final floor division, to within one unit per component.

    Precision: P = 64 + E_x + E_mu bits, with 2^E_x >= e^x and
    2^E_mu >= 1 / min(1, mu).  The ratios r_k = |t_k / t_{k-1}| fall with
    k, so an error made at term j reaches term j + l damped by at least
    |t_l|, and the rounding errors of K terms add up to at most
    2^(1/2) K sum_l |t_l| 2^-P <= 2^(1/2) K 2^-64 min(1, mu), since
    sum_l |t_l| <= I_0(x) <= e^x.  Once r_{k+1} <= 1/2 (k >= k_drop) an
    error is at most doubled downstream, so the terms and the partial sums
    drop the E_x guard bits there and go on at 64 + E_mu bits, which adds
    at most 2^(3/2) K 2^-64 min(1, mu) and saves about a sixth of the time
    at x ~ 400.
    Stopping rule: the sum ends with the first term whose components are
    both at most 2^E_x units of 2^-P, |t_K| <= 2^(1/2 - 64) min(1, mu).
    There r_K < 1/2 (with r_K >= 1/2 every ratio so far is at least
    K/(2j), and |t_K| >= K^K / (2^K K!) >= 1/2), so the omitted tail is
    below |t_K|.  In the box K <= ~700, so the sum is good to
    ~2e-16 min(1, mu) absolute: full double precision for
    |S| ~ (mu/x)^(1/2) and for Im S = O(mu).

    sum k t_k is taken as K S_K - sum_{j<K} S_j over the partial sums S_j,
    which costs one addition per term instead of a multiplication.
    """
    big_m, a = _dyadic(mu)
    big_x, b = _dyadic(x)
    e_x = math.ceil(x / math.log(2.0))
    p = 64 + e_x + max(0, 1 - math.frexp(mu)[1])  # mu >= 2^(frexp exponent - 1)
    shift = 2 * b + 2 - a
    x2 = big_x * big_x
    if shift < 0:
        x2, shift = x2 << -shift, 0
    m2, im_num = big_m * big_m << shift, big_m * x2
    tr, ti = 1 << p, 0
    sr, si, ur, ui = tr, 0, 0, 0
    neg_stop, stop = -(1 << e_x), 1 << e_x
    # r_{k+1} <= 1/2 from k_drop on: (k+1)^2 >= (sqrt(mu^4 + x^4) - mu^2) / 2
    k_drop = max(0, math.ceil(math.sqrt(0.5 * (math.hypot(mu * mu, x * x) - mu * mu))) - 1)
    # (v >> shift) // den == v // (den << shift); re_num = -k X^2 2^a and the
    # divisor (k^3 2^(2a) + k M^2) 2^shift advance by exact differences
    re_num, re_step, c = 0, x2 << a, 1 << 2 * a + shift
    den, d1, d2, d3 = 0, c + m2, 6 * c, 6 * c
    k = 0
    while not (neg_stop <= tr <= stop and neg_stop <= ti <= stop):
        if k == k_drop:
            tr, ti, sr, si, ur, ui = tr >> e_x, ti >> e_x, sr >> e_x, si >> e_x, ur >> e_x, ui >> e_x
            p, stop, neg_stop = p - e_x, 1, -1
        k += 1
        re_num -= re_step
        den += d1
        d1 += d2
        d2 += d3
        ur += sr
        ui += si
        tr, ti = (tr * re_num - ti * im_num) // den, (tr * im_num + ti * re_num) // den
        sr += tr
        si += ti
    # sum (2k + i mu) t_k = 2 sum k t_k + i mu S, in units of 2^-(p + a)
    wr, wi = k * sr - ur, k * si - ui
    dr, di = (wr << a + 1) - big_m * si, (wi << a + 1) + big_m * sr
    unit, unit_der = 1 << p, 1 << p + a
    return complex(sr / unit, si / unit), complex(dr / unit_der, di / unit_der)


def _j_imag_series(mu: float, x: float) -> tuple[complex, complex]:
    """(J_{i mu}(x), J'_{i mu}(x)) below the asymptotic edge, by DLMF 10.2.2.

    J_{i mu}(x) = c0 sum_k t_k with t_k = (-x^2/4)^k / (k! (1 + i mu)_k) and
    c0 = (x/2)^{i mu} / Gamma(1 + i mu); x J' = c0 sum_k (2k + i mu) t_k.
    The alternating sum loses ~e^x to cancellation, which the integer
    fixed point of ``_series_imag_exact`` absorbs at every x.
    """
    s_val, s_der = _series_imag_exact(mu, x)
    # prefactor, formed in double; the power is unimodular
    c0 = cmath.exp(1j * mu * math.log(0.5 * x)) / complex_gamma(complex(1.0, mu))
    return c0 * s_val, c0 * s_der / x


# =====================================================================
# imaginary order: Hankel's large-argument expansion
# =====================================================================


def _asym_edge(mu: float) -> float:
    return max(30.0, 10.0 * mu)


def _hankel_asym_imag(mu: float, x: float) -> tuple[complex, complex]:
    """(H1, H1') of order i*mu from the large-argument expansion.

    H^{(1)} = sqrt(2/(pi x)) e^{i omega} S,  omega = x - i mu pi/2 - pi/4,
    S = sum_k i^k a_k / x^k with the standard a_k recurrence (4 nu^2 =
    -4 mu^2, so the a_k are real and alternate).  Truncated at the
    smallest term; at x >= max(30, 10 mu) that term is below ~2e-12
    everywhere in the supported box.
    """
    nu2x4, x8 = -4.0 * mu * mu, 8.0 * x  # k * x8 == 8.0 * k * x: both products are exact
    # Near the region edge the term magnitudes first hump upward (peak <~ 3
    # at x = 10 mu) before the asymptotic descent, so truncate at the first
    # global minimum term; the omitted tail is of that size.  The term
    # i^k a_k / x^k is u for even k and i u for odd k: i^k is exact, so each
    # term enters one component of S, and (k/x) times it one of S', unrounded.
    sr, si, dr, di = 1.0, 0.0, 0.0, 0.0
    t_min, kept = 1.0, (sr, si, dr, di)
    u = 1.0
    for k in range(1, 2 * int(x) + 120):
        u *= (nu2x4 - (2 * k - 1) ** 2) / (k * x8)
        if k & 1:
            si, di = si + u, di - u * (k / x)
        else:
            u = -u
            sr, dr = sr + u, dr - u * (k / x)
        if (t := abs(u)) < t_min:  # the first minimum, as S is summed up to it
            t_min, kept = t, (sr, si, dr, di)
        if t < 1e-17 or t > 1e4:
            break
    if t_min > 1e-11:
        raise RangeError(f"asymptotic expansion bottoms out at {t_min:.2e} for mu={mu}, x={x}")
    s, sd = complex(kept[0], kept[1]), complex(kept[2], kept[3])
    # e^{i omega} = e^{i(x - pi/4)} e^{mu pi / 2}
    amp = math.sqrt(2.0 / (math.pi * x)) * cmath.exp(1j * (x - 0.25 * math.pi))
    amp *= math.exp(0.5 * mu * math.pi)
    return amp * s, amp * (1j * s + sd - s / (2.0 * x))


def _h1_imag(mu: float, x: float) -> tuple[complex, complex]:
    """(H1, H1') of order i*mu, routed by region.

    Below the asymptotic edge H1 = (e^{mu pi} J - conj J) / sinh(mu pi),
    with conj(J_{i mu}) = J_{-i mu} for real argument, written as
    ((e^{mu pi} - 1) J + 2i Im J) / sinh(mu pi) so that small mu loses
    nothing: e^{mu pi} - 1 comes from expm1, and Im J = O(mu) is carried
    to full relative precision by the series.
    """
    if x >= _asym_edge(mu):
        return _hankel_asym_imag(mu, x)
    j, jd = _j_imag_series(mu, x)
    em = math.expm1(mu * math.pi)
    sh = math.sinh(mu * math.pi)
    return (em * j + 2j * j.imag) / sh, (em * jd + 2j * jd.imag) / sh


def _reflect(order: Order, h: complex) -> complex:
    """H2 from H1 at real argument: conj H1, times e^{-mu pi} for order i*mu."""
    if order.kind == "real":
        return h.conjugate()
    return math.exp(-order.mu * math.pi) * h.conjugate()


# =====================================================================
# public evaluators
# =====================================================================


def _with_derivative(ufunc, mu: float, x: float) -> tuple:
    """(f_mu(x), f'_mu(x)) from one ufunc call, f' = (f_{mu-1} - f_{mu+1}) / 2 (DLMF 10.6.1).

    This is scipy's jvp/yvp/h1vp arithmetic op for op, so signed zeros, infinities and
    warnings come out the same: orders mu - 1 and (mu - 1) + 2, and a complex -1.0 * f.
    """
    v = ufunc((mu - 1.0, mu, mu - 1.0 + 2.0), x)
    return v[1], (v[0] + -1.0 * v[2]) / 2.0


def bessel_j_pair(order: Order, x: float) -> tuple[complex, complex]:
    """(J_nu(x), dJ_nu/dx) for the given order."""
    x = _check_x(x)
    if order.kind == "real":
        v, d = map(complex, _with_derivative(_sp.jv, order.mu, x))
    elif x < _asym_edge(order.mu):
        v, d = _j_imag_series(order.mu, x)
    else:  # J = (H1 + H2) / 2
        h, hd = _hankel_asym_imag(order.mu, x)
        v, d = 0.5 * (h + _reflect(order, h)), 0.5 * (hd + _reflect(order, hd))
    _check_finite("bessel_j", v, d)
    return v, d


def bessel_j(order: Order, x: float) -> complex:
    """Bessel function J_nu(x); see the module docstring for the regions."""
    return bessel_j_pair(order, x)[0]


def hankel_pair(kind: int, order: Order, x: float) -> tuple[complex, complex]:
    """(H_nu(x), dH_nu/dx) for Hankel kind 1 (outgoing) or 2 (ingoing).

    Only H1 is evaluated; kind 2 is its reflection at real argument,
    H2_mu = conj H1_mu and H2_{i mu} = e^{-mu pi} conj H1_{i mu}.
    """
    if kind not in (1, 2):
        raise RangeError(f"hankel kind must be 1 or 2, got {kind!r}")
    x = _check_x(x)
    if order.kind == "real":
        v, d = map(complex, _with_derivative(_sp.hankel1, order.mu, x))
    else:
        v, d = _h1_imag(order.mu, x)
    _check_finite("hankel", v, d)
    if kind == 2:
        return _reflect(order, v), _reflect(order, d)
    return v, d


def hankel(kind: int, order: Order, x: float) -> complex:
    """Hankel function H^{(kind)}_nu(x)."""
    return hankel_pair(kind, order, x)[0]


def hankel1_ladder(mu: float, x: float, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(H1, H1') of the complex orders k + i mu, k = k_lo..k_hi, at x.

    The pair of order v = i mu starts H_{v+1} + H_{v-1} = (2v/x) H_v (first
    steps H_{v-+1} = (v/x) H_v -+ H'_v) up and down from k = 0; H1 grows with
    |k| both ways, so both runs are stable.  H'_v = H_{v-1} - (v/x) H_v.
    Past the double range values are inf or nan, for the caller to check.
    """
    h, hd = hankel_pair(1, Order.imaginary(mu), x)
    vals = {0: h, 1: (1j * mu / x) * h - hd, -1: (1j * mu / x) * h + hd}
    for k in range(1, k_hi):
        vals[k + 1] = (2.0 * (k + 1j * mu) / x) * vals[k] - vals[k - 1]
    for k in range(-1, k_lo - 1, -1):
        vals[k - 1] = (2.0 * (k + 1j * mu) / x) * vals[k] - vals[k + 1]
    ks = range(k_lo, k_hi + 1)
    out = np.array([vals[k] for k in ks])
    return out, np.array([vals[k - 1] for k in ks]) - ((np.array(ks) + 1j * mu) / x) * out


def wronskian_check(order: Order, x: float) -> float:
    """Deviation of the Hankel pair from its exact Wronskian.

    Returns |W (i pi x / 4) + 1| with W = H1' H2 - H1 H2'.  The exact
    cross-product is W = +4i/(pi x) in this (f'g - f g') convention, so a
    correct pair drives the deviation to rounding level.  Used as the
    built-in accuracy monitor: anything above ~1e-8 means digits were
    lost somewhere in the evaluation chain.

    The cross-product is evaluated in cancellation-free equivalent forms.
    The naive product subtraction loses |H|^2 x / 1 digits, which for real
    order at x << mu exceeds double precision even when every factor is
    correctly rounded; the identities below carry the same information:

    * real order: W = 2i (J Y' - J' Y), whose two terms share a sign at
      small x;
    * imaginary order: H2 = e^{-mu pi} conj H1, so
      W = 2i e^{-mu pi} Im(H1' conj H1) in every region.
    """
    x = _check_x(x)
    if order.kind == "real":
        bj, bjd = map(float, _with_derivative(_sp.jv, order.mu, x))
        by, byd = map(float, _with_derivative(_sp.yv, order.mu, x))
        _check_finite("wronskian_check", complex(bj, by), complex(bjd, byd))
        w = 2j * (bj * byd - bjd * by)
    else:
        h, hd = _h1_imag(order.mu, x)
        w = 2j * math.exp(-order.mu * math.pi) * (hd * h.conjugate()).imag
    return abs(w * (0.25j * math.pi * x) + 1.0)
