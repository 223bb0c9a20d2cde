"""Bessel and Hankel functions of real and purely imaginary order.

The radial problems in this package reduce to Bessel's equation

    y'' + y'/x + (1 - nu^2/x^2) y = 0

with nu^2 of either sign.  For nu^2 >= 0 (order nu = mu real) every mature
library applies and we delegate to scipy's AMOS bindings.  For nu^2 < 0
(order nu = i*mu, mu > 0) scipy has no support; J_{i mu} and the
outgoing Hankel function H1 are routed by region:

* ``x <= 14``: ascending power series accumulated in 80-bit extended
  precision.  The alternating sum loses ~e^x of headroom, so 14 keeps at
  least 12 good digits.
* ``14 < x < max(30, 10*mu)``: ``mpmath.besselj`` at 20 digits; mpmath
  raises its working precision itself to absorb the cancellation.
* ``x >= max(30, 10*mu)``: Hankel's large-argument expansion, summed in
  double precision.  At x = 10*mu the smallest term is below ~1e-12 for
  every mu <= 50.

Below the last edge H1 is formed from J_{i mu} and J_{-i mu} = conj J_{i mu}.
The ingoing H2 is never evaluated on its own: at real argument it is the
reflection of H1, H2_mu = conj H1_mu and H2_{i mu} = e^{-mu pi} conj H1_{i mu}
(DLMF 10.11).

Supported box: order magnitude mu <= 50 and 0 < x <= 1e4.  Outside it the
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

import mpmath as mp
import numpy as np
from scipy import special as _sp

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

ORDER_MAX = 50.0
X_MAX = 1.0e4

# Fast-series edge: e^14 ~ 1.2e6 of alternation headroom against the
# 1.1e-19 extended-precision ulp leaves ~12-13 digits.
_SERIES_FAST_EDGE = 14.0


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


def _series_imag_fast(mu: float, x: float) -> tuple[complex, complex]:
    """(J_{i mu}(x), J'_{i mu}(x)) by power series in extended precision."""
    half = 0.5 * x
    # common prefactor (x/2)^{i mu} / Gamma(1 + i mu); unimodular power
    c0 = cmath.exp(1j * mu * math.log(half)) / complex_gamma(complex(1.0, mu))
    q = np.clongdouble(half * half)
    iu = np.clongdouble(0) + np.clongdouble(1) * 1j
    term = np.clongdouble(1) + np.clongdouble(0) * 1j
    s_val = term
    s_der = iu * np.clongdouble(mu)  # derivative weight (2k + i mu) at k = 0
    k = 0
    while True:
        k += 1
        term = term * (-q) / (np.clongdouble(k) * (np.clongdouble(k) + iu * np.clongdouble(mu)))
        s_val = s_val + term
        s_der = s_der + term * (np.clongdouble(2 * k) + iu * np.clongdouble(mu))
        if abs(complex(term)) < 1e-25 * max(abs(complex(s_val)), 1e-300):
            break
        if k > 400:  # cannot happen for x <= 14
            raise RangeError("imaginary-order series failed to converge")
    return c0 * complex(s_val), c0 * complex(s_der) / x


def _j_imag_series(mu: float, x: float) -> tuple[complex, complex]:
    """(J_{i mu}(x), J'_{i mu}(x)) below the asymptotic edge."""
    if x <= _SERIES_FAST_EDGE:
        return _series_imag_fast(mu, x)
    # mpmath raises its working precision itself to absorb the ~e^x
    # cancellation; at 17 digits a few results differ in the last bit
    with mp.workdps(20):
        nu = mp.mpc(0, mu)
        return complex(mp.besselj(nu, x)), complex(mp.besselj(nu, x, derivative=1))


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
    nu2x4 = -4.0 * mu * mu
    # Near the region edge the term magnitudes first hump upward (peak <~ 3
    # at x = 10 mu) before the asymptotic descent, so truncate at the global
    # minimum term; the omitted tail is of that size.
    terms = [1.0]
    t = 1.0
    for k in range(1, 2 * int(x) + 120):
        t *= (nu2x4 - (2 * k - 1) ** 2) / (8.0 * k * x)
        terms.append(t)
        if abs(t) < 1e-17 or abs(t) > 1e4:
            break
    k_min = min(range(len(terms)), key=lambda i: abs(terms[i]))
    if abs(terms[k_min]) > 1e-11:
        raise RangeError(
            f"asymptotic expansion bottoms out at {abs(terms[k_min]):.2e} "
            f"for mu={mu}, x={x}"
        )
    # i^k is exact, so each term enters one component of S unrounded
    s, sd, ik = 1.0 + 0.0j, 0.0j, 1.0 + 0.0j
    for k in range(1, k_min + 1):
        ik *= 1j
        s += ik * terms[k]
        sd -= ik * terms[k] * (k / x)
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


def bessel_j_pair(order: Order, x: float) -> tuple[complex, complex]:
    """(J_nu(x), dJ_nu/dx) for the given order."""
    x = _check_x(x)
    if order.kind == "real":
        v = complex(_sp.jv(order.mu, x))
        d = complex(_sp.jvp(order.mu, x))
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
        v = complex(_sp.hankel1(order.mu, x))
        d = complex(_sp.h1vp(order.mu, x))
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
        bj = float(_sp.jv(order.mu, x))
        bjd = float(_sp.jvp(order.mu, x))
        by = float(_sp.yv(order.mu, x))
        byd = float(_sp.yvp(order.mu, x))
        _check_finite("wronskian_check", complex(bj, by), complex(bjd, byd))
        w = 2j * (bj * byd - bjd * by)
    else:
        h, hd = _h1_imag(order.mu, x)
        w = 2j * math.exp(-order.mu * math.pi) * (hd * h.conjugate()).imag
    return abs(w * (0.25j * math.pi * x) + 1.0)
