"""Checks for the Bessel/Hankel evaluation core.

Reference values were computed independently with arbitrary-precision
series summation at 40-digit working precision (the two J_{i mu} cases at
x = 300 and 480 at 195 and 276 digits, enough for the series' e^x
cancellation) and Gamma with mpmath at 40 digits, and frozen here;
property sweeps (Wronskian, ODE residual, conjugation) are seeded and
deterministic.
"""

import cmath
import math

import numpy as np
import pytest

from fluxsink.errors import PoleError, RangeError
from fluxsink.specfun import (
    ORDER_MAX,
    X_MAX,
    Order,
    bessel_j,
    bessel_j_pair,
    complex_gamma,
    hankel,
    hankel_pair,
    wronskian_check,
)


def rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# frozen at 40-digit precision
GAMMA_CASES = [
    (1 + 1j, 0.4980156681183560427136911 - 0.1549498283018106851249551j),
    (0.5 + 3j, 0.0214456705524306460595528 + 0.006865364837261677914238494j),
    (-3.7, 0.2516439959024226812858494),
    (12.3 - 4.2j, -20719338.67543967909129962 + 34335660.10490323305781624j),
    (40 + 30j, 5.377775040836147289244342e41 - 1.778268311904907633085571e41j),
    (1 + 0.4j, 0.8633791138852647059997604 - 0.1814571258151967679792896j),
    # the largest Gamma(1 +- i mu) a run forms, near the gamma bound
    (1 + 200j, 1.216561959676046939907386e-135 - 4.4123123310187777958579e-136j),
    (1 - 225j, -1.130371261008182840169737e-153 - 1.204865278291956462128462e-152j),
]

# (kind, mu, x, value); imaginary-order cases cover all three evaluation
# regions: extended-precision series (x <= 14), arbitrary-precision series
# (14 < x < max(30, 10 mu)), large-argument expansion (beyond)
BESSEL_J_CASES = [
    ("real", 0.4, 2.0, 0.4741922813342932096188558),
    ("real", 3.0, 7.5, -0.2580609131934603116626593),
    ("imaginary", 0.4, 2.0, 0.2895841314655779659660005 + 0.3339256753624831033457757j),
    ("imaginary", 0.7, 1e-4, 1.333564293616862858998593 - 0.4965287739930935681799839j),
    ("imaginary", 1.3, 20.0, 0.6634761277587999812831701 + 0.2101869591690190209987604j),
    ("imaginary", 6.0, 45.0, 723.1332124799221922625634 - 123.9659078820655222360477j),
    ("imaginary", 2.0, 50.0, 0.6007741429235064085346354 - 1.156926243907173104986187j),
    # high-cancellation end of the arbitrary-precision region
    ("imaginary", 40.0, 300.0, 1.436643302218283513058649e25 + 4.207420219311449482694361e25j),
    ("imaginary", 50.0, 480.0, 1.434706867368038858119014e32 - 1.843870694789150963901129e32j),
]

# (mu, x, dJ_{i mu}/dx), same reference computation
BESSEL_J_DERIVATIVE_CASES = [
    (0.4, 2.0, -0.6916068924683570536279341 + 0.0898131172445403979301616j),
    (40.0, 300.0, -4.247012523179962427322773e25 + 1.442469115812702764349505e25j),
    (50.0, 480.0, 1.852369831846493965937306e32 + 1.444370453633953077430148e32j),
]

HANKEL_CASES = [
    (1, "real", 5.0, 100.0, -0.07419573696451392083413505 - 0.02948019628166189569579093j),
    (1, "imaginary", 0.4, 2.0, 0.4508515960632690042751033 + 0.9335480289173967535912661j),
    (2, "imaginary", 0.4, 2.0, 0.1283166668678869276568976 - 0.2656966781924305468997147j),
    (1, "imaginary", 1.3, 20.0, 1.304978011943599832445993 + 0.427573740428549498548349j),
    (1, "imaginary", 2.0, 50.0, 1.199308645633649705930772 - 2.318181559117700052322196j),
    (2, "imaginary", 3.0, 9000.0, -9.189552551418793545845055e-6 - 7.499249939344290611074589e-5j),
]


@pytest.mark.parametrize("z,want", GAMMA_CASES)
def test_complex_gamma_frozen(z, want):
    assert rel(complex_gamma(z), want) < 1e-12


def test_complex_gamma_recurrence():
    rng = np.random.default_rng(11)
    for _ in range(200):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 0.05:
            z += 0.3j
        assert rel(complex_gamma(z + 1), z * complex_gamma(z)) < 5e-13


def test_complex_gamma_poles():
    for z in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            complex_gamma(z)
    # nearby non-integer points are fine
    assert complex_gamma(-1.0 + 1e-6j) != 0


@pytest.mark.parametrize("kind,mu,x,want", BESSEL_J_CASES)
def test_bessel_j_frozen(kind, mu, x, want):
    assert rel(bessel_j(Order(kind, mu), x), want) < 1e-11


def test_bessel_j_derivative_frozen():
    for mu, x, want in BESSEL_J_DERIVATIVE_CASES:
        got = bessel_j_pair(Order.imaginary(mu), x)[1]
        assert rel(got, want) < 1e-11


@pytest.mark.parametrize("kind,okind,mu,x,want", HANKEL_CASES)
def test_hankel_frozen(kind, okind, mu, x, want):
    assert rel(hankel(kind, Order(okind, mu), x), want) < 1e-11


def test_half_order_closed_forms():
    # the nu = 1/2 expansion terminates: H1 = -i sqrt(2/(pi x)) e^{ix}
    for x in (1.0, 7.3, 50.0, 100.0, 1000.0):
        c = math.sqrt(2.0 / (math.pi * x))
        assert rel(bessel_j(Order.real(0.5), x), c * math.sin(x)) < 1e-10
        assert rel(hankel(1, Order.real(0.5), x), -1j * c * cmath.exp(1j * x)) < 1e-10
        assert rel(hankel(2, Order.real(0.5), x), 1j * c * cmath.exp(-1j * x)) < 1e-10


def test_hankel_sum_identity():
    # H1 + H2 = 2 J, both order families, all evaluation regions
    cases = [
        ("real", 0.4, 2.0),
        ("real", 2.0, 10.0),
        ("imaginary", 0.4, 2.0),
        ("imaginary", 1.3, 20.0),
        ("imaginary", 2.0, 50.0),
        ("imaginary", 35.0, 290.0),
        ("imaginary", 35.0, 400.0),
    ]
    for kind, mu, x in cases:
        o = Order(kind, mu)
        s = hankel(1, o, x) + hankel(2, o, x)
        assert rel(s, 2.0 * bessel_j(o, x)) < 1e-9


def test_real_order_conjugation():
    for mu, x in [(0.3, 1.7), (2.0, 10.0), (7.7, 4.0)]:
        o = Order.real(mu)
        assert rel(hankel(2, o, x), hankel(1, o, x).conjugate()) < 1e-10


def test_imaginary_order_conjugation():
    # J_{-i mu}(x) = conj(J_{i mu}(x)) for real x; frozen reference for the
    # negative order at (mu, x) = (0.4, 2.0)
    j_neg = 0.2895841314655779659660005 - 0.3339256753624831033457757j
    got = bessel_j(Order.imaginary(0.4), 2.0).conjugate()
    assert rel(got, j_neg) < 1e-11


def test_region_continuity():
    # values must agree across internal evaluation-region boundaries; the
    # probe spacing must stay well under 1/x or the function's own phase
    # advance dominates the comparison
    for mu, edge in [(0.9, 14.0), (0.9, 30.0), (4.0, 40.0), (20.0, 200.0)]:
        o = Order.imaginary(mu)
        lo = bessel_j(o, edge * (1 - 1e-12))
        hi = bessel_j(o, edge * (1 + 1e-12))
        assert rel(lo, hi) < 1e-8


WRONSKIAN_POINTS = [
    ("real", 0.3, 5.0),
    ("imaginary", 0.7, 1.0),
    ("real", 2.0, 10.0),
]


@pytest.mark.parametrize("kind,mu,x", WRONSKIAN_POINTS)
def test_wronskian_named_points(kind, mu, x):
    assert wronskian_check(Order(kind, mu), x) <= 1e-8


def test_wronskian_box_sweep():
    # 100 random samples across the full supported box
    rng = np.random.default_rng(23)
    for _ in range(100):
        mu = rng.uniform(0.01, ORDER_MAX)
        x = 10 ** rng.uniform(-3, math.log10(X_MAX))
        kind = "real" if rng.random() < 0.5 else "imaginary"
        assert wronskian_check(Order(kind, mu), x) <= 1e-8


def _ode_residual(order, x, fn):
    # five-point stencil at the mandated step h = 1e-4 x
    h = 1e-4 * x
    ys = [fn(order, x + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (ys[0] - 8 * ys[1] + 8 * ys[3] - ys[4]) / (12 * h)
    d2 = (-ys[0] + 16 * ys[1] - 30 * ys[2] + 16 * ys[3] - ys[4]) / (12 * h * h)
    r = d2 + d1 / x + (1.0 - order.nu_squared / (x * x)) * ys[2]
    return abs(r), abs(ys[2])


def test_ode_residual_sample():
    rng = np.random.default_rng(31)
    for _ in range(40):
        mu = rng.uniform(0.0, 5.0)
        x = 10 ** rng.uniform(math.log10(0.5), 2.0)
        kind = "real" if rng.random() < 0.5 else "imaginary"
        if kind == "imaginary":
            mu = max(mu, 1e-2)
        o = Order(kind, mu)
        fn = [bessel_j, lambda oo, xx: hankel(1, oo, xx)][int(rng.random() < 0.5)]
        resid, ymag = _ode_residual(o, x, fn)
        assert resid <= 1e-6 * max(ymag, 1.0)


def test_range_errors():
    with pytest.raises(RangeError):
        bessel_j(Order.real(0.4), 0.0)
    with pytest.raises(RangeError):
        bessel_j(Order.real(0.4), -1.0)
    with pytest.raises(RangeError):
        bessel_j(Order.real(0.4), X_MAX * 1.001)
    with pytest.raises(RangeError):
        Order.real(ORDER_MAX + 1)
    with pytest.raises(RangeError):
        Order.imaginary(0.0)
    with pytest.raises(RangeError):
        Order("mixed", 1.0)
    with pytest.raises(RangeError):
        hankel(3, Order.real(1.0), 2.0)
    # representable order, but the value itself overflows double range
    with pytest.raises(RangeError):
        hankel(2, Order.real(50.0), 1e-5)


def test_order_properties():
    assert Order.real(2.5).nu == 2.5 + 0j
    assert Order.imaginary(2.5).nu == 2.5j
    assert Order.real(2.5).nu_squared == pytest.approx(6.25)
    assert Order.imaginary(2.5).nu_squared == pytest.approx(-6.25)
