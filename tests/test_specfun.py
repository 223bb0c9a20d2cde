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
import subprocess
import sys

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

# The middle region 14 < x < max(30, 10 mu) of order i mu: just above 14,
# mid-region and just below the edge; frozen at 40 digits by
# tests/make_bessel_zone_reference.py
ZONE_REFERENCE = [
    (1e-06, 14.1, (
        0.1569528770327997312390552 + 2.248378621516509991445801e-7j,
        -0.1487843512975721865020087 + 2.387317203527451370805793e-7j,
        0.1569531235738024540491828 + 0.1431364534605775729048105j,
        -0.1487845850074846890976806 + 0.1519815721997310742352738j,
    )),
    (1e-06, 22.0, (
        -0.120651475705013244160512 + 1.883189982536404423685083e-7j,
        -0.1171777896439991332792306 - 1.938454656656529042311614e-7j,
        -0.1206516652239081038231442 + 0.1198877861198203997883382j,
        -0.1171779737064406878667523 - 0.1234060500721229358678244j,
    )),
    (1e-06, 29.9, (
        -0.09781115006618489728133099 - 1.700646472527494412064878e-7j,
        0.1099168107095062870869655 - 1.508197419529911673381463e-7j,
        -0.09781130370758014070260505 - 0.1082666870865546665525514j,
        0.1099169833664288024473834 - 0.09601498061047152032809748j,
    )),
    (0.05, 14.1, (
        0.1574494111249506821892888 + 0.01125232815094786079090916j,
        -0.1492303574485167260779326 + 0.01194994046265827024322359j,
        0.1697900948723490442431001 + 0.1548158840620979526114809j,
        -0.1609268422662457343195696 + 0.1644140281369268485889279j,
    )),
    (0.05, 22.0, (
        -0.1210168053826479474898664 + 0.009426159500874907448686457j,
        -0.1175465789700921154063138 - 0.009701728783518262164142776j,
        -0.1305019480241948193344682 + 0.1296904246713924957479236j,
        -0.1267597296976442457587366 - 0.133481862455687411150862j,
    )),
    (0.05, 29.9, (
        -0.09811744821732668167408097 - 0.008511649855423471244808553j,
        0.1102520421036570054257832 - 0.007549109169449784960403971j,
        -0.1058077684916327761438957 - 0.1171080846129972374836115j,
        0.1188934563483017778416124 - 0.1038649063795041294078203j,
    )),
    (0.9, 14.1, (
        0.3501513533124863167829638 + 0.2677483555421594774159644j,
        -0.3145715496501125275343319 + 0.3024097650316086571820051j,
        0.6611840740107022190551839 + 0.5691714625060232402020688j,
        -0.5939994142473143607047256 + 0.6428536522310821510473033j,
    )),
    (0.9, 22.0, (
        -0.2577344011910747329599369 + 0.2360132088030648112031429j,
        -0.2601416504876608107149884 - 0.2345426002618571093005784j,
        -0.4866749186605151332762201 + 0.5017098347930954993501018j,
        -0.4912204812637124825535732 - 0.4985836590506594889760095j,
    )),
    (0.9, 29.9, (
        -0.2160788848341586070919417 - 0.2067594339046392448722145j,
        0.2365104134667051064138905 - 0.1885988527704995920686315j,
        -0.4080176073311885973503281 - 0.4395230332755149516010817j,
        0.446598070355923901802518 - 0.4009178119543704288396668j,
    )),
    (2.2, 14.1, (
        2.821535551413809638920362 + 1.799157325260070994232819j,
        -1.92310695033405539157625 + 2.789258845303143274918511j,
        5.637454740859538981204141 + 3.601903076926005198288294j,
        -3.842385891224460499899097 + 5.584080878412459369997123j,
    )),
    (2.2, 22.0, (
        -1.689147547914293203591594 + 2.089845825792810085630435j,
        -2.066970581922845926654741 - 1.741604928347925573817179j,
        -3.374932790490336011138086 + 4.183859857356271305661721j,
        -4.129826788976434817682145 - 3.486683494618294520961399j,
    )),
    (2.2, 29.9, (
        -1.682292325512314119482155 - 1.580606221811684308775625j,
        1.616226685796893644413106 - 1.657426104365244734495377j,
        -3.361235991238482233443062 - 3.164364968988431225938029j,
        3.229236217698505801546418 - 3.318157951655340109908821j,
    )),
    (10.0, 14.1, (
        -567522.2790440923496091406 - 288783.9202811173745431006j,
        367378.2533742928796694876 - 688812.4579257508739829063j,
        -1135044.558088158921209197 - 577567.8405622479040175676j,
        734756.5067485690722761009 - 1377624.915851532947272062j,
    )),
    (10.0, 57.0, (
        122492.0031699962535815469 - 325709.913561574649065733j,
        329652.2183959822116359032 + 127138.2763637649622978643j,
        244984.0063399869433287085 - 651419.8271231640828773379j,
        659304.436791949449801699 + 254276.5527275356871541589j,
    )),
    (10.0, 99.9, (
        -89815.77261982911185416499 - 248459.1587657398486044258j,
        250148.8125822575330567927 - 89034.5068339713616296649j,
        -179631.545239654144094387 - 496918.3175314909312874079j,
        500297.6251645037038488754 - 178069.0136679467686917633j,
    )),
    (40.0, 14.1, (
        -8.931361169523146086166865e+25 + 7.828620483287511385453363e+25j,
        -2.351264026406856064402846e+26 - 2.689523024538758921049866e+26j,
        -1.786272233904629217233373e+26 + 1.565724096657502277090673e+26j,
        -4.702528052813712128805693e+26 - 5.379046049077517842099732e+26j,
    )),
    (40.0, 207.0, (
        1.428655568650688320563174e+25 + 5.131701943211885364825293e+25j,
        -5.229972087756534987934682e+25 + 1.443138466884300045497139e+25j,
        2.857311137301376641126348e+25 + 1.026340388642377072965059e+26j,
        -1.045994417551306997586936e+26 + 2.886276933768600090994278e+25j,
    )),
    (40.0, 399.9, (
        1.125456233499556440103194e+25 + 3.690360187503993422662861e+25j,
        -3.71017120359419302233926e+25 + 1.126504750124210055439974e+25j,
        2.250912466999112880206388e+25 + 7.380720375007986845325722e+25j,
        -7.420342407188386044678521e+25 + 2.253009500248420110879949e+25j,
    )),
    (50.0, 14.1, (
        -5.772419640306683801403827e+32 + 4.169520670695894415429574e+32j,
        -1.534692591804218542687838e+33 - 2.127854169739714827531374e+33j,
        -1.154483928061336760280765e+33 + 8.339041341391788830859149e+32j,
        -3.069385183608437085375676e+33 - 4.255708339479429655062748e+33j,
    )),
    (50.0, 257.0, (
        3.169589797794981494739874e+32 + 1.208139527472991023698986e+31j,
        -1.290209492437202321683078e+31 + 3.228796408859384641355827e+32j,
        6.339179595589962989479749e+32 + 2.416279054945982047397972e+31j,
        -2.580418984874404643366156e+31 + 6.457592817718769282711653e+32j,
    )),
    (50.0, 499.9, (
        2.22180529595139113293147e+32 + 5.538403503260025912083625e+31j,
        -5.588042620272296441397337e+31 + 2.232343687570356263159233e+32j,
        4.443610591902782265862939e+32 + 1.107680700652005182416725e+32j,
        -1.117608524054459288279467e+32 + 4.464687375140712526318466e+32j,
    )),
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


@pytest.mark.parametrize("mu,x,want", ZONE_REFERENCE, ids=[f"mu={mu}-x={x}" for mu, x, _ in ZONE_REFERENCE])
def test_middle_region_frozen(mu, x, want):
    # covers the O(mu) imaginary part of J that H1 is formed from at mu = 1e-6
    o = Order.imaginary(mu)
    got = (*bessel_j_pair(o, x), *hankel_pair(1, o, x))
    for g, w in zip(got, want):
        assert rel(g, w) < 1e-13


def test_runtime_never_imports_mpmath():
    # mpmath is a test-only dependency: the import, and one evaluation in
    # each imaginary-order region, in a fresh interpreter
    code = (
        "import sys, fluxsink, fluxsink.cli\n"
        "from fluxsink.specfun import Order, hankel_pair\n"
        "for x in (2.0, 20.0, 200.0):\n"
        "    hankel_pair(1, Order.imaginary(2.2), x)\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


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
    for mu, edge in [(0.9, 14.0), (0.9, 30.0), (2.2, 30.0), (4.0, 40.0), (20.0, 200.0), (50.0, 500.0)]:
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
