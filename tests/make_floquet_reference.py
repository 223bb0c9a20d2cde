"""Regenerate EXPONENT_REFERENCE and FLOQUET_REFERENCE in test_quartic.py.

Run with `python tests/make_floquet_reference.py` and paste the two printed
tables.  Neither calls fluxsink.

EXPONENT_REFERENCE holds the characteristic exponent nu of
w'' + (a - 2q cos 2z) w = 0, a = nu0^2, from the monodromy M over one
period: cos(pi nu) = tr M / 2 (DLMF 28.2.16).  M is the product of the
2x2 monodromies of SUBINTERVALS pieces of [0, pi] (scipy's DOP853 at rtol
1e-13), rescaled after each product with the scale kept as a logarithm, so
that e^{pi mu} ~ 1e73 at q = 1e4 neither overflows nor cancels.  nu is
printed reduced: k + i mu with k in {0, 1} (k even where cos(pi nu) > 0) in
an instability band, nu in [0, 1] in a stable one.

FLOQUET_REFERENCE holds S_m at p = 1, lam = q, sink and elastic(THETA),
from the Floquet construction of quartic._core_values in mpmath at 40
digits.  nu starts from the monodromy and is refined as a root of Hill's
determinant (its continuant, with n up to 40 + 3 sqrt(q) + nu0, at 80
digits) in tau = (nu - k)^2, where the determinant is even, so the roots
k +- t of a near-integer nu do not pair up; of the representatives
+-nu + 2j, the one whose c peaks at j = 0 and solves the central row is
kept.  c_2n comes by backward recursion from both ends, and the
Bessel-product series uses mpmath's complex-order Hankel functions.
About 20 s in all, most of it the q = 1e4 case.
"""

import math

import mpmath as mp
from scipy.integrate import solve_ivp

mp.mp.dps = 40
DPS_ROOT = 80  # the continuant's terms cancel by ~1e30 in the q = 1e4 gap
SUBINTERVALS = 400
THETA = mp.mpf("1.1")  # elastic phase of the reference

# (q, nu0): instability bands at nu0 = 0.3, and past the capture edge
# sqrt(2 q) a mild gap and a stable band
EXPONENT_CASES = [(q, nu0) for q in (300.0, 1000.0, 3000.0, 1e4) for nu0 in (0.3, 0.9 * math.sqrt(2.0 * q), 1.2 * math.sqrt(2.0 * q))]

# (beta, q, m): stable and instability bands; beta = 0 integer orders with
# mu from 0.18 down to 4.7e-10; a band centre, where H - a is defective;
# two stable orders within 1e-7 of an integer, whose other representative
# 2k - nu is as close; then deep instability bands at q = 100 to 1e4, a mild
# one at q = 100 and |m| = 12, where the inward solve at tol 1e-10 is off by
# 1.3e-8, and a stable band past the capture edge at q = 100
CASES = (
    (0.3, 0.3, -2),
    (0.3, 2.0, 0),
    (0.3, 8.0, 2),
    (0.3, 30.0, -9),
    (0.0, 1e-4, 0),
    (0.0, 1e-4, 1),
    (0.0, 1e-4, 2),
    (0.0, 2.0, -2),
    (0.0, 0.3, 7),
    (0.19576114044233560, 30.0, 4),
    (0.0, 0.005064456830183533, -11),
    (7.123056334383823e-08, 0.00023157896270033576, 10),
    (0.3, 100.0, 2),
    (0.0, 100.0, 12),
    (0.0, 100.0, 16),
    (0.3, 1000.0, -1),
    (0.3, 1e4, 0),
)


def monodromy(nu0: float, q: float) -> tuple:
    """(log |tr M / 2|, sign of tr M)."""
    a = nu0 * nu0

    def rhs(z, y):
        return [y[1], (2.0 * q * math.cos(2.0 * z) - a) * y[0], y[3], (2.0 * q * math.cos(2.0 * z) - a) * y[2]]

    m, log_scale = [[1.0, 0.0], [0.0, 1.0]], 0.0
    for i in range(SUBINTERVALS):
        z0, z1 = math.pi * i / SUBINTERVALS, math.pi * (i + 1) / SUBINTERVALS
        sol = solve_ivp(rhs, (z0, z1), [1.0, 0.0, 0.0, 1.0], method="DOP853", rtol=1e-13, atol=1e-16)
        w, dw, v, dv = sol.y[:, -1]
        piece = [[w, v], [dw, dv]]
        m = [[sum(piece[r][j] * m[j][c] for j in range(2)) for c in range(2)] for r in range(2)]
        top = max(abs(e) for row in m for e in row)
        m = [[e / top for e in row] for row in m]
        log_scale += math.log(top)
    half = 0.5 * (m[0][0] + m[1][1])
    return math.log(abs(half)) + log_scale, math.copysign(1.0, half)


def reduced(nu0: float, q: float) -> complex:
    """nu from the monodromy: k + i mu with k in {0, 1}, or nu in [0, 1]."""
    log_half, sign = monodromy(nu0, q)
    if log_half <= 0.0:
        return complex(math.acos(sign * math.exp(log_half)) / math.pi)
    # acosh(y) = log y + log(1 + sqrt(1 - y^-2)) for y = |tr M / 2| > 1
    mu = (log_half + math.log1p(math.sqrt(-math.expm1(-2.0 * log_half)))) / math.pi
    return complex(0.0 if sign > 0 else 1.0, mu)


def _hill(k, d, nu0, q, n):
    """Hill's determinant at nu = k + d, rows -n..n, row j over 4 j^2 (j != 0)."""
    p, p_prev, off = mp.mpf(1), mp.mpf(0), mp.mpf(0)
    for j in range(-n, n + 1):
        scale = 4 * j * j or 1
        p, p_prev = (d + k + 2 * j - nu0) * (d + k + 2 * j + nu0) * p / scale - off * q / scale * p_prev, p
        off = q / scale
    return p


def _coefficients(nu, nu0, q, n):
    """(c_2j for j = -n..n with c_0 = 1, |residual of row 0|)."""
    c = {0: mp.mpf(1)}
    for side in (1, -1):
        ratios, r = [], mp.mpf(0)
        for j in range(n, 0, -1):
            r = -q / ((nu + 2 * side * j) ** 2 - nu0**2 + q * r)
            ratios.append(r)
        for j, r in zip(range(1, n + 1), reversed(ratios)):
            c[side * j] = c[side * (j - 1)] * r
    return c, abs((nu**2 - nu0**2) + q * (c[1] + c[-1]))


def exponent(nu0, q):
    """(nu, c): the representative whose c peaks at j = 0, refined at DPS_ROOT digits."""
    start = reduced(float(nu0), float(q))
    n = 40 + math.ceil(3.0 * math.sqrt(q) + nu0)
    found = []
    with mp.workdps(DPS_ROOT):
        nu0, q = mp.mpf(nu0), mp.mpf(q)
        if start.imag:
            k = int(start.real) + 2 * round((float(nu0) - start.real) / 2)
            k, tau = abs(k), -mp.mpf(start.imag) ** 2
        else:  # the representative +-nu + 2j nearest nu0
            t = start.real
            nu = min((abs(s * t + 2 * round((float(nu0) - s * t) / 2)) for s in (1, -1)), key=lambda v: abs(v - float(nu0)))
            k, tau = round(nu), mp.mpf(nu - round(nu)) ** 2

        def root(tau):
            return mp.sqrt(tau) if tau >= 0 else mp.mpc(0, mp.sqrt(-tau))

        def g(tau):
            return mp.re(_hill(k, root(tau), nu0, q, n))

        # secant in tau: g is smooth there, and its root is simple
        prev, tau = tau, tau * (1 + mp.mpf(10) ** -6) + mp.mpf(10) ** -30
        g_prev = g(prev)
        for _ in range(100):
            g_tau = g(tau)
            if g_tau == g_prev:
                break
            prev, tau, g_prev = tau, tau - g_tau * (tau - prev) / (g_tau - g_prev), g_tau
            if abs(tau - prev) <= mp.mpf(10) ** -60 * abs(tau) + mp.mpf(10) ** -75:
                break
        for d in (root(tau), -root(tau)) if tau > 0 else (root(tau),):
            kk = k
            for _ in range(4):
                c, res = _coefficients(kk + d, nu0, q, n)
                j = max(c, key=lambda i: abs(c[i]))
                if abs(c[j]) <= 1:  # c peaks at j = 0
                    break
                kk += 2 * j
                if mp.re(kk + d) < 0:
                    kk, d = -kk, (d if mp.im(d) else -d)
            found.append((res, kk + d, c))
    res, nu, c = min(found, key=lambda item: item[0])
    assert res <= mp.mpf(10) ** -50 * (1 + abs(nu) ** 2 + nu0**2 + 2 * q), (nu0, q, nu, res)
    return nu, c


def reference(beta: float, q: float, m: int) -> tuple:
    """(S_sink, S_elastic(THETA)) of mode m at p = 1, lam = q."""
    nu0 = abs(mp.mpf(m) - mp.mpf(beta))
    nu, c = exponent(nu0, mp.mpf(q))
    x = mp.sqrt(q)
    f = g = mp.mpc(0)
    floor = mp.mpf(10) ** -50 * mp.exp(-mp.pi * mp.im(nu) / 2)  # as in quartic._core_values, far lower
    for n, cn in c.items():
        if abs(cn) < floor:
            continue
        hv = mp.hankel1(nu + n, x)
        hd = mp.hankel1(nu + n - 1, x) - (nu + n) / x * hv
        jn, jd = mp.besselj(n, x), mp.besselj(n, x, derivative=1)
        f += (-1) ** (n % 2) * cn * jn * hv
        g += (-1) ** (n % 2) * cn * (jn * hd - jd * hv)
    phase = mp.exp(0.5j * mp.pi * (nu - nu0))
    f, g = phase * f, x * phase * g
    # T = M^{-1} diag(1, -1) M with M = [[f, conj f], [g, conj g]], W = -2/pi
    w2 = 2j * (-2 / mp.pi)
    t00, t01 = 2 * mp.re(f * mp.conj(g)) / w2, 2 * mp.conj(f * g) / w2
    t10, t11 = -2 * f * g / w2, -t00
    ph = mp.exp(1j * mp.pi * (m - nu0))
    c3, c4 = mp.exp(-1j * THETA), mp.exp(1j * THETA)
    return ph * t00 / t10, ph * (t00 * c3 + t01 * c4) / (t10 * c3 + t11 * c4)


if __name__ == "__main__":
    print("EXPONENT_REFERENCE = (  # (q, nu0, nu reduced), from the rescaled monodromy")
    for q, nu0 in EXPONENT_CASES:
        print(f"    ({q!r}, {nu0!r}, {reduced(nu0, q)!r}),")
    print(")")
    print("FLOQUET_REFERENCE = (  # (beta, q, m, S sink, S elastic(theta = 1.1)), 40-digit")
    for beta, q, m in CASES:
        sink, elastic = reference(beta, q, m)
        print(f"    ({beta!r}, {q!r}, {m}, {complex(sink)!r}, {complex(elastic)!r}),")
    print(")")
