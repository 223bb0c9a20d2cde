"""Regenerate FLOQUET_REFERENCE in test_quartic.py: quartic S_m at 40 digits.

Run with `PYTHONPATH=src python tests/make_floquet_reference.py` and paste
the printed table.  It evaluates the same Floquet construction as
quartic._core_values in mpmath: the characteristic exponent nu is a root
of the normalized Hill determinant, found by mpmath's secant search from
a start 1e-12 (1 + i) off the double-precision value, so the root is
found again rather than copied; c_2n is the null vector of the Hill
matrix, whose c_0 must lie within 10 of its peak (in the other
representative 2k - nu of a near-integer nu, c_0 is below any working
precision); the
Bessel-product series uses mpmath's complex-order Hankel functions.
About 3 s per case.
"""

import mpmath as mp

from fluxsink import quartic

mp.mp.dps = 40
N = 30  # Hill truncation n = -N..N
THETA = mp.mpf("1.1")  # elastic phase of the reference

# (beta, q, m): stable and instability bands; beta = 0 integer orders with
# mu from 0.18 down to 4.7e-10; a band centre, where H - a is defective;
# two stable orders within 1e-7 of an integer, whose other representative
# 2k - nu is as close
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
)


def _hill(nu, a, q):
    h = mp.zeros(2 * N + 1, 2 * N + 1)
    for i in range(2 * N + 1):
        h[i, i] = (nu + 2 * (i - N)) ** 2 - a
        if i:
            h[i, i - 1] = h[i - 1, i] = q
    return h


def reference(beta: float, q: float, m: int) -> tuple:
    """(S_sink, S_elastic(THETA)) of mode m at p = 1, lam = q."""
    nu0 = abs(mp.mpf(m) - mp.mpf(beta))
    q = mp.mpf(q)
    a = nu0**2
    scale = mp.fprod((4 * abs(i - N) + 1 + nu0) ** 2 for i in range(2 * N + 1))
    start = complex(quartic._floquet(float(nu0), float(q))[0]) + 1e-12 * (1 + 1j)
    nu = mp.findroot(lambda v: mp.det(_hill(v, a, q)) / scale, mp.mpc(start), tol=mp.mpf(10) ** -70)
    if mp.im(nu) < 0:
        nu = mp.conj(nu)
    h = _hill(nu, a, q)
    c = mp.lu_solve(h, mp.matrix([int(i == N) for i in range(2 * N + 1)]))
    c = mp.lu_solve(h, c / c[N])
    c = c / c[N]
    assert max(abs(v) for v in c) <= 10, (beta, q, m, nu)  # c_0 = 1 within 10 of the peak
    x = mp.sqrt(q)
    f = g = mp.mpc(0)
    for i in range(2 * N + 1):
        n = i - N
        hv = mp.hankel1(nu + n, x)
        hd = mp.hankel1(nu + n - 1, x) - (nu + n) / x * hv
        jn, jd = mp.besselj(n, x), mp.besselj(n, x, derivative=1)
        f += (-1) ** (n % 2) * c[i] * jn * hv
        g += (-1) ** (n % 2) * c[i] * (jn * hd - jd * hv)
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
    print("FLOQUET_REFERENCE = (  # (beta, q, m, S sink, S elastic(theta = 1.1)), 40-digit")
    for beta, q, m in CASES:
        sink, elastic = reference(beta, q, m)
        print(f"    ({beta!r}, {q!r}, {m}, {complex(sink)!r}, {complex(elastic)!r}),")
    print(")")
