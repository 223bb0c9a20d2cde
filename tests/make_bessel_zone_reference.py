"""Regenerate ZONE_REFERENCE in test_specfun.py: J, J', H1, H1' of order i mu.

Run with `python tests/make_bessel_zone_reference.py` and paste the
printed table; each row is (mu, x, (J, J', H1, H1')).  The points lie in
the middle evaluation region of the imaginary-order functions,
14 < x < max(30, 10 mu): just above 14, at the middle and just below the
upper edge, for each order of MUS.  Each value is mpmath's besselj and
hankel1 of the complex order i mu at 40 digits, with
H1' = (H1_{i mu - 1} - H1_{i mu + 1}) / 2 (DLMF 10.6.1); mpmath raises
its working precision itself to absorb the series' e^x cancellation.
Every value is computed again at 60 digits and must agree to 35, so a
lost digit cannot be frozen.  About 1 s in all.
"""

import mpmath as mp

MUS = ("1e-6", "0.05", "0.9", "2.2", "10", "40", "50")


def points(mu: float) -> tuple:
    edge = max(30.0, 10.0 * mu)
    return (14.1, 0.5 * (14.0 + edge), edge - 0.1)


def values(mu: str, x: float, dps: int) -> tuple:
    """(J, J', H1, H1') at order i mu, argument x, at dps digits."""
    with mp.workdps(dps):
        nu = mp.mpc(0, mp.mpf(float(mu)))
        x = mp.mpf(x)
        return (
            mp.besselj(nu, x),
            mp.besselj(nu, x, derivative=1),
            mp.hankel1(nu, x),
            (mp.hankel1(nu - 1, x) - mp.hankel1(nu + 1, x)) / 2,
        )


def _num(v) -> str:
    return mp.nstr(v, 25, min_fixed=-4, max_fixed=7)


def main() -> None:
    print("ZONE_REFERENCE = [")
    for mu in MUS:
        for x in points(float(mu)):
            vals = values(mu, x, 40)
            for v, check in zip(vals, values(mu, x, 60)):
                assert abs(v - check) <= mp.mpf(10) ** -35 * abs(check), (mu, x)
            print(f"    ({float(mu)!r}, {x!r}, (")
            for v in vals:
                print(f"        {_num(v.real)} {'+-'[v.imag < 0]} {_num(abs(v.imag))}j,")
            print("    )),")
    print("]")


if __name__ == "__main__":
    main()
