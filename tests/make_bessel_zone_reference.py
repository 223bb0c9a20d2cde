"""Regenerate the frozen series rows in test_specfun.py: J, J', H1, H1' of order i mu.

Run with `python tests/make_bessel_zone_reference.py` and paste the two
printed tables; each row is (mu, x, (J, J', H1, H1')).  Together they
cover the whole series region of the imaginary-order functions,
x < max(30, 10 mu), for each order of MUS: LOW_X_REFERENCE at x = 0.05,
1, 13 and 13.9, and ZONE_REFERENCE just above 14, at the middle of
14 < x < max(30, 10 mu) and just below its upper edge.  Each value is
mpmath's besselj and hankel1 of the complex order i mu at 40 digits, with
H1' = (H1_{i mu - 1} - H1_{i mu + 1}) / 2 (DLMF 10.6.1); mpmath raises
its working precision itself to absorb the series' e^x cancellation.
Every value is computed again at 60 digits and must agree to 35, so a
lost digit cannot be frozen.  About 2 s in all.
"""

import mpmath as mp

MUS = ("1e-6", "0.05", "0.9", "2.2", "10", "40", "50", "55", "60")


def low_points(mu: float) -> tuple:
    return (0.05, 1.0, 13.0, 13.9)


def zone_points(mu: float) -> tuple:
    edge = max(30.0, 10.0 * mu)
    return (14.1, 0.5 * (14.0 + edge), edge - 0.1)


TABLES = (("LOW_X_REFERENCE", low_points), ("ZONE_REFERENCE", zone_points))


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


def _row(mu: str, x: float, vals) -> str:
    lines = [f"    ({float(mu)!r}, {x!r}, ("]
    lines += [f"        {_num(v.real)} {'+-'[v.imag < 0]} {_num(abs(v.imag))}j," for v in vals]
    return "\n".join([*lines, "    )),"])


def table(name: str, points) -> str:
    """The table as printed: the 40-digit values of every row, to 25 digits."""
    rows = [_row(mu, x, values(mu, x, 40)) for mu in MUS for x in points(float(mu))]
    return "\n".join([f"{name} = [", *rows, "]"])


def main() -> None:
    for name, points in TABLES:
        for mu in MUS:
            for x in points(float(mu)):
                for v, check in zip(values(mu, x, 40), values(mu, x, 60)):
                    assert abs(v - check) <= mp.mpf(10) ** -35 * abs(check), (mu, x)
        print(table(name, points))


if __name__ == "__main__":
    main()
