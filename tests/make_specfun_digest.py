"""Print a sha256 digest of the Bessel layer's output bits over seeded draws.

Run with `python tests/make_specfun_digest.py [DRAWS [SEED]]` from the
root of a checkout (it imports fluxsink from ./src).  For each order kind
it draws DRAWS points (default DRAWS_TEST), mu = 10^U(-6, log10 60) and
x = 10^U(-3, 4), so the ascending series, Hankel's expansion and the real
orders are all covered, then takes the fixed EDGES: the region edge
x = max(30, 10 mu) and its neighbour below, overflow of the real orders
at x <= 1e-4, and orders and arguments outside the box.  Every public
evaluator is called at each point: bessel_j, bessel_j_pair, hankel and
hankel_pair of kinds 1 and 2, wronskian_check, and for imaginary orders
hankel1_ladder over k_lo..k_hi within -3..3.  Each output goes into the
digest as float.hex of its components; a call that raises goes in as the
exception's type name.  Warnings are errors while the points run, so a
new warning changes the digest as well.

The first line printed is the digest, the next ones the call count and
the raised types per order kind.  test_specfun.py freezes the digest at
DRAWS_TEST draws and recomputes it, so a change to the evaluators that
moves a single bit of any value, or raises another type, fails there.
"""

from __future__ import annotations

import collections
import hashlib
import math
import os
import sys
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from fluxsink import specfun  # noqa: E402

DRAWS_TEST = 400
SEED = 27
# (mu, x) taken for both order kinds after the draws, with k = -3..3
EDGES = (
    (0.0, 1e-3), (1e-6, 1e-5), (0.5, 1.0), (1.0, 30.0), (1.0, math.nextafter(30.0, 0.0)),
    (3.0, 30.0), (60.0, 600.0), (60.0, math.nextafter(600.0, 0.0)), (60.0, 1e4),
    (45.3, 1e-4), (50.0, 1e-4), (50.0, 1e-5), (60.0, 1e-5), (61.0, 1.0), (2.2, 0.0), (2.2, 1.001e4),
)


def _hex(value) -> str:
    if isinstance(value, np.ndarray):
        return ",".join(_hex(v) for v in value.ravel())
    value = complex(value)
    return f"{value.real.hex()}/{value.imag.hex()}"


def _calls(kind: str, mu: float, x: float, k_lo: int, k_hi: int) -> list:
    """[(name, function, args)] of every evaluator at one point."""
    order = specfun.Order(kind, mu)
    calls = [
        ("bessel_j", specfun.bessel_j, (order, x)),
        ("bessel_j_pair", specfun.bessel_j_pair, (order, x)),
        ("hankel1", specfun.hankel, (1, order, x)),
        ("hankel2", specfun.hankel, (2, order, x)),
        ("hankel_pair1", specfun.hankel_pair, (1, order, x)),
        ("hankel_pair2", specfun.hankel_pair, (2, order, x)),
        ("wronskian_check", specfun.wronskian_check, (order, x)),
    ]
    if kind == "imaginary":
        calls.append(("hankel1_ladder", specfun.hankel1_ladder, (mu, x, k_lo, k_hi)))
    return calls


def _points(rng: np.random.Generator, draws: int):
    mus = 10.0 ** rng.uniform(-6.0, math.log10(specfun.ORDER_MAX), draws)
    xs = 10.0 ** rng.uniform(-3.0, 4.0, draws)
    ks = rng.integers(0, 4, (draws, 2))
    for mu, x, (lo, hi) in zip(mus, xs, ks):
        yield float(mu), float(x), -int(lo), int(hi)
    for mu, x in EDGES:
        yield mu, x, -3, 3


def digest(draws: int = DRAWS_TEST, seed: int = SEED) -> tuple[str, dict]:
    """(sha256 hex digest, {kind: Counter of 'value' and raised type names})."""
    h = hashlib.sha256()
    counts: dict = {}
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("real", "imaginary"):
            tally = counts.setdefault(kind, collections.Counter())

            def record(name: str, mu: float, x: float, line: str, key: str) -> None:
                tally[key] += 1
                h.update(f"{name}({mu.hex()},{x.hex()}):{line}\n".encode())

            for mu, x, k_lo, k_hi in _points(rng, draws):
                try:
                    calls = _calls(kind, mu, x, k_lo, k_hi)
                except Exception as exc:  # the order itself is out of range
                    record("Order", mu, x, "!" + type(exc).__name__, type(exc).__name__)
                    continue
                for name, fn, args in calls:
                    try:
                        out = fn(*args)
                    except Exception as exc:  # the type is the output
                        record(name, mu, x, "!" + type(exc).__name__, type(exc).__name__)
                    else:
                        parts = out if isinstance(out, tuple) else (out,)
                        record(name, mu, x, ";".join(_hex(v) for v in parts), "value")
    return h.hexdigest(), counts


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else DRAWS_TEST
    s = int(sys.argv[2]) if len(sys.argv) > 2 else SEED
    hexdigest, counts = digest(n, s)
    print(hexdigest)
    for kind, tally in counts.items():
        print(f"{kind}: {sum(tally.values())} calls, " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
