"""Print a sha256 digest of the radial oracle's output bits over seeded channels.

Run with `python tests/make_oracle_digest.py [--values] [DRAWS [SEED]]`
from the root of a checkout (it imports fluxsink from ./src).  For each
regime it draws DRAWS configs (default DRAWS_TEST), beta = U(0.05, 0.95),
gamma = U(0.1, 3), p = U(0.3, 2.5), and one mode of that regime with
mu >= 0.05, then calls oracle_smatrix at tol 1e-6 and 1e-8 under each
of the four boundary models: Sink, Elastic (theta or l drawn), total
absorption and a Custom ratio drawn inside the unitarity bound.  Then
it adds the full integrate_radial profile of the first supercritical
Sink channel, grid, values and derivative values, and the entries of
quartic.connection_matrices at q = QUARTIC_Q for QUARTIC_MS at tol
1e-6 and 1e-8: the inward solve of the quartic checks, which runs on
the same DOP853.  Each output goes into the digest as float.hex of its
components; a call that raises goes in as the exception's type name.
Warnings are errors while the channels run.

The first line printed is the digest, the next one the count of values
and raised types.  With --values it prints instead the lines the digest
hashes, one `label:hex` per output, so that two checkouts' outputs can be
diffed value by value.  test_oracle.py freezes the digest at DRAWS_TEST
draws and recomputes it, so a change to the integrator that moves a
single bit of any of these values fails there.
"""

from __future__ import annotations

import cmath
import collections
import hashlib
import math
import os
import sys
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from fluxsink import quartic  # noqa: E402
from fluxsink.channels import (  # noqa: E402
    Custom,
    ElasticSubcritical,
    ElasticSupercritical,
    Regime,
    ScatteringConfig,
    Sink,
    TotalAbsorption,
    classify_mode,
    nonregular_modes,
)
from fluxsink.oracle import default_rho_in, init_for_model, integrate_radial, oracle_smatrix  # noqa: E402

DRAWS_TEST = 3
SEED = 30
TOLS = (1e-6, 1e-8)
QUARTIC_Q = 2.0  # lam at p = 1
QUARTIC_MS = range(-3, 4)


def _hex(values) -> str:
    return ",".join(f"{v.real.hex()}/{v.imag.hex()}" for v in np.asarray(values, dtype=complex).ravel())


def _models(rng: np.random.Generator, mode) -> list:
    """[(name, model)] of the four boundary models for mode, parameters drawn."""
    m, mu = mode.m, mode.mu
    phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if mode.regime == Regime.SUPERCRITICAL:
        elastic = ElasticSupercritical(theta=rng.uniform(0.0, 2.0 * math.pi))
        ratio = rng.uniform(0.1, 0.9) * math.exp(-2.0 * math.pi * mu) * phase
    else:
        elastic = ElasticSubcritical(l=rng.uniform(-2.0, 2.0))
        ratio = rng.uniform(0.1, 0.9) * phase
    total = TotalAbsorption(n_minus=abs(m) + 1, n_plus=abs(m) + 1)
    return [("sink", Sink()), ("elastic", elastic), ("total", total), ("custom", Custom(ratios={m: ratio}))]


def _channels(rng: np.random.Generator, draws: int):
    """(cfg, mode) for draws configs of each regime, seeded."""
    for regime in (Regime.SUPERCRITICAL, Regime.SUBCRITICAL):
        found = 0
        while found < draws:
            cfg = ScatteringConfig(beta=rng.uniform(0.05, 0.95), gamma=rng.uniform(0.1, 3.0), p=rng.uniform(0.3, 2.5))
            modes = [classify_mode(cfg, m) for m in nonregular_modes(cfg)]
            modes = [mode for mode in modes if mode.regime == regime and mode.mu >= 0.05]
            if modes:
                found += 1
                yield cfg, modes[rng.integers(0, len(modes))]


def records(draws: int = DRAWS_TEST, seed: int = SEED) -> list[tuple[str, str]]:
    """(label, line) of each output in digest order: float.hex of its components, or '!' and the raised type."""

    def record(label: str, fn) -> tuple[str, str]:
        try:
            return label, _hex(fn())
        except Exception as exc:  # the type is the output
            return label, "!" + type(exc).__name__

    rng, out = np.random.default_rng(seed), []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg, mode in _channels(rng, draws):
            where = f"({cfg.beta.hex()},{cfg.gamma.hex()},{cfg.p.hex()},{mode.m})"
            for name, model in _models(rng, mode):
                for tol in TOLS:
                    rec = record(f"oracle_smatrix{where}{name}@{tol}", lambda: oracle_smatrix(cfg, mode, model, tol=tol))
                    out.append(rec)
        cfg, mode = next(_channels(np.random.default_rng(seed), 1))
        rho_in = default_rho_in(cfg)
        prof = integrate_radial(cfg, mode, init_for_model(cfg, mode, Sink(), rho_in), rho_out=100.0 / cfg.p)
        for label, values in (("grid", prof.rho_grid), ("values", prof.values), ("derivatives", prof.derivative_values)):
            out.append(record(f"profile:{label}", lambda: values))
        qcfg = quartic.QuarticConfig(beta=0.3, lam=QUARTIC_Q, p=1.0)
        for tol in TOLS:
            out.append(record(f"connection_matrices@{tol}",
                              lambda: [t.entries for t in quartic.connection_matrices(qcfg, QUARTIC_MS, tol)]))
    return out


def digest(draws: int = DRAWS_TEST, seed: int = SEED) -> tuple[str, collections.Counter]:
    """(sha256 hex digest, Counter of 'value' and raised type names)."""
    h = hashlib.sha256()
    tally: collections.Counter = collections.Counter()
    for label, line in records(draws, seed):
        tally[line[1:] if line.startswith("!") else "value"] += 1
        h.update(f"{label}:{line}\n".encode())
    return h.hexdigest(), tally


if __name__ == "__main__":
    args = sys.argv[1:]
    show = "--values" in args
    args = [a for a in args if a != "--values"]
    n = int(args[0]) if args else DRAWS_TEST
    s = int(args[1]) if len(args) > 1 else SEED
    if show:
        for label, line in records(n, s):
            print(f"{label}:{line}")
    else:
        hexdigest, tally = digest(n, s)
        print(hexdigest)
        print(f"{sum(tally.values())} records: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
