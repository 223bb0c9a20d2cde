"""Host-speed calibration: fixed reference work timed beside the items.

The benchmark's host is a few vCPUs of a shared machine, and its speed
drifts by 2-3.7x over stretches of 10-60 s while the neighbours'
load comes and goes (the same fluxsink item took 19 ms in one stretch and
39 ms in the next).  Raw wall times of runs made minutes apart therefore
measure the neighbours more than the program.  The worker interleaves the
items with a sample of fixed reference work that never changes and does
not use fluxsink, and divides every measured time by the host's speed
factor at that moment: the sample's time over its time on the reference
host (REF_S).  Reported times are then milliseconds at the reference
speed, and a change to fluxsink moves them while a change of the
neighbours' load mostly does not.

Samples are taken between items, and inside long items between the
ODE solves (Sampler.patch); their own time is left out of the item's.

A slow stretch does not slow every kind of code alike: small-array numpy
and scipy's integrator lose up to 2.6x, object-heavy interpreted code
about 1.5x.  So the sample has three parts, and each workload weighs
them by where its own time goes (WEIGHTS, from the traced per-layer
table at the seed commit).  Imports follow none of them: `import fluxsink`
took 0.64-1.02 s whether those parts ran at their reference speed or
1.8x slower.  Set-up time is divided by import_factor instead, the time a
fresh interpreter takes to import a fixed set of standard modules.
"""

from __future__ import annotations

import cmath
import math
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.integrate

PARTS = ("python", "numpy", "ode")

# Least time of each part on the reference host (the 2-vCPU Xeon of
# baseline.json) over 60 samples in a fast stretch, in seconds.
REF_S = {"python": 0.0033, "numpy": 0.0024, "ode": 0.0081}

# Share of each workload's time spent in code like each part:
# square_cli is the interpreted phi x mode loop of channels.amplitude and
# the CLI's output writing, with small numpy arrays around them;
# quartic_cli is scipy's DOP853 with a Python right-hand side; verify is
# the same integrator in the oracle (~55%) plus mpmath's interpreted
# Bessel series (~45%).
WEIGHTS = {
    "square_cli": {"python": 0.6, "numpy": 0.2, "ode": 0.2},
    "quartic_cli": {"python": 0.0, "numpy": 0.0, "ode": 1.0},
    "verify": {"python": 0.45, "numpy": 0.0, "ode": 0.55},
}

# Standard modules that neither fluxsink nor its dependencies import.
# Importing them is work of the kind `import fluxsink` does (unmarshalling,
# module bodies, loading extension modules) without touching fluxsink,
# numpy or scipy, so a change to any of those leaves it alone.
IMPORT_PROBE = (
    "email.mime.multipart, http.server, xml.dom.minidom, xml.etree.ElementTree, "
    "pydoc, unittest, asyncio, decimal, difflib, mailbox, smtplib, imaplib, ftplib, "
    "logging.handlers, sqlite3, ssl, zipfile, tarfile, ctypes, multiprocessing.pool, "
    "concurrent.futures, fractions"
)
# least time of that import on the reference host, in seconds
REF_IMPORT_S = 0.12


class _Mode:
    __slots__ = ("m", "s")

    def __init__(self, m: int, s: complex) -> None:
        self.m = m
        self.s = s


def _python() -> float:
    """Object-heavy interpreted work: objects, sorting, complex sums, text."""
    modes = [_Mode(m, cmath.exp(0.37j * m) * 0.9) for m in range(-12, 13)]
    rows = []
    for k in range(240):
        phi = 0.01 + 0.0125 * k
        acc = 0j
        for md in sorted(modes, key=lambda x: -x.m):
            acc += (md.s - math.cos(math.pi * 0.3)) * cmath.exp(1j * md.m * phi)
        rows.append(f"{phi:.17g},{acc.real:.17g},{acc.imag:.17g},{abs(acc) ** 2:.17g}")
    return float(len("\n".join(rows)))


def _numpy() -> float:
    x = np.linspace(0.1, 3.0, 96)
    acc = 0.0
    for k in range(240):
        y = np.exp(-x * (k % 7)) * np.cos(x * k) + np.sqrt(x)
        acc += float(np.dot(y, x)) + float(np.cumsum(y)[-1])
    return acc


def _rhs(x, y):
    return [y[1], (1.5 - 1.4 * math.cosh(2.0 * x)) * y[0]]


def _ode() -> float:
    """A modified Mathieu equation, solved the way fluxsink's quartic core is."""
    y0 = np.array([1.0 + 0.0j, 0.5j])
    sol = scipy.integrate.solve_ivp(_rhs, (-0.5, 0.5), y0, method="DOP853", rtol=1e-10, atol=1e-13, max_step=0.01)
    return abs(sol.y[0, -1])


_KERNELS = {"python": _python, "numpy": _numpy, "ode": _ode}


def sample(parts=PARTS, repeats: int = 3) -> dict:
    """Median time of each part over `repeats` back-to-back runs, in seconds."""
    out = {}
    for part in parts:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _KERNELS[part]()
            times.append(time.perf_counter() - t0)
        out[part] = statistics.median(times)
    return out


def factor(times: dict, weights: dict) -> float:
    """How many times slower than the reference host the sample ran."""
    return sum(w * times[p] / REF_S[p] for p, w in weights.items() if w)


class Sampler:
    """Speed samples of one process, at most one per `every_s` seconds."""

    def __init__(self, weights: dict, every_s: float) -> None:
        self.weights = weights
        self.parts = [p for p in PARTS if weights[p]]
        self.every_s = every_s
        self.factors = []
        self.paused_s = 0.0  # time spent sampling
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.factors.append(factor(sample(self.parts), self.weights))
        self._last = time.perf_counter()
        self.paused_s += self._last - t0

    def due(self) -> None:
        """Sample if `every_s` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def patch(self, package) -> None:
        """Sample when due after each scipy solve_ivp call fluxsink makes.

        Replaces solve_ivp in every fluxsink namespace that binds it, after
        the package is imported, so the timed import is untouched.
        """
        original = scipy.integrate.solve_ivp

        def solve_then_sample(*args, **kwargs):
            result = original(*args, **kwargs)
            self.due()
            return result

        for key, module in list(sys.modules.items()):
            if key == package.__name__ or key.startswith(package.__name__ + "."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, solve_then_sample)


def import_factor() -> float:
    """How many times slower than the reference host a fresh interpreter
    imports IMPORT_PROBE.  It runs isolated (-I: no PYTHONPATH, no user
    site) on the CPUs this process may use."""
    code = f"import time; t0 = time.perf_counter(); import {IMPORT_PROBE}; print(time.perf_counter() - t0)"
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], stdout=subprocess.PIPE, text=True, check=True, timeout=60
    ).stdout
    return float(out) / REF_IMPORT_S
