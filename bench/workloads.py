"""Seeded input generators and item runners for the three workloads.

Each workload is an endless stream of items.  Item k of a stream is made
from its own generator, seeded with (seed, workload, k), so the same seed
gives the same inputs however many items a run gets through.  The class
of an item (model kind, output format, run or sweep, ...) is fixed by k,
and only the values inside the class come from the seed: every seed then
runs the same mix in the same order, which keeps the figures of short
runs comparable across seeds.

Only the generated inputs reach fluxsink: scenario files for the CLI
workloads, and configs, models and argument lists for `verify`.

Inputs stay inside the documented domain.  No mode lies within MARGIN of
a regime boundary (the package rejects |m - beta| within REGIME_EPS =
1e-9 of one), custom ratios give |S| <= 0.999, total-absorption windows
hold no Regular mode, and quartic windows cover every absorbed mode.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("square_cli", "quartic_cli", "verify")

# distance kept between |m - beta| and the regime edges gamma and
# sqrt(1 + gamma^2); far wider than the package's REGIME_EPS
MARGIN = 1e-3
# smallest order magnitude drawn for `verify`; the package's own oracle
# tests stop there too
MU_MIN = 0.05
PHI_SAMPLES = 721


@dataclass
class Item:
    """One unit of work: what to call, with which inputs, and what to expect."""

    workload: str
    index: int
    kind: str  # run | sweep | channel
    params: dict = field(default_factory=dict)
    path: str | None = None  # scenario file for the CLI kinds


def _rng(seed: int, workload: str, k: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), int(k)])


# ---------------------------------------------------------------------
# inverse-square classification, independent of fluxsink
# ---------------------------------------------------------------------


def square_modes(beta: float, gamma: float) -> list:
    """[(m, regime, mu)] for every non-Regular mode, ascending m."""
    upper = math.sqrt(1.0 + gamma * gamma)
    out = []
    for m in range(math.floor(beta - upper) - 1, math.ceil(beta + upper) + 2):
        dm = abs(m - beta)
        if dm < gamma:
            out.append((m, "Supercritical", math.sqrt(gamma * gamma - dm * dm)))
        elif dm < upper:
            out.append((m, "Subcritical", math.sqrt(dm * dm - gamma * gamma)))
    return out


def clear_of_edges(beta: float, gamma: float, margin: float = MARGIN) -> bool:
    """True when no mode sits within margin of gamma or sqrt(1 + gamma^2)."""
    upper = math.sqrt(1.0 + gamma * gamma)
    for m in range(math.floor(beta - upper) - 2, math.ceil(beta + upper) + 3):
        dm = abs(m - beta)
        if abs(dm - gamma) < margin or abs(dm - upper) < margin:
            return False
    return True


def _fmt(x: float) -> str:
    return repr(float(x))


def scenario_text(potential: dict, model_lines: list, m_range: str, phi: int, fmt: str) -> str:
    lines = ["[potential]"]
    lines += [f"{k} = {v if isinstance(v, str) else _fmt(v)}" for k, v in potential.items()]
    lines += ["", "[model]"] + model_lines
    lines += ["", "[modes]", f"m_range = {m_range}"]
    lines += ["", "[angles]", f"phi_samples = {phi}"]
    lines += ["", "[output]", f"format = {fmt}", "path = out", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------
# square_cli
# ---------------------------------------------------------------------
# Why: `fluxsink run` on the inverse-square core.  The Python phi x mode
# loop of channels.amplitude does about 80% of a run (15-30 ms), and no
# ODE or mpmath code runs.  One item in four is a beta x gamma sweep
# without phi, which uses channels the other way round: many
# classify_mode/solve_channel calls and no amplitude.  gamma = 0 runs
# check the differential cross section against the closed flux-only form.

SQUARE_MODELS = ("sink", "elastic", "total_absorption", "custom")


def _draw_square_point(rng, gamma_zero: bool) -> tuple:
    while True:
        beta = rng.uniform(0.02, 0.98)
        gamma = 0.0 if gamma_zero else rng.uniform(0.0, 6.0)
        if clear_of_edges(beta, gamma):
            return beta, gamma


def _square_run(rng, k: int) -> dict:
    r = k - k // 4  # index among the run items
    gamma_zero = r % 5 == 0
    beta, gamma = _draw_square_point(rng, gamma_zero)
    p = rng.uniform(0.3, 3.0)
    fmt = "csv" if (r // 4) % 2 == 0 else "json"
    modes = square_modes(beta, gamma)
    params = {"beta": beta, "gamma": gamma, "p": p, "fmt": fmt}
    if gamma_zero:
        # flux only: sink and l = 0 both keep S_m = S_m^AB, so the
        # differential cross section must be |f_AB|^2
        model = "sink" if r % 2 == 0 else "elastic"
        l_value, theta = 0.0, rng.uniform(0.0, 2.0 * math.pi)
    else:
        model = SQUARE_MODELS[r % 4]
        l_value, theta = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0 * math.pi)
    params["model"] = model
    if model == "sink":
        lines = ["kind = sink"]
    elif model == "elastic":
        lines = ["kind = elastic", f"l = {_fmt(l_value)}", f"theta = {_fmt(theta)}"]
        params.update(l=l_value, theta=theta)
    elif model == "total_absorption":
        ms = [m for m, _, _ in modes]
        n_minus = int(rng.integers(0, -min(ms) + 1)) if min(ms) < 0 else 0
        n_plus = int(rng.integers(0, max(ms) + 1))
        lines = ["kind = total_absorption", f"n_minus = {n_minus}", f"n_plus = {n_plus}"]
        params.update(n_minus=n_minus, n_plus=n_plus)
    else:
        lines = ["kind = custom"]
        targets = {}
        for m, regime, mu in modes:
            s_abs = rng.uniform(0.0, 0.999)
            ratio = s_abs * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            if regime == "Supercritical":
                ratio *= math.exp(-math.pi * mu)  # |S| = e^{pi mu} |a/b|
            lines.append(f"ratio_{m} = {_fmt(ratio.real)}, {_fmt(ratio.imag)}")
            targets[m] = abs(ratio) * (math.exp(math.pi * mu) if regime == "Supercritical" else 1.0)
        params["s_abs"] = targets
    params["text"] = scenario_text(
        {"kind": "inverse_square", "beta": beta, "gamma": gamma, "p": p},
        lines, "auto", PHI_SAMPLES, fmt,
    )
    return params


def _grid(start: float, step: float, n: int) -> list:
    return [start + i * step for i in range(n)]


def _square_sweep(rng, k: int) -> dict:
    s = k // 4
    model = "sink" if s % 2 == 0 else "elastic"
    fmt = "csv" if (s // 2) % 2 == 0 else "json"
    while True:
        nb, ng = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        betas = _grid(rng.uniform(0.02, 0.5), rng.uniform(0.05, 0.11), nb)
        gammas = _grid(rng.uniform(0.0, 2.0), rng.uniform(0.2, 0.8), ng)
        if betas[-1] < 0.98 and all(clear_of_edges(b, g) for b in betas for g in gammas):
            break
    p = rng.uniform(0.3, 3.0)
    lines = ["kind = sink"] if model == "sink" else ["kind = elastic", "l = 0.0", "theta = 0.0"]
    text = scenario_text(
        {"kind": "inverse_square", "beta": betas[0], "gamma": gammas[0], "p": p},
        lines, "auto", 0, fmt,
    )
    return {"model": model, "fmt": fmt, "p": p, "betas": betas, "gammas": gammas, "text": text}


# ---------------------------------------------------------------------
# quartic_cli
# ---------------------------------------------------------------------
# Why: `fluxsink run` on the inverse-quartic core, where
# quartic.connection_matrix does more than 95% of the work (two DOP853
# integrations per mode, about 2-3 s each).  Items carry 3-5 modes so
# that per-mode batching can show.  Half the items have beta = 0, where
# modes +-m share |m - beta|, so a cache keyed on (|m - beta|, q, tol)
# would help them; the beta != 0 half is the control that such a cache
# cannot help.
#
# Class table: (beta is zero, model, modes in the window, m_abs).  A
# timed run is the first four items (run.QUARTIC_ITEMS): classes that
# solve 4, 3, 5 and 4 modes, with q in bands spread over the whole range.
QUARTIC_CLASSES = (
    (True, "sink", 4, 0),
    (False, "elastic", 3, 0),
    (True, "elastic", 5, 0),
    (False, "total_absorption", 5, 0),
    (True, "total_absorption", 5, 0),
    (False, "sink", 3, 0),
    (True, "sink", 5, 0),
    (False, "elastic", 4, 0),
    (True, "total_absorption", 5, 1),
    (False, "sink", 5, 0),
    (False, "total_absorption", 4, 1),
    (True, "elastic", 3, 0),
)
# q = p lam in [0.3, 10], cut into one log band per class; the order
# spreads the first classes over the whole range
Q_RANGE = (0.3, 10.0)
Q_BAND_ORDER = (5, 0, 11, 7, 2, 9, 4, 10, 1, 6, 3, 8)


def _quartic_run(rng, k: int) -> dict:
    beta_zero, model, n_modes, m_abs = QUARTIC_CLASSES[k % len(QUARTIC_CLASSES)]
    band = Q_BAND_ORDER[k % len(QUARTIC_CLASSES)]
    lo_q, hi_q = (math.log(v) for v in Q_RANGE)
    width = (hi_q - lo_q) / len(QUARTIC_CLASSES)
    q = math.exp(lo_q + width * (band + rng.uniform(0.0, 1.0)))
    p = rng.uniform(0.5, 2.0)
    lam = q / p
    beta = 0.0 if beta_zero else rng.uniform(0.05, 0.95)
    if beta_zero or model == "total_absorption":
        # windows around m = 0: pairs +-m (and every absorbed mode) inside
        lo = -int(rng.integers(max(m_abs, 1), n_modes - max(m_abs, 1)))
    else:
        lo = int(rng.integers(-3, 5 - n_modes))
    hi = lo + n_modes - 1
    theta = 0.0
    if model == "sink":
        lines = ["kind = sink"]
    elif model == "elastic":
        theta = rng.uniform(0.0, 2.0 * math.pi)
        lines = ["kind = elastic", f"theta = {_fmt(theta)}"]
    else:
        lines = ["kind = total_absorption", f"m_abs = {m_abs}"]
    fmt = "csv" if k % 2 == 0 else "json"
    text = scenario_text(
        {"kind": "inverse_quartic", "beta": beta, "lam": lam, "p": p},
        lines, f"{lo}:{hi}", PHI_SAMPLES, fmt,
    )
    return {
        "model": model, "beta": beta, "lam": lam, "p": p, "q": p * lam,
        "m_lo": lo, "m_hi": hi, "m_abs": m_abs, "theta": theta, "fmt": fmt, "text": text,
    }


def quartic_solved_modes(params: dict) -> list:
    """Modes whose S needs a connection matrix (absorbed modes do not)."""
    ms = range(params["m_lo"], params["m_hi"] + 1)
    if params["model"] == "total_absorption":
        return [m for m in ms if abs(m) > params["m_abs"]]
    return list(ms)


def repeat_key_frac(items: list) -> float:
    """Share of quartic mode solves whose (q, |m - beta|) came up before in the list."""
    seen, solves, repeats = set(), 0, 0
    for item in items:
        prm = item.params
        for m in quartic_solved_modes(prm):
            key = (prm["p"] * prm["lam"], abs(m - prm["beta"]))
            solves += 1
            repeats += key in seen
            seen.add(key)
    return repeats / solves if solves else 0.0


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------
# Why: what `certify --strict` does per channel.  Radial integration
# (oracle.oracle_smatrix at tol 1e-6 and 1e-8, about 0.3 s per channel)
# and imaginary-order Bessel evaluation (specfun) share the item.  The
# mpmath zone 14 < x < max(30, 10 mu) costs ~4 ms per call against
# ~50 us in the other regions, so the few draws that land there make
# the tail.
# Neither layer does real work in square_cli; quartic_cli shares only
# the ODE layer with this workload, through oracle._run_stage.

# Three supercritical channels to one subcritical: real-order Bessel draws
# cost ~40 us against ~0.5 ms for imaginary order, so an even mix would
# split the latencies into two clusters with the median between them.
VERIFY_MODELS = ("sink", "elastic", "total_absorption", "custom")


def _verify_class(k: int) -> tuple:
    if k % 4 == 3:
        return "Subcritical", VERIFY_MODELS[(k // 4) % 4]
    return "Supercritical", VERIFY_MODELS[(k - k // 4) % 4]


# Bessel draws per channel, at x = 10^U(-3, 4); sized so specfun takes
# roughly a third to a half of the workload's self time
SPECFUN_DRAWS = 400


def _verify_channel(rng, k: int) -> dict:
    regime, model = _verify_class(k)
    while True:
        beta = rng.uniform(0.05, 0.95)
        gamma = rng.uniform(0.3, 2.2)
        p = rng.uniform(0.5, 2.0)
        if not clear_of_edges(beta, gamma):
            continue
        picks = [(m, mu) for m, reg, mu in square_modes(beta, gamma) if reg == regime and mu >= MU_MIN]
        if picks:
            m, mu = picks[int(rng.integers(len(picks)))]
            break
    params = {"beta": beta, "gamma": gamma, "p": p, "m": m, "regime": regime, "mu": mu, "model": model}
    if model == "elastic":
        params["param"] = rng.uniform(-1.0, 1.0) if regime == "Subcritical" else rng.uniform(0.0, 2.0 * math.pi)
    elif model == "custom":
        s_abs = rng.uniform(0.1, 0.9)
        ratio = s_abs * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if regime == "Supercritical":
            ratio *= math.exp(-math.pi * mu)
        params["param"] = [ratio.real, ratio.imag]
    params["xs"] = [float(x) for x in 10.0 ** rng.uniform(-3.0, 4.0, SPECFUN_DRAWS)]
    params["kinds"] = [int(v) for v in rng.integers(1, 3, SPECFUN_DRAWS)]
    return params


# ---------------------------------------------------------------------
# generation and execution
# ---------------------------------------------------------------------


def make_item(workload: str, seed: int, k: int, workdir: str | None = None) -> Item:
    """Item k of the workload's stream; CLI kinds get their scenario file written."""
    rng = _rng(seed, workload, k)
    if workload == "square_cli":
        kind = "sweep" if k % 4 == 3 else "run"
        params = _square_sweep(rng, k) if kind == "sweep" else _square_run(rng, k)
    elif workload == "quartic_cli":
        kind, params = "run", _quartic_run(rng, k)
    elif workload == "verify":
        kind, params = "channel", _verify_channel(rng, k)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    item = Item(workload=workload, index=k, kind=kind, params=params)
    if workdir is not None and "text" in params:
        item.path = os.path.join(workdir, f"item{k:06d}.ini")
        with open(item.path, "w") as fh:
            fh.write(params["text"])
    return item


def run_item(fs, item: Item, out_dir: str):
    """Call fluxsink's public API for one item; returns what the checks read.

    `fs` is the imported fluxsink package.  Only this call is timed.
    """
    prm = item.params
    if item.kind == "run":
        scn = fs.scenario.load_scenario(item.path)
        return fs.cli.run_scenario(scn, out_dir, prm["fmt"])
    if item.kind == "sweep":
        scn = fs.scenario.load_scenario(item.path)
        axes = [("beta", prm["betas"]), ("gamma", prm["gammas"])]
        return [fs.cli.run_sweep(scn, axes, out_dir, prm["fmt"])]
    return _run_channel(fs, prm)


def _channel_model(fs, prm: dict):
    ch = fs.channels
    model, m = prm["model"], prm["m"]
    if model == "sink":
        return ch.Sink()
    if model == "total_absorption":
        return ch.TotalAbsorption(n_minus=abs(m), n_plus=abs(m))
    if model == "custom":
        return ch.Custom(ratios={m: complex(*prm["param"])})
    if prm["regime"] == "Supercritical":
        return ch.ElasticSupercritical(theta=prm["param"])
    return ch.ElasticSubcritical(l=prm["param"])


def _run_channel(fs, prm: dict) -> dict:
    ch, sf = fs.channels, fs.specfun
    cfg = ch.ScatteringConfig(beta=prm["beta"], gamma=prm["gamma"], p=prm["p"])
    mode = ch.classify_mode(cfg, prm["m"])
    model = _channel_model(fs, prm)
    closed = ch.solve_channel(cfg, mode, model)
    probe_default = fs.oracle.oracle_smatrix(cfg, mode, model, tol=1e-6)
    probe_tight = fs.oracle.oracle_smatrix(cfg, mode, model, tol=1e-8)
    order = sf.Order("imaginary" if mode.regime == "Supercritical" else "real", mode.mu)
    wronskian, hankels = [], []
    for x, kind in zip(prm["xs"], prm["kinds"]):
        wronskian.append(sf.wronskian_check(order, x))
        hankels.append(sf.hankel_pair(kind, order, x))
    return {
        "regime": mode.regime,
        "mu": mode.mu,
        "s_closed": closed.s_matrix,
        "sigma_closed": closed.sigma_abs,
        "s_default": probe_default,
        "s_tight": probe_tight,
        "wronskian": wronskian,
        "hankel": hankels,
    }
