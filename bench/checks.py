"""Output checks: every item's results against stated tolerances.

`collect` turns what an item produced (files written by the CLI, or the
values of a `verify` channel) into a plain record; `check` returns the
list of violated conditions, empty when the item is correct.  Values are
compared within tolerances, never files byte for byte.

Tolerances:

* EXACT = 1e-12: identities the closed forms satisfy to rounding (|S| of
  a sink mode is e^{-pi mu}, sigma of a window mode is 1/p, ...).
* FLUX_AB = 1e-9 relative: d sigma/d phi at gamma = 0 against |f_AB|^2.
* QUARTIC = 1e-6: the package's own unitarity and capture guards for the
  quartic connection matrix, and the agreement with the stored
  reference S_m of the default seed.
* ORACLE = 1e-5: oracle against closed form at tol 1e-6 and 1e-8, as in
  `certify --strict`, which also requires the tighter run to be no
  worse.  Per channel that rule holds only above the oracle's error
  floor: subcritical channels reach 1e-8..5e-8 at both tolerances, and
  there the tol 1e-8 run is sometimes the worse of the two.  So the
  tighter run may not be worse than max(default error, REFINE_FLOOR =
  1e-7).  ORACLE_TIGHT = 1e-6, the accuracy the package promises for
  converged outputs, applies to the tol 1e-8 run.
* WRONSKIAN = 1e-8: the package's special-function accuracy monitor.

d sigma/d phi for gamma > 0 is only checked to be finite and
non-negative: its truncation error is a known open defect, and the values
will change when the amplitude tail is resummed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os

import workloads

EXACT = 1e-12
FLUX_AB = 1e-9
QUARTIC = 1e-6
ORACLE = 1e-5
ORACLE_TIGHT = 1e-6
REFINE_FLOOR = 1e-7
WRONSKIAN = 1e-8


# ---------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------


def _read_table(path: str) -> list:
    """Rows of a modes/sweep file as dicts of floats (strings kept for regime)."""
    if path.endswith(".json"):
        with open(path) as fh:
            obj = json.load(fh)
        (rows,) = obj.values()
        return rows
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            {k: (v if k == "regime" else float(v)) for k, v in row.items()}
            for row in reader
        ]


def _read_summary(path: str) -> dict:
    if path.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    with open(path, newline="") as fh:
        return dict(csv.reader(fh))


def collect(item, raw) -> dict:
    """Plain, JSON-ready record of an item's output."""
    if item.kind == "channel":
        return {
            "regime": raw["regime"],
            "mu": raw["mu"],
            "s_closed": _c(raw["s_closed"]),
            "sigma_closed": raw["sigma_closed"],
            "s_default": _c(raw["s_default"]),
            "s_tight": _c(raw["s_tight"]),
            "wronskian": list(raw["wronskian"]),
            "hankel": [[_c(v), _c(d)] for v, d in raw["hankel"]],
        }
    paths = {os.path.basename(p): p for p in raw}
    record = {"bytes": sum(os.path.getsize(p) for p in raw)}
    if item.kind == "sweep":
        (path,) = raw
        record["rows"] = [[r["beta"], r["gamma"], r["sigma_total_abs"]] for r in _read_table(path)]
        return record
    name = "modes.csv" if "modes.csv" in paths else "modes.json"
    summary = _read_summary(paths[name.replace("modes", "summary")])
    record["modes"] = [
        {
            "m": int(r["m"]),
            "regime": r["regime"],
            "mu": float(r["mu"]),
            "s": [float(r["re_s"]), float(r["im_s"])],
            "abs_s": float(r["abs_s"]),
            "sigma": float(r["sigma_abs"]),
        }
        for r in _read_table(paths[name])
    ]
    record["sigma_total"] = float(summary["sigma_total_abs"])
    record["m_range"] = [int(summary["m_lo"]), int(summary["m_hi"])]
    phi, dsig = [], []
    with open(paths["differential.csv"], newline="") as fh:
        for row in csv.DictReader(fh):
            phi.append(float(row["phi"]))
            dsig.append(float(row["dsigma_dphi"]))
    record["phi"], record["dsigma"] = phi, dsig
    return record


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol relative to max(|b|, 1)."""
    return abs(a - b) <= tol * max(abs(b), 1.0)


# ---------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------


def check(item, record: dict, reference: dict | None = None) -> list:
    """Violated conditions for one item; `reference` maps m -> [re, im] S."""
    if item.kind == "channel":
        return _check_channel(item.params, record)
    if item.kind == "sweep":
        return _check_sweep(item.params, record)
    if item.workload == "quartic_cli":
        return _check_quartic(item.params, record, reference)
    return _check_square_run(item.params, record)


def _common_run(record: dict, unit_tol: float) -> list:
    bad = []
    total = sum(md["sigma"] for md in record["modes"])
    if not _close(total, record["sigma_total"], EXACT):
        bad.append(f"sigma_total {record['sigma_total']!r} != sum of modes {total!r}")
    for md in record["modes"]:
        s = complex(*md["s"])
        if not (math.isfinite(abs(s)) and math.isfinite(md["sigma"])):
            bad.append(f"m={md['m']}: non-finite S or sigma")
        if abs(s) > 1.0 + unit_tol:
            bad.append(f"m={md['m']}: |S|={abs(s)!r} > 1")
        if md["sigma"] < 0.0:
            bad.append(f"m={md['m']}: sigma={md['sigma']!r} < 0")
        if not _close(md["abs_s"], abs(s), EXACT):
            bad.append(f"m={md['m']}: abs_s column disagrees with S")
    if len(record["dsigma"]) != workloads.PHI_SAMPLES:
        bad.append(f"{len(record['dsigma'])} differential samples, want {workloads.PHI_SAMPLES}")
    if not all(math.isfinite(v) and v >= 0.0 for v in record["dsigma"]):
        bad.append("d sigma/d phi not finite and non-negative")
    return bad


def _check_square_run(prm: dict, record: dict) -> list:
    bad = _common_run(record, EXACT)
    beta, gamma, p = prm["beta"], prm["gamma"], prm["p"]
    nonregular = {m: (reg, mu) for m, reg, mu in workloads.square_modes(beta, gamma)}
    lo, hi = (min(nonregular) - 10, max(nonregular) + 10) if nonregular else (-10, 10)
    if [md["m"] for md in record["modes"]] != list(range(lo, hi + 1)):
        bad.append(f"mode set is not the auto range [{lo}, {hi}]")
    for md in record["modes"]:
        m, s, sigma = md["m"], complex(*md["s"]), md["sigma"]
        if m in nonregular:
            regime, mu = nonregular[m]
        else:
            dm = abs(m - beta)
            regime, mu = "Regular", math.sqrt(dm * dm - gamma * gamma)
        if md["regime"] != regime or not _close(md["mu"], mu, EXACT):
            bad.append(f"m={m}: regime/mu {md['regime']}/{md['mu']!r}, want {regime}/{mu!r}")
            continue
        if regime == "Regular":
            want = cmath.exp(1j * math.pi * (m - mu))
            if abs(s - want) > EXACT or sigma != 0.0:
                bad.append(f"m={m}: Regular S={s!r} != e^(i pi (m - mu))")
            continue
        model = prm["model"]
        if model == "total_absorption" and -prm["n_minus"] <= m <= prm["n_plus"]:
            if abs(s) != 0.0 or not _close(sigma, 1.0 / p, EXACT):
                bad.append(f"m={m}: window mode S={s!r}, sigma={sigma!r}, want 0, 1/p")
        elif model == "sink" and regime == "Supercritical":
            if not _close(abs(s), math.exp(-math.pi * mu), EXACT):
                bad.append(f"m={m}: sink |S|={abs(s)!r} != e^(-pi mu)")
            if not _close(sigma, (1.0 - math.exp(-2.0 * math.pi * mu)) / p, EXACT):
                bad.append(f"m={m}: sink sigma={sigma!r} != (1 - e^(-2 pi mu))/p")
        elif model == "custom":
            want = prm["s_abs"][m]
            if not _close(abs(s), want, EXACT) or not _close(sigma, (1.0 - want * want) / p, EXACT):
                bad.append(f"m={m}: custom |S|={abs(s)!r}, sigma={sigma!r}, want {want!r}")
        elif abs(abs(s) - 1.0) > EXACT or sigma != 0.0:
            bad.append(f"m={m}: elastic |S|={abs(s)!r}, sigma={sigma!r}, want 1, 0")
    if gamma == 0.0:
        for ph, v in zip(record["phi"], record["dsigma"]):
            want = math.sin(math.pi * beta) ** 2 / (2.0 * math.pi * p * math.sin(0.5 * ph) ** 2)
            if abs(v - want) > FLUX_AB * want:
                bad.append(f"phi={ph!r}: d sigma/d phi={v!r} != |f_AB|^2={want!r}")
                break
    return bad


def _sweep_sigma(model: str, beta: float, gamma: float, p: float) -> float:
    if model != "sink":
        return 0.0
    total = 0.0
    for _, regime, mu in workloads.square_modes(beta, gamma):
        if regime == "Supercritical":
            total += (1.0 - math.exp(-2.0 * math.pi * mu)) / p
    return total


def _check_sweep(prm: dict, record: dict) -> list:
    grid = [(b, g) for b in prm["betas"] for g in prm["gammas"]]
    rows = record["rows"]
    if len(rows) != len(grid):
        return [f"{len(rows)} sweep rows, want {len(grid)}"]
    bad = []
    for (b, g), (rb, rg, sigma) in zip(grid, rows):
        if not (_close(rb, b, EXACT) and _close(rg, g, EXACT)):
            bad.append(f"sweep row ({rb!r}, {rg!r}) out of order, want ({b!r}, {g!r})")
            continue
        want = _sweep_sigma(prm["model"], b, g, prm["p"])
        if not _close(sigma, want, EXACT):
            bad.append(f"sweep ({b!r}, {g!r}): sigma={sigma!r}, want {want!r}")
    return bad


def _check_quartic(prm: dict, record: dict, reference: dict | None) -> list:
    bad = _common_run(record, QUARTIC)
    ms = [md["m"] for md in record["modes"]]
    if ms != list(range(prm["m_lo"], prm["m_hi"] + 1)):
        bad.append(f"modes {ms}, want [{prm['m_lo']}, {prm['m_hi']}]")
    p = prm["p"]
    for md in record["modes"]:
        m, s, sigma = md["m"], complex(*md["s"]), md["sigma"]
        if md["regime"] != "Quartic" or not _close(md["mu"], abs(m - prm["beta"]), EXACT):
            bad.append(f"m={m}: regime/mu {md['regime']}/{md['mu']!r}")
        model = prm["model"]
        if model == "total_absorption" and abs(m) <= prm["m_abs"]:
            if abs(s) != 0.0 or not _close(sigma, 1.0 / p, EXACT):
                bad.append(f"m={m}: absorbed mode S={s!r}, sigma={sigma!r}, want 0, 1/p")
        elif model == "sink":
            want = max(0.0, 1.0 - abs(s) ** 2) / p
            if not _close(sigma, want, EXACT):
                bad.append(f"m={m}: sink sigma={sigma!r} != (1 - |S|^2)/p={want!r}")
        elif abs(abs(s) - 1.0) > QUARTIC or sigma != 0.0:
            bad.append(f"m={m}: elastic |S|={abs(s)!r}, sigma={sigma!r}, want 1, 0")
        if reference is not None:
            ref = complex(*reference[str(m)])
            if abs(s - ref) > QUARTIC:
                bad.append(f"m={m}: S={s!r} differs from reference {ref!r}")
    return bad


def _check_channel(prm: dict, record: dict) -> list:
    bad = []
    closed, sigma = complex(*record["s_closed"]), record["sigma_closed"]
    err_default = abs(complex(*record["s_default"]) - closed)
    err_tight = abs(complex(*record["s_tight"]) - closed)
    elastic = prm["model"] == "elastic" or (prm["model"] == "sink" and prm["regime"] == "Subcritical")
    if elastic:
        if abs(abs(closed) - 1.0) > EXACT or sigma != 0.0:
            bad.append(f"elastic closed form |S|={abs(closed)!r}, sigma={sigma!r}, want 1, 0")
    elif abs(closed) > 1.0 + EXACT or not _close(sigma, (1.0 - abs(closed) ** 2) / prm["p"], EXACT):
        bad.append(f"closed form |S|={abs(closed)!r}, sigma={sigma!r} break sigma = (1 - |S|^2)/p")
    if err_default > ORACLE or err_tight > ORACLE:
        bad.append(f"oracle off the closed form: {err_default:.2e} (tol 1e-6), {err_tight:.2e} (tol 1e-8)")
    if err_tight > max(err_default, REFINE_FLOOR):
        bad.append(f"oracle refinement made it worse: {err_tight:.2e} > {err_default:.2e}")
    if err_tight > ORACLE_TIGHT:
        bad.append(f"oracle at tol 1e-8 off by {err_tight:.2e} > {ORACLE_TIGHT:g}")
    worst = max(record["wronskian"])
    if not worst <= WRONSKIAN:
        bad.append(f"Wronskian deviation {worst:.2e} > {WRONSKIAN:g}")
    if not all(math.isfinite(v) for pair in record["hankel"] for z in pair for v in z):
        bad.append("non-finite Hankel value")
    return bad
