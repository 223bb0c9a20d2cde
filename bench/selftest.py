"""Tests of the benchmark itself: generator, output checks, tracing.

    python3 -m pytest bench/selftest.py

Run from the root of a checkout.  Takes about a minute: one quartic item
costs ~10 s per pass.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import fluxsink  # noqa: E402
import fluxsink.cli  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _items(workload, seed, n, workdir=None):
    return [workloads.make_item(workload, seed, k, workdir) for k in range(n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = _items(workload, 7, 24, str(a))
    again = _items(workload, 7, 24, str(b))
    assert [i.params for i in first] == [i.params for i in again]
    for x, y in zip(first, again):
        if x.path:
            assert open(x.path).read() == open(y.path).read()
    other = _items(workload, 8, 24)
    assert [i.params for i in first] != [i.params for i in other]


def test_generated_inputs_are_valid(tmp_path):
    for workload in workloads.WORKLOADS:
        for item in _items(workload, 3, 240, str(tmp_path)):
            prm = item.params
            if item.kind == "channel":
                assert workloads.clear_of_edges(prm["beta"], prm["gamma"])
                assert prm["mu"] >= workloads.MU_MIN
                continue
            scn = fluxsink.scenario.load_scenario(item.path)
            if item.kind == "sweep":
                assert all(
                    workloads.clear_of_edges(b, g) for b in prm["betas"] for g in prm["gammas"]
                )
            elif workload == "square_cli":
                assert workloads.clear_of_edges(prm["beta"], prm["gamma"])
                assert max(prm.get("s_abs", {0: 0.0}).values()) <= 0.999
            else:
                assert 3 <= prm["m_hi"] - prm["m_lo"] + 1 <= 5
                if prm["model"] == "total_absorption":
                    assert prm["m_lo"] <= -prm["m_abs"] and prm["m_hi"] >= prm["m_abs"]
                assert 0.3 <= prm["q"] <= 10.0
            assert fluxsink.scenario.resolve_m_range(scn)


def _first(workload, want):
    for k in range(64):
        item = workloads.make_item(workload, run.DEFAULT_SEED, k)
        if want(item):
            return k
    raise AssertionError("no such item")


def _shift_s(record):
    """S moved by 1e-5, with the |S| column kept consistent with it."""
    for md in record.get("modes", []):
        md["s"][0] += 1e-5
        md["abs_s"] = abs(complex(*md["s"]))
    if "s_closed" in record:
        record["s_closed"][0] += 1e-5


def _scale_sigma(record):
    for md in record.get("modes", []):
        md["sigma"] *= 1.01
    if "sigma_total" in record:
        record["sigma_total"] *= 1.01
    for row in record.get("rows", []):
        row[2] *= 1.01
    if "sigma_closed" in record:
        record["sigma_closed"] *= 1.01


# control item -> (workload, item filter, {perturbation: problem it must raise})
CONTROL_ITEMS = {
    "square run": (
        "square_cli",
        lambda i: i.kind == "run" and i.params["model"] == "sink" and i.params["gamma"] > 1.0,
        {_shift_s: "sink |S|", _scale_sigma: "sink sigma"},
    ),
    "square sweep": (
        "square_cli",
        lambda i: i.kind == "sweep" and i.params["model"] == "sink",
        {_scale_sigma: "sweep ("},
    ),
    "quartic": (
        "quartic_cli",
        lambda i: i.params["model"] == "sink",
        {_shift_s: "differs from reference", _scale_sigma: "sink sigma"},
    ),
    "verify": (
        "verify",
        lambda i: i.params["model"] == "sink" and i.params["regime"] == "Supercritical",
        {_shift_s: "oracle at tol 1e-8 off", _scale_sigma: "break sigma"},
    ),
}


@pytest.mark.parametrize("name", sorted(CONTROL_ITEMS))
def test_checks_flag_perturbed_output(name, tmp_path):
    workload, want, expected = CONTROL_ITEMS[name]
    k = _first(workload, want)
    item = workloads.make_item(workload, run.DEFAULT_SEED, k, str(tmp_path))
    with open(run.REFERENCE) as fh:
        reference = json.load(fh).get(str(k)) if workload == "quartic_cli" else None
    record = checks.collect(item, workloads.run_item(fluxsink, item, str(tmp_path / "out")))
    assert checks.check(item, record, reference) == []
    for perturb, problem in expected.items():
        bad = copy.deepcopy(record)
        perturb(bad)
        problems = checks.check(item, bad, reference)
        assert any(problem in p for p in problems), (perturb.__name__, problems)


def test_tail_percentile():
    lat = [float(i) for i in range(100)]
    assert run.tail(lat) == (89.0, 90.0, 10)
    assert run.tail(lat[:50]) == (39.0, 80.0, 10)
    assert run.tail(lat * 10)[1:] == (90.0, 100)
    assert run.tail(lat[:12])[1:] == (100.0, 0)


def test_speed_factor():
    for weights in calibrate.WEIGHTS.values():
        assert sum(weights.values()) == pytest.approx(1.0)
        assert calibrate.factor(calibrate.REF_S, weights) == pytest.approx(1.0)
        slow = {part: 2.0 * t for part, t in calibrate.REF_S.items()}
        assert calibrate.factor(slow, weights) == pytest.approx(2.0)
    assert set(calibrate.WEIGHTS) == set(workloads.WORKLOADS)
    assert set(calibrate.sample(repeats=1)) == set(calibrate.PARTS)
    assert calibrate.import_factor() > 0.0


TRACE_PASS = {"square_cli": 24, "quartic_cli": 1, "verify": 4}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_untraced(workload):
    args = argparse.Namespace(workload=workload, seed=run.DEFAULT_SEED, seconds=1.0, trace=1)
    launcher = run.Launcher(args, ROOT)
    n = TRACE_PASS[workload]
    ref = launcher.reference_args()
    try:
        plain = launcher.worker("fixed", items=n, **ref)
        traced = [launcher.worker("fixed", trace=1, items=n, **ref) for _ in range(2)]
    finally:
        shutil.rmtree(launcher.workdir, ignore_errors=True)
    assert plain["failures"] == []
    for res in traced:
        assert res["failures"] == []
        assert res["digests"] == plain["digests"]
        layers = res["layers"]
        self_times = sum(
            layers[name] for name, unit in tracing.PER_LAYER
            if unit == "s" and not name.startswith("trace.")
        )
        assert self_times == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    counts = [
        {name: r["layers"][name] for name, unit in tracing.PER_LAYER if unit == "count"}
        for r in traced
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
