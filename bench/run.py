"""fluxsink benchmark: one workload, one run, one JSON line of metrics.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; fluxsink is imported from
./src, never from an installed copy.  Workloads (see workloads.py for why
each was chosen): square_cli, quartic_cli, verify.  Each is a closed loop
with one client: items run one after another in one fresh process, the
way a user waits for each `fluxsink run`.  BLAS and OpenMP are pinned to
one thread, and each measuring process to one CPU.

--trace 0 measures the end-to-end metrics for --seconds, except on
quartic_cli, which always times its first QUARTIC_ITEMS items (30-50 s
at the seed commit): a run cut at a deadline would finish a varying
number of items of different sizes, and its metrics would move with
where the cut fell.

The host's speed drifts by 2-3.7x over stretches of 10-60 s with its
neighbours' load, so every time below is a measured wall time divided by
the host's speed factor measured beside it (calibrate.py): seconds at
the reference host's speed.  The raw wall times and the factors are
printed before the result.

    setup_s       median over SETUP_PROBES + 1 fresh processes of the wall
                  time of `import fluxsink, fluxsink.cli` (input
                  generation excluded), each divided by the import speed
                  factor measured right after it
    items_per_s   items completed per second of item time
    item_p50_ms   median item latency
    item_tail_ms  latency at the highest percentile with at least 10 items
                  beyond it, capped at p90 (the maximum when a run has fewer
                  than 20 items, as on quartic_cli); the percentile and the
                  counts are printed
                  before the result
    peak_rss_mb   peak resident set size of the measuring process

--trace 1 runs a fixed list of items twice, in two fresh processes, once
untraced and once traced, and reports the per-layer metrics of the traced
pass (tracing.PER_LAYER), the tracing overhead (traced minus untraced wall
time) and the remainder outside every layer (bench.self_s).  The spans go
to .bench_out/.  An item whose output differs between the two passes
counts as failed.

Every item's output is checked (checks.py); `failed` counts items that
raised or failed a check.  Each metric is printed by name with its unit;
the last line of standard output is {"correct", "attempted", "failed",
"metrics"}.  Without --workload every workload runs in turn and that line
covers all of them, with metric names prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 5
# items of a timed quartic_cli run: the first four classes of
# workloads.QUARTIC_CLASSES, 16 mode solves
QUARTIC_ITEMS = 4
# items per pass of a traced run: roughly 5-20 s of work each
TRACE_ITEMS = {"square_cli": 120, "quartic_cli": 2, "verify": 16}
REFERENCE = os.path.join(HERE, "quartic_reference.json")
# every run ends within this many seconds, builds included
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond) of the tail latency.

    The highest percentile with at least 10 samples beyond it, capped at
    p90: on a shared host a run of ~1000 short items meets a few dozen
    scheduler stalls of 10-100 ms, and a p99 would time those instead of
    the program.  Below 20 samples that percentile would not reach the
    median, so the maximum stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    beyond = max(10, n // 10)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Launcher:
    def __init__(self, args, root: str) -> None:
        self.args = args
        self.root = root
        self.src = os.path.join(root, "src")
        self.deadline = time.monotonic() + BUDGET_S
        tag = f"{args.workload}-{args.seed}-{os.getpid()}"
        self.workdir = os.path.join(root, ".bench_work", tag)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = self.src
        self.env["PYTHONHASHSEED"] = "0"
        for var in THREAD_VARS:
            self.env[var] = "1"
        for var in ("FLUXSINK_OUTDIR", "FLUXSINK_FAULT"):
            self.env.pop(var, None)

    def worker(self, mode: str, trace: int = 0, **extra) -> dict:
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--mode", mode, "--trace", str(trace), "--src", self.src,
            "--workdir", os.path.join(self.workdir, f"{mode}{trace}"),
        ]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        os.makedirs(os.path.join(self.workdir, f"{mode}{trace}"), exist_ok=True)
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.root, stdout=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"worker {mode} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def reference_args(self) -> dict:
        if self.args.workload == "quartic_cli" and self.args.seed == DEFAULT_SEED:
            return {"reference": REFERENCE}
        return {}

    def end_to_end(self) -> tuple:
        probes = [self.worker("setup", calibrate=1) for _ in range(SETUP_PROBES)]
        if self.args.workload == "quartic_cli":
            res = self.worker("fixed", calibrate=1, items=QUARTIC_ITEMS, **self.reference_args())
        else:
            res = self.worker("timed", calibrate=1, seconds=self.args.seconds)
        probes.append(res)
        setups = [p["setup_s"] / p["setup_factor"] for p in probes]
        raw = res["latencies_s"]
        lat = [t / f for t, f in zip(raw, res["item_factors"])]
        value, pct, beyond = tail(lat)
        print(
            f"{self.args.workload}: {len(lat)} items in {res['wall_s']:.3f} s; "
            f"item_tail_ms is p{pct:.2f} with {beyond} of {len(lat)} items beyond it"
        )
        print(
            f"{self.args.workload}: raw wall times: import median "
            f"{statistics.median(p['setup_s'] for p in probes):.4f} s, item median "
            f"{1e3 * statistics.median(raw):.4f} ms, {len(raw) / sum(raw):.4f} items/s; "
            f"host speed factor {min(res['factors']):.3f}-{max(res['factors']):.3f} "
            f"over {len(res['factors'])} samples"
        )
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": len(lat) / sum(lat),
            "item_p50_ms": 1e3 * statistics.median(lat),
            "item_tail_ms": 1e3 * value,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        return len(lat), res["failures"], {k: (metrics[k], u) for k, u in END_TO_END}

    def traced(self) -> tuple:
        n = TRACE_ITEMS[self.args.workload]
        out_dir = os.path.join(self.root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{self.args.workload}-{self.args.seed}.jsonl")
        ref = self.reference_args()
        plain = self.worker("fixed", items=n, **ref)
        traced = self.worker("fixed", trace=1, items=n, spans=spans, **ref)
        failures = plain["failures"] + traced["failures"]
        for k, (a, b) in enumerate(zip(plain["digests"], traced["digests"])):
            if a != b:
                failures.append({"item": k, "problems": ["traced output differs from untraced"]})
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        if self.args.workload == "quartic_cli":
            items = [workloads.make_item("quartic_cli", self.args.seed, k) for k in range(n)]
            layers["quartic.repeat_key_frac"] = workloads.repeat_key_frac(items)
        print(
            f"{self.args.workload}: traced {n} items, wall {traced['wall_s']:.3f} s "
            f"(untraced {plain['wall_s']:.3f} s); spans in {os.path.relpath(spans, self.root)}"
        )
        return n, failures, {k: (layers[k], u) for k, u in tracing.PER_LAYER}

    def run(self) -> dict:
        try:
            attempted, failures, metrics = self.traced() if self.args.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.workdir))
            except OSError:
                pass  # another run still uses it
        for f in failures[:5]:
            print(f"FAILED item {f['item']}: {'; '.join(f['problems'])}")
        failed = len({f["item"] for f in failures})
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all, one after another")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fluxsink", "__init__.py")):
        print("bench: no src/fluxsink here; run from the root of a fluxsink checkout", file=sys.stderr)
        return 2
    results = {}
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        try:
            result = Launcher(argparse.Namespace(**(vars(args) | {"workload": name})), root).run()
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, m in result["metrics"].items():
            print(f"{name:>12s}  {metric:26s} {m['value']:<14.6g} {m['unit']}")
        results[name] = result
    if args.workload is None:
        # one line for all workloads; metric names carry the workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
