"""One fresh benchmark process: import fluxsink, run items, report as JSON.

Started by run.py, never imported.  Modes:

* ``setup``: import fluxsink and report the import time only.
* ``timed``: closed loop with one client for --seconds; the item in
  flight at the deadline completes and counts.
* ``fixed``: exactly --items items, for the traced/untraced comparison
  and for timed quartic_cli runs.

With --trace 1 the process patches solve_ivp before importing fluxsink,
wraps the layers, and writes its spans to --spans.  With --calibrate 1 it
measures the host's import speed after the import, and then samples its
speed (calibrate.py) at most once per CALIBRATE_EVERY_S: before an item,
and inside an item after each ODE solve; one more sample follows the
last item.  An item's latency leaves out the samples taken inside it,
and its speed factor is the mean of the samples from the last one before
it to the first one after it.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

# least time between two speed samples in the item loop
CALIBRATE_EVERY_S = 0.5


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--items", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory holding the fluxsink package")
    ap.add_argument("--workdir", default="")
    ap.add_argument("--spans", default="")
    ap.add_argument("--reference", default="")
    ap.add_argument("--calibrate", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # One CPU for the whole run: left free to migrate, the loop moved
    # between vCPUs of different speed and item latencies split into two
    # clusters.  The last CPU is the one least used by interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = None
    t0 = time.perf_counter()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.patch_ode()
    import fluxsink
    import fluxsink.cli  # noqa: F401  (not imported by the package itself)

    setup_s = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(fluxsink.__file__))
    if where != os.path.join(os.path.abspath(args.src), "fluxsink"):
        print(f"fluxsink imported from {where}, not from {args.src}", file=sys.stderr)
        return 2
    sampler, setup_factor = None, None
    if args.calibrate:
        # imported only now: its numpy and scipy imports must not shorten
        # the timed import of fluxsink
        import calibrate

        setup_factor = calibrate.import_factor()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_factor": setup_factor}))
        return 0
    if args.calibrate:
        calibrate.sample(repeats=1)  # first calls: lazy imports and caches
        sampler = calibrate.Sampler(calibrate.WEIGHTS[args.workload], CALIBRATE_EVERY_S)
        sampler.patch(fluxsink)

    import checks
    import workloads

    if tracer is not None:
        tracer.patch_fluxsink(fluxsink)
    reference = {}
    if args.reference:
        with open(args.reference) as fh:
            reference = json.load(fh)
    out_dir = os.path.join(args.workdir, "out")
    fixed = None
    if args.mode == "fixed":
        fixed = [workloads.make_item(args.workload, args.seed, k, args.workdir) for k in range(args.items)]

    latencies, digests, failures, bytes_written = [], [], [], 0
    item_factors = []
    deadline = time.perf_counter() + args.seconds
    start = time.perf_counter()
    k = 0
    while True:
        if fixed is not None:
            if k >= len(fixed):
                break
            item = fixed[k]
        else:
            if k > 0 and time.perf_counter() >= deadline:
                break
            item = workloads.make_item(args.workload, args.seed, k, args.workdir)
        if sampler is not None:
            sampler.due()
            first, paused = len(sampler.factors) - 1, sampler.paused_s
        if tracer is not None:
            tracer.item = k
        problems, record = [], None
        t_item = time.perf_counter()
        try:
            raw = workloads.run_item(fluxsink, item, out_dir)
        except Exception as exc:  # a failed item counts; the loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t_item)
        if sampler is not None:
            latencies[-1] -= sampler.paused_s - paused
            # the first sample after the item has this index; it is taken
            # before the next item or after the loop
            item_factors.append((first, len(sampler.factors)))
        if not problems:
            try:
                record = checks.collect(item, raw)
                problems = checks.check(item, record, reference.get(str(k)))
            except Exception as exc:  # unreadable output fails the item
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if record is not None:
            bytes_written += record.get("bytes", 0)
        if fixed is not None:
            canonical = json.dumps(record, sort_keys=True).encode()
            digests.append(hashlib.sha256(canonical).hexdigest())
        if problems:
            failures.append({"item": k, "problems": problems[:3]})
        k += 1
    if sampler is not None:
        sampler.sample()
        item_factors = [statistics.fmean(sampler.factors[a : b + 1]) for a, b in item_factors]
    wall = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "latencies_s": latencies,
        "failures": failures,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if sampler is not None:
        result["setup_factor"] = setup_factor
        result["factors"] = sampler.factors
        result["item_factors"] = item_factors
    if tracer is not None:
        tracer.bytes_written = bytes_written
        result["layers"] = tracer.layer_metrics(wall)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
