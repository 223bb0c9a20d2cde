"""Regenerate quartic_reference.json: S_m of the quartic_cli items a run times.

    PYTHONPATH=src python3 bench/make_reference.py

Run from the root of a checkout whose results are trusted.  The benchmark
then requires every later version to reproduce these S_m within 1e-6 for
the default seed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import fluxsink  # noqa: E402
import fluxsink.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=".") as work:
        for k in range(run.QUARTIC_ITEMS):
            item = workloads.make_item("quartic_cli", run.DEFAULT_SEED, k, work)
            record = checks.collect(item, workloads.run_item(fluxsink, item, os.path.join(work, "out")))
            reference[str(k)] = {str(md["m"]): md["s"] for md in record["modes"]}
            print(f"item {k}: {len(record['modes'])} modes", file=sys.stderr)
    with open(os.path.join(HERE, "quartic_reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
