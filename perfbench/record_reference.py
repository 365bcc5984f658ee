"""Record reference.json: counters and final T / E_total profiles of every
workload at the benchmark's run length.

    python3 perfbench/record_reference.py

Each workload is also run to the paper's 3 ns, and its counters there must
equal the published baseline (ROADMAP.md), or nothing is written.  Re-record only when a change to the solver is meant
to move its results, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

FULL_TEND = 3.0
# (N_ti, N_c, N_lo) of full 3 ns runs at the seed commit
EXPECTED_FULL = {"v2": [356, 1619, 416083], "f2": [438, 588, 264600],
                 "v1_s128": [856, 1006, 65390]}


def main() -> int:
    refs = {}
    for name in harness.WORKLOADS:
        for tend in (harness.TEND, FULL_TEND):
            bench = harness.Bench(harness.workload_config(name, tend),
                                  ROOT / ".bench_out" / "reference" / name)
            wall = bench.rep()
            if bench.problems or bench.failed:
                print(f"{name} to {tend:g} ns failed: {bench.problems}",
                      file=sys.stderr)
                return 1
            out = bench.outputs
            print(f"{name} to {tend:g} ns: N_ti, N_c, N_lo = "
                  f"{out['counters']} in {wall:.2f} s")
            if tend == harness.TEND:
                refs[name] = {"counters": out["counters"],
                              "final": out["profiles"][-1]}
            elif out["counters"] != EXPECTED_FULL[name]:
                print(f"{name}: 3 ns counters differ from "
                      f"{EXPECTED_FULL[name]}", file=sys.stderr)
                return 1
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
