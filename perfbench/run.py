"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload v2 --seed 0 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
last line of standard output is the result as one JSON object; the line
before it stamps the environment.  The solver is imported from ./src only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def environment(seed: int) -> dict:
    import numpy
    commit = "unknown"
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trtmg" / "__init__.py").is_file():
        print(f"no solver source at {ROOT / 'src' / 'trtmg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import trtmg
    if (ROOT / "src") not in Path(trtmg.__file__).resolve().parents:
        print(f"imported trtmg from {trtmg.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    bench = harness.Bench(harness.workload_config(args.workload),
                          ROOT / ".bench_out" / args.workload,
                          reference[args.workload])
    result = bench.traced(args.seconds) if args.trace else \
        bench.end_to_end(args.seconds)
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("samples " + json.dumps({"reps": bench.reps,
                                   "setup_passes": bench.setup_passes,
                                   "steps": bench.attempted}))
    print("env " + json.dumps(environment(args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
