"""Byte-identity gate: do this checkout's sources write the same output files
as the sources of git revision REV?

    python tools/same_outputs.py [REV]        # REV defaults to HEAD

Extracts `src` of REV with `git archive` into a temporary directory, then
runs each case below with both source trees through the command-line driver:
the three perfbench workloads at 0.6 ns (configs from
perfbench/harness.py), the V2, V4, W2 and F2 benchmark runs at 3 ns,
V4096, V on 4096;1 to 0.2 ns, where nearly every group is narrow, C2, a
custom visit order (3,2,3 on 256;32;8;1) to 0.6 ns, and Q1, V on 64;1 with
one direction per half range to 0.2 ns, so the sweep's one-direction blocks
are checked beside the 8- and 64-direction ones.  Compares every file the
driver writes, 50 in all, byte for byte (profiles.csv,
stats.csv, totals.csv, conv_hist.csv, and config.txt less its `out = ` line,
which names each side's own directory), prints one line per file, and exits
1 if any file differs or is missing (2 if REV is not a revision).  A
differing profiles.csv is sized by its largest relative T and E_total change
(each snapshot against its own maximum, as perfbench checks profiles); a
differing totals.csv shows both counter triples N_ti/N_c/N_lo, a differing
stats.csv the first step whose M_ti/M_c/M_lo triple moved, and a differing
conv_hist.csv the first row whose (step, s, l) moved or else its largest
dT_inf change against the file's maximum.  After the per-file lines, one
line gives the largest relative profile change over all cases with its case
and field (e.g. "largest profile change: 2.2e-12 (V4, T)"), the one number
that sizes a round-off change, or says none; inf with the field "snapshots"
stands for a profiles.csv whose snapshot times or cell counts differ.  The
last line names the cases whose counter triple moved, or says none.
Everything is written under the temporary directory.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import harness  # noqa: E402
import numpy as np  # noqa: E402

FILES = ("profiles.csv", "stats.csv", "totals.csv", "conv_hist.csv",
         "config.txt")
FULL = {
    "V2": {"cycle": "V", "grids": "256,1", "lmax": 4, "dt": 0.02, "tend": 3.0},
    "V4": {"cycle": "V", "grids": "256,1", "lmax": 6, "dt": 0.04, "tend": 3.0},
    "W2": {"cycle": "W", "grids": "256,32,1", "lmax": 2, "dt": 0.02,
           "tend": 3.0},
    "F2": {"cycle": "F", "grids": "256,128,32,16,8,4,1", "lmax": 1,
           "dt": 0.02, "tend": 3.0},
    "V4096": {"cycle": "V", "grids": "4096,1", "lmax": 4, "dt": 0.02,
              "tend": 0.2},
    "C2": {"cycle": "custom", "grids": "256,32,8,1", "visits": "3,2,3",
           "lmax": 2, "dt": 0.02, "tend": 0.6},
    "Q1": {"cycle": "V", "grids": "64,1", "quad": 1, "lmax": 4, "dt": 0.02,
           "tend": 0.2},
}
CASES = {**{name: harness.workload_config(name) for name in harness.WORKLOADS},
         **FULL}
RUN = "import sys; from trtmg.cli import main; sys.exit(main(sys.argv[1:]))"


def extract_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                         cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def start(src: Path, config: dict, out: Path) -> subprocess.Popen:
    out.mkdir(parents=True)
    cfg = out / "config.in"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items())
                   + f"out = {out}\n")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-c", RUN, "--config", str(cfg)],
                            env=env, stdout=subprocess.DEVNULL)


def contents(path: Path) -> bytes:
    """The bytes the gate compares: config.txt drops its out = line."""
    data = path.read_bytes()
    if path.name == "config.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"out = "))
    return data


def totals(data: bytes) -> str:
    row = data.decode().splitlines()[1].split(",")
    return "/".join(row[4:7])


def _snapshots(data: bytes) -> dict:
    snaps = {}
    for row in csv.DictReader(io.StringIO(data.decode())):
        T, E = snaps.setdefault(row["time_ns"], ([], []))
        T.append(float(row["T_keV"]))
        E.append(float(row["E_total"]))
    return snaps


def _rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode())))[1:]


def _first_move(old: bytes, new: bytes, cols: slice):
    """(index, old, new) of the first row whose columns cols differ, with
    "end" past the shorter file, or None if no row's do."""
    keys = (["/".join(r[cols]) for r in _rows(data)] for data in (old, new))
    for i, (a, b) in enumerate(zip_longest(*keys, fillvalue="end")):
        if a != b:
            return i, a, b
    return None


def change(name: str, old: bytes, new: bytes) -> str:
    """How far a differing output file moved from old to new."""
    if name == "totals.csv":
        return f"{totals(old)} -> {totals(new)}"
    if name == "stats.csv":
        move = _first_move(old, new, slice(2, 5))
        if move is None:
            return "per-step counters same"
        return "step {} M_ti/M_c/M_lo {} -> {}".format(move[0] + 1, *move[1:])
    if name == "conv_hist.csv":
        move = _first_move(old, new, slice(0, 3))
        if move is not None:
            return "row {} step/s/l {} -> {}".format(move[0] + 1, *move[1:])
        a, b = (np.array([float(r[3]) for r in _rows(data)])
                for data in (old, new))
        err = np.max(np.abs(b - a)) / np.max(np.abs(a))
        return f"max relative change dT_inf {err:.1e}"
    if name != "profiles.csv":
        return ""
    err = profile_change(old, new)
    if err is None:
        return "snapshot times or cell counts differ"
    return "max relative change T {T:.1e}, E_total {E_total:.1e}".format(**err)


def profile_change(old: bytes, new: bytes):
    """The largest relative T and E_total change of a profiles.csv, each
    snapshot against its own maximum, as {field: change}; None if the
    snapshot times or cell counts differ."""
    a, b = _snapshots(old), _snapshots(new)
    if a.keys() != b.keys() or any(len(a[t][0]) != len(b[t][0]) for t in a):
        return None
    return {field: max(np.max(np.abs(np.subtract(b[t][k], a[t][k])))
                       / np.max(np.abs(a[t][k])) for t in a)
            for k, field in enumerate(("T", "E_total"))}


def main(argv) -> int:
    if len(argv) > 1:
        print("usage: same_outputs.py [REV]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    differ = 0
    moved = []  # cases whose totals.csv counter triple differs
    largest = []  # (change, case, field) of each differing profiles.csv
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            trees = {"rev": extract_src(rev, tmp / "rev"), "here": ROOT / "src"}
        except subprocess.CalledProcessError as e:
            print(e.stderr.decode().strip(), file=sys.stderr)
            return 2
        for case, config in CASES.items():
            runs = {side: start(src, config, tmp / case / side)
                    for side, src in trees.items()}
            codes = {side: p.wait() for side, p in runs.items()}
            for name in FILES:
                a, b = (tmp / case / side / name for side in trees)
                if not (a.exists() and b.exists()):
                    status, note = "MISSING", f"exit codes {codes}"
                elif (old := contents(a)) != (new := contents(b)):
                    status, note = "DIFFERS", change(name, old, new)
                    if name == "totals.csv" and totals(old) != totals(new):
                        moved.append(case)
                    if name == "profiles.csv":
                        err = (profile_change(old, new)
                               or {"snapshots": float("inf")})
                        largest += [(e, case, f) for f, e in err.items()]
                else:
                    status = "same"
                    note = totals(old) if name == "totals.csv" else ""
                differ += status != "same"
                print(f"{status:8} {case:8} {name:14} {note}".rstrip(),
                      flush=True)
    if largest:
        print("largest profile change: {:.1e} ({}, {})".format(*max(largest)))
    else:
        print("largest profile change: none")
    print(f"{differ} of {len(CASES) * len(FILES)} files differ from {rev}")
    print(f"counter triples moved: {', '.join(moved) or 'none'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
