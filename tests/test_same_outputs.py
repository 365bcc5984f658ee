"""The byte-identity gate's sizing of differing output files."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"

PROFILES = ("time_ns,x_cm,T_keV,E_total\n"
            "0.5,0.25,{},1.0\n0.5,0.75,0.5,{}\n"
            "1,0.25,2.0,4.0\n1,0.75,1.0,2.0\n")
TOTALS = "cycle,n_grids,grids,l_max,N_ti,N_c,N_lo\nV,2,16;1,4,{},20,340\n"
STATS = "step,t_ns,M_ti,M_c,M_lo\n1,0.02,3,{},40\n2,0.04,3,{},40\n"
CONV = "step,s,l,dT_inf\n1,0,1,{}\n1,0,0,0.5\n{},1,1,0.25\n"


@pytest.fixture
def tool(monkeypatch):
    # the tool sets sys.dont_write_bytecode and sys.path on import
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profile_change_is_relative_to_each_snapshot_maximum(tool):
    old = PROFILES.format(1.0, 1.0).encode()
    new = PROFILES.format(1.25, 1.5).encode()
    # T moves 0.25 against a snapshot maximum of 1.0; E_total 0.5 against 1.0
    assert tool.change("profiles.csv", old, new) \
        == "max relative change T 2.5e-01, E_total 5.0e-01"
    assert tool.change("profiles.csv", old, old) \
        == "max relative change T 0.0e+00, E_total 0.0e+00"
    shorter = "\n".join(PROFILES.splitlines()[:-1]).format(1.0, 1.0).encode()
    assert tool.change("profiles.csv", old, shorter) \
        == "snapshot times or cell counts differ"


def test_totals_change_shows_both_counter_triples(tool):
    old, new = TOTALS.format(10).encode(), TOTALS.format(11).encode()
    assert tool.change("totals.csv", old, new) == "10/20/340 -> 11/20/340"
    assert tool.change("config.txt", old, new) == ""


def test_stats_change_names_first_step_whose_counters_moved(tool):
    old = STATS.format(5, 5).encode()
    assert tool.change("stats.csv", old, STATS.format(5, 6).encode()) \
        == "step 2 M_ti/M_c/M_lo 3/5/40 -> 3/6/40"
    shorter = b"".join(old.splitlines(keepends=True)[:-1])
    assert tool.change("stats.csv", old, shorter) \
        == "step 2 M_ti/M_c/M_lo 3/5/40 -> end"
    # a time column written differently moves no counter
    assert tool.change("stats.csv", old, old.replace(b"0.04", b"0.040001")) \
        == "per-step counters same"


def test_conv_hist_change_names_first_moved_row_or_dT_change(tool):
    old = CONV.format(2.0, 1).encode()
    assert tool.change("conv_hist.csv", old, CONV.format(2.0, 2).encode()) \
        == "row 3 step/s/l 1/1/1 -> 2/1/1"
    # same rows: dT_inf moves 0.5 against the file's maximum of 2.0
    assert tool.change("conv_hist.csv", old, CONV.format(2.5, 1).encode()) \
        == "max relative change dT_inf 2.5e-01"


def test_config_compared_without_its_out_line(tool, tmp_path):
    # each side writes its own directory into config.txt
    text = ("# effective run configuration\n"
            "dt = 0.02\nout = {}\nsnapshots = 0.2\n")
    a, b = tmp_path / "a" / "config.txt", tmp_path / "b" / "config.txt"
    for path in (a, b):
        path.parent.mkdir()
        path.write_text(text.format(path.parent))
    assert a.read_bytes() != b.read_bytes()
    assert tool.contents(a) == tool.contents(b) \
        == b"# effective run configuration\ndt = 0.02\nsnapshots = 0.2\n"
    b.write_text(text.replace("0.02", "0.04").format(b.parent))
    assert tool.contents(a) != tool.contents(b)
    # a CSV file is compared whole
    csv = tmp_path / "a" / "stats.csv"
    csv.write_bytes(b"step,t_ns\nout = x\n")
    assert tool.contents(csv) == b"step,t_ns\nout = x\n"


class _Done:
    """Stands in for a finished solver run."""

    def wait(self):
        return 0


def test_last_line_names_cases_whose_counters_moved(tool, monkeypatch,
                                                    tmp_path, capsys):
    # two cases, each side writing every file; case B's triple moves on
    # one side, case A's profiles only
    def start(src, config, out):
        out.mkdir(parents=True)
        here = src == tool.ROOT / "src"
        moved = here and config["name"] == "B"
        for name in tool.FILES:
            text = {"totals.csv": TOTALS.format(11 if moved else 10),
                    "profiles.csv": PROFILES.format(
                        1.5 if here and config["name"] == "A" else 1.0, 1.0)
                    }.get(name, "same\n")
            (out / name).write_text(text)
        return _Done()

    monkeypatch.setattr(tool, "extract_src", lambda rev, dest: dest)
    monkeypatch.setattr(tool, "start", start)
    monkeypatch.setattr(tool, "CASES", {"A": {"name": "A"},
                                        "B": {"name": "B"}})
    assert tool.main(["HEAD"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the summary follows the per-file lines: A's T moves 0.5 against its
    # snapshot maximum of 1.0
    assert lines[-3:] == ["largest profile change: 5.0e-01 (A, T)",
                          "2 of 10 files differ from HEAD",
                          "counter triples moved: B"]
    monkeypatch.setattr(tool, "CASES", {"A": {"name": "A"}})
    assert tool.main(["HEAD"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] \
        == "counter triples moved: none"
    monkeypatch.setattr(tool, "CASES", {"B": {"name": "B"}})
    assert tool.main(["HEAD"]) == 1
    assert capsys.readouterr().out.splitlines()[-3] \
        == "largest profile change: none"


def test_largest_profile_change_over_cases_and_fields(tool):
    old = PROFILES.format(1.0, 1.0).encode()
    assert tool.profile_change(old, PROFILES.format(1.25, 1.5).encode()) \
        == {"T": 0.25, "E_total": 0.5}
    shorter = "\n".join(PROFILES.splitlines()[:-1]).format(1.0, 1.0).encode()
    assert tool.profile_change(old, shorter) is None
