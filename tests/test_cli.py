"""Configuration parsing, the benchmark problem factory, CSV output, and the
command-line entry point."""

import csv
from dataclasses import fields

import numpy as np
import pytest

from trtmg import cli, cycles, phys
from trtmg.cli import (_PARSERS, RunConfig, fc_problem, main, parse_config,
                       write_config, write_outputs)
from trtmg.cycles import (ConvergenceCriteria, ConvRecord, StepRecord,
                          initial_state, make_schedule, run_simulation)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_defaults(self):
        assert parse_config() == RunConfig()
        assert RunConfig().grids == (256, 1)
        assert RunConfig().snapshots == (0.2, 0.4, 0.6, 1.0, 2.0, 3.0)

    def test_flag_overrides(self):
        cfg = parse_config(None, {"cycle": "W", "grids": "64,16,1",
                                  "lmax": "2", "dt": "0.01"})
        assert cfg.cycle == "W"
        assert cfg.grids == (64, 16, 1)
        assert cfg.lmax == 2 and cfg.dt == 0.01

    def test_file_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# benchmark setup\n"
                     "grids = 16,1\n"
                     "\n"
                     "dt = 0.04   # coarse step\n"
                     "snapshots = 0.2,0.4\n")
        cfg = parse_config(p)
        assert cfg.grids == (16, 1) and cfg.dt == 0.04
        assert cfg.snapshots == (0.2, 0.4)

    def test_flags_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("dt = 0.04\ncells = 20\n")
        cfg = parse_config(p, {"dt": "0.02", "cells": None})
        assert cfg.dt == 0.02       # flag wins
        assert cfg.cells == 20      # unset flag falls through to the file

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="wavelength"):
            parse_config(None, {"wavelength": "3"})

    @pytest.mark.parametrize("line", ["deterministic = true",
                                      "n_newton = 1", "problem = fc",
                                      "groups = 16"])
    def test_removed_keys_rejected(self, tmp_path, capsys, line):
        # keys that configured nothing are unknown now, in a file as anywhere
        p = tmp_path / "old.cfg"
        p.write_text(f"grids = 16,1\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=key):
            parse_config(p)
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    def test_bad_value_names_key(self):
        with pytest.raises(ValueError, match="lmax"):
            parse_config(None, {"lmax": "four"})

    def test_malformed_line_names_location(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("grids = 16,1\nnonsense line\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2"):
            parse_config(p)

    def test_repeated_key_names_both_lines(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("dt = 0.02\ngrids = 16,1\n\ndt = 0.04\n")
        with pytest.raises(ValueError,
                           match=r"run\.cfg:4: key 'dt' already set on line 1"):
            parse_config(p)
        assert main(["--config", str(p)]) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config file"):
            parse_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("overrides", [
        {"grids": "256,300,1"},              # grids must decrease
        {"grids": ""},                       # no grids at all
        {"cycle": "Q"},
        {"cycle": "W"},                      # W needs three grids
        {"lmax": "0"},
        {"tend": "-1"},
        {"problem": "marshak2d"},
        {"grids": "2,1"},                    # the fine grid needs 3 groups
        {"eps": "1e-8", "eps_tilde": "1e-6"},
        {"dt": "0.02", "tend": "0.05"},      # tend must be a multiple of dt
        {"tend": "inf"},
        {"max_outer": "0"},
        {"grids": "256,4"},                  # grids must end in the grey grid
    ])
    def test_validation(self, tmp_path, capsys, overrides):
        # main builds the run objects that check these before any output
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n"
                                   for k, v in overrides.items()))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_config_keys_are_runconfig_fields(self):
        assert set(_PARSERS) == {f.name for f in fields(RunConfig)}


class TestWriteConfig:
    def test_round_trip_exact(self, tmp_path):
        cfg = parse_config(None, {"cycle": "custom", "grids": "64,16,4,1",
                                  "visits": "3,2", "lmax": "2",
                                  "dt": "0.019999999999",
                                  "snapshots": "0.2,3.0", "eps": "2e-6"})
        p = tmp_path / "eff.cfg"
        write_config(cfg, p)
        assert parse_config(p) == cfg

    def test_round_trip_normalizes_grids(self, tmp_path):
        p = tmp_path / "eff.cfg"
        write_config(RunConfig(), p)
        cfg = parse_config(p)
        assert cfg.grids == (256, 1)
        assert cfg.grids == RunConfig().grids
        # stable after the first normalization
        write_config(cfg, p)
        assert parse_config(p) == cfg


class TestFcProblem:
    def test_benchmark_wiring(self):
        cfg = RunConfig(grids=(16, 4, 1))
        prob = fc_problem(cfg)
        assert prob.mesh.n_cells == 10
        assert prob.mesh.faces[-1] == 4.0
        assert prob.hierarchy.counts == (16, 4, 1)
        assert prob.material.c_v == pytest.approx(0.5917 * phys.A_RAD)
        assert prob.T_init == 1e-3
        B_b = phys.planck_groups(np.array([1.0]), prob.hierarchy.rule,
                                  prob.hierarchy.edges)[0]
        # B_b/2 enters in each of the 8 mu > 0 directions, nothing at x = X
        assert prob.inc_left.shape == (8, 16)
        assert np.all(prob.inc_left == 0.5 * B_b)
        assert prob.inc_right.shape == (8, 16)
        assert np.all(prob.inc_right == 0.0)
        # the initial closure's inflow source F_in - c C E_in, with the
        # half-range Planckian's F_in = B/2 and c E_in = B, and C = -1/2
        bc_in = initial_state(prob).closures.bc_in
        want = 0.5 * B_b + 0.5 * B_b
        assert np.all(np.abs(bc_in[:, 0] - want) <= 1e-15 * want)
        assert np.all(bc_in[:, 1] == 0.0)

    def test_opacity_model(self):
        cfg = RunConfig(grids=(16, 1))
        prob = fc_problem(cfg)
        nu = np.array([0.5, 2.0])
        got = prob.sigma(nu, np.array([1.0]))
        want = 27.0 * (1.0 - np.exp(-nu / 1.0)) / nu**3
        assert np.allclose(got, want, rtol=1e-15)


@pytest.fixture(scope="module")
def small_run():
    cfg = RunConfig(grids=(16, 1))
    prob = fc_problem(cfg)
    sched = make_schedule("V", (16, 1), 4)
    res = run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 3,
                         snapshot_times=(0.02, 0.04))
    return prob, res


class TestWriteOutputs:
    def test_files_and_headers(self, small_run, tmp_path):
        prob, res = small_run
        write_outputs(res, tmp_path, x=prob.mesh.centers)
        prof = _rows(tmp_path / "profiles.csv")
        assert prof[0] == ["time_ns", "x_cm", "T_keV", "E_total"]
        assert len(prof) == 1 + 2 * prob.mesh.n_cells
        stats = _rows(tmp_path / "stats.csv")
        assert stats[0] == ["step", "t_ns", "M_ti", "M_c", "M_lo"]
        assert len(stats) == 1 + len(res.stats.steps)
        totals = _rows(tmp_path / "totals.csv")
        assert totals[0] == ["cycle", "n_grids", "grids", "l_max",
                             "N_ti", "N_c", "N_lo"]
        assert totals[1] == ["V", "2", "16;1", "4", str(res.stats.n_ti),
                             str(res.stats.n_c), str(res.stats.n_lo)]
        conv = _rows(tmp_path / "conv_hist.csv")
        assert conv[0] == ["step", "s", "l", "dT_inf"]
        assert len(conv) == 1 + len(res.stats.conv)

    def test_values_round_trip(self, small_run, tmp_path):
        # 17 significant digits reproduce the doubles exactly
        prob, res = small_run
        write_outputs(res, tmp_path, x=prob.mesh.centers)
        prof = _rows(tmp_path / "profiles.csv")[1:]
        t0, T0, E0 = res.snapshots[0]
        assert float(prof[0][0]) == t0
        assert float(prof[0][2]) == T0[0]
        assert float(prof[0][3]) == E0[0]
        conv = _rows(tmp_path / "conv_hist.csv")[1:]
        assert float(conv[0][3]) == res.stats.conv[0].dT

    def test_no_snapshots_skips_profiles(self, small_run, tmp_path):
        # the profile rows are skipped, not the file: every run writes
        # every file, so none is left over from an earlier run
        prob, res = small_run
        bare = run_simulation(fc_problem(RunConfig(grids=(16, 1))),
                              make_schedule("V", (16, 1), 4),
                              ConvergenceCriteria(), 2e-2, 1)
        write_outputs(bare, tmp_path, x=prob.mesh.centers)
        assert _rows(tmp_path / "profiles.csv") == [
            ["time_ns", "x_cm", "T_keV", "E_total"]]
        assert (tmp_path / "stats.csv").exists()
        assert (tmp_path / "totals.csv").exists()

    @pytest.mark.parametrize("name,record", [("stats.csv", StepRecord),
                                             ("conv_hist.csv", ConvRecord)])
    def test_one_column_per_record_field(self, small_run, tmp_path, name,
                                         record):
        # a run records only what it writes: each row is its record's
        # fields, in field order
        prob, res = small_run
        write_outputs(res, tmp_path, x=prob.mesh.centers)
        rows = _rows(tmp_path / name)
        records = res.stats.steps if record is StepRecord else res.stats.conv
        assert len(rows[0]) == len(fields(record))
        assert len(rows) == 1 + len(records)
        for row, rec in zip(rows[1:], records):
            assert [float(v) for v in row] == [
                getattr(rec, f.name) for f in fields(record)]


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grids = 16,1\n"
                           "dt = 0.02\n"
                           "tend = 0.06\n"
                           "snapshots = 0.02,0.04\n"
                           f"out = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("V cycle on 16;1 l_max=4: N_ti=")
        for name in ("config.txt", "profiles.csv", "stats.csv", "totals.csv",
                     "conv_hist.csv"):
            assert (tmp_path / "out" / name).exists()
        totals = _rows(tmp_path / "out" / "totals.csv")[1]
        assert f"N_ti={totals[4]} N_c={totals[5]} N_lo={totals[6]}" in out

    def test_builds_each_run_object_once(self, tmp_path, monkeypatch):
        calls = {}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for fn in (cycles.make_schedule, cycles.ConvergenceCriteria,
                   cycles.step_count):
            for module in (cli, cycles):
                monkeypatch.setattr(module, fn.__name__, counted(fn))
        assert main(["--grids", "16,1", "--dt", "0.02", "--tend", "0.04",
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == {"make_schedule": 1, "ConvergenceCriteria": 1,
                         "step_count": 1}

    def test_rerun_replaces_every_file(self, tmp_path):
        # a second run into the same directory leaves no file of the first:
        # without snapshots profiles.csv is written with its header only
        out = tmp_path / "out"
        first = tmp_path / "first.cfg"
        first.write_text("grids = 16,1\nsnapshots = 0.04\ntend = 0.04\n")
        assert main(["--config", str(first), "--out", str(out)]) == 0
        assert len(_rows(out / "profiles.csv")) == 11
        second = tmp_path / "second.cfg"
        second.write_text("grids = 16,1\nsnapshots =\ntend = 0.02\n")
        assert main(["--config", str(second), "--out", str(out)]) == 0
        assert len(_rows(out / "profiles.csv")) == 1
        assert _rows(out / "stats.csv")[-1][1] == "0.02"

    def test_flags_override_config(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grids = 16,1\ndt = 0.02\ntend = 0.06\n")
        assert main(["--config", str(cfgfile), "--tend", "0.02",
                     "--out", str(tmp_path / "o2")]) == 0
        stats = _rows(tmp_path / "o2" / "stats.csv")
        assert len(stats) == 2    # header plus a single step

    def test_config_error_exit(self, tmp_path, capsys):
        assert main(["--cycle", "Q", "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_removed_groups_flag_exit(self, tmp_path, capsys):
        # the fine group count comes from --grids alone
        assert main(["--groups", "16", "--tend", "0.02",
                     "--out", str(tmp_path)]) == 2
        assert "--groups" in capsys.readouterr().err

    def test_missing_flag_value_exit(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--dt"]) == 2
        assert "--dt" in capsys.readouterr().err

    def test_help_exit(self, capsys):
        assert main(["--help"]) == 0
        assert "--grids" in capsys.readouterr().out

    def test_tend_not_multiple_of_dt_exit(self, tmp_path, capsys):
        assert main(["--grids", "16,1", "--dt", "0.02", "--tend", "0.05",
                     "--out", str(tmp_path / "out")]) == 2
        assert "multiple of dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tend,dt", [("inf", "0.02"), ("1e300", "1e-300")])
    def test_endless_run_exit(self, tmp_path, capsys, tend, dt):
        # a run of infinitely many steps is a configuration error, not a
        # traceback
        assert main(["--grids", "16,1", "--dt", dt, "--tend", tend,
                     "--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_infinite_slab_exit(self, tmp_path, capsys):
        # the mesh names the key before it builds any faces
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grids = 16,1\nlength = inf\n")
        assert main(["--config", str(cfgfile),
                     "--out", str(tmp_path / "out")]) == 2
        assert "length must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [("cells = 0", "n_cells"),
                                          ("quad = 0", "direction")])
    def test_empty_mesh_or_quadrature_exit(self, tmp_path, capsys, line, key):
        # fc_problem builds both before any solve or output
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"grids = 16,1\n{line}\n")
        assert main(["--config", str(cfgfile),
                     "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_visits_need_custom_cycle(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("cycle = W\ngrids = 16,4,1\n"
                           "visits = 2\n")
        assert main(["--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        assert "visit list" in capsys.readouterr().err

    def test_convergence_error_exit(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grids = 16,1\nmax_outer = 1\n"
                           "dt = 0.02\ntend = 0.02\n"
                           f"out = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfgfile)]) == 3
        assert "convergence failure" in capsys.readouterr().err

    def test_io_error_exit(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["--grids", "16,1", "--dt", "0.02", "--tend", "0.02",
                     "--out", str(blocker / "sub")]) == 4
        assert "i/o error" in capsys.readouterr().err
