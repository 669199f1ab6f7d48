import contextlib
import functools
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import clockspin
from clockspin import analysis, bath, config, dynamics, validate
from clockspin.bath import BathSpec
from clockspin.cli import main
from clockspin.config import RunConfig, apply_preset, parse_config_text
from clockspin.dynamics import SequenceConfig
from clockspin.errors import ClockspinError, FitError
from clockspin.hamiltonian import ModelParams

N2_CONFIG = """
# small deterministic configuration for CLI tests
bath_N = 2
n_realizations = 2
seed = 42
tau_step_us = 0.2
tau_max_us = 10
"""


@pytest.fixture
def n2_config(tmp_path):
    path = tmp_path / "n2.cfg"
    path.write_text(N2_CONFIG)
    return path


class TestConfigParsing:
    def test_defaults_match_headline_run(self):
        cfg = RunConfig()
        assert cfg.bath.n_nuclei == 7
        assert cfg.bath.a_mean == 8e6
        assert cfg.bath.a_halfwidth == 1e6
        assert cfg.bath.psc_ratio == 0.5
        assert cfg.bath.d_pair == 10e3
        assert cfg.bath.n_realizations == 10
        assert cfg.sequence.tau_step == pytest.approx(100e-9)
        assert cfg.sequence.tau_max == pytest.approx(100e-6)
        assert cfg.sequence.temperature == 5.0

    def test_parse_overrides(self):
        cfg = parse_config_text("D_GHz = -40\nbath_N = 3\nout_dir = xyz\n")
        assert cfg.model.D == -40e9
        assert cfg.bath.n_nuclei == 3
        assert cfg.out_dir == "xyz"

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("\n# comment\nseed = 7   # trailing\n")
        assert cfg.bath.seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("coupling_flavor = strong\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="KEY = VALUE"):
            parse_config_text("what even is this\n")

    def test_n1_preset(self):
        cfg = apply_preset(RunConfig(), "n1")
        assert cfg.bath.n_nuclei == 1
        assert cfg.bath.a_mean == 1e6
        assert cfg.bath.a_halfwidth == 0.0
        assert cfg.sequence.tau_step == pytest.approx(25e-9)

    def test_grid_construction(self):
        cfg = parse_config_text(
            "detuning_start_mT = -2\ndetuning_stop_mT = 2\ndetuning_step_mT = 1\n"
        )
        assert np.allclose(cfg.detuning_grid_mt(), [-2, -1, 0, 1, 2])

    def test_describe_is_shortest_text_in_key_units(self):
        text = RunConfig().describe()
        assert text["tau_step_us"] == "0.1"
        assert text["D_GHz"] == "-45" and text["B_min_mT"] == "23.5"
        assert set(text) == set(config._KEYS) - {"jobs"}             # None: not written

    @settings(deadline=None)
    @given(st.data())
    def test_describe_text_parses_back_bit_for_bit(self, data):
        cfg = data.draw(_valid_run_configs())
        text = "".join(f"{k} = {v}\n" for k, v in cfg.describe().items())
        back = parse_config_text(text)
        assert back == cfg
        assert repr(back) == repr(cfg)      # repr tells every double apart, -0.0 from 0.0


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _valid_run_configs(draw):
    """A RunConfig of arbitrary valid values in SI units, as code builds it."""
    def build(cls, **values):
        try:
            return cls(**values)
        except ValueError:
            reject()

    tau_step = draw(st.floats(min_value=5e-324, max_value=1e300))
    return RunConfig(
        model=build(ModelParams, D=draw(_FLOATS), E=draw(_FLOATS), gamma_e=draw(_FLOATS),
                    B_min=draw(_FLOATS), gamma_H=draw(_POSITIVE)),
        bath=build(BathSpec, n_nuclei=draw(st.integers(1, 12)), a_mean=draw(_FLOATS),
                   a_halfwidth=draw(_FLOATS.map(abs)), psc_ratio=draw(_FLOATS.map(abs)),
                   d_pair=draw(_FLOATS), n_realizations=draw(st.integers(min_value=1)),
                   seed=draw(st.integers(0, 2**64 - 1))),
        sequence=build(SequenceConfig, tau_step=tau_step,
                       tau_max=tau_step * draw(st.integers(1, config._MAX_GRID_POINTS)),
                       temperature=draw(_POSITIVE)),
        **{f"{grid}_{end}_mt": draw(_FLOATS)
           for grid in ("detuning", "zeeman") for end in ("start", "stop", "step")},
        detuning_mt=draw(_FLOATS),
        out_dir=draw(st.from_regex(r"[\w./-]+( [\w./-]+)*", fullmatch=True)),
        jobs=draw(st.none() | st.integers(min_value=1)),
    )


class TestZeemanCommand:
    def test_default_range_has_ct_minimum(self, tmp_path):
        out = tmp_path / "z"
        rc = main(["zeeman", "--out", str(out)])
        assert rc == 0
        rows = (out / "electron_spectrum.csv").read_text().strip().splitlines()
        header, data = rows[0], rows[1:]
        assert header.split(",")[0] == "B0_T"
        b0 = np.array([float(r.split(",")[0]) for r in data])
        f = np.array([float(r.split(",")[4]) for r in data])
        geff = np.array([float(r.split(",")[5]) for r in data])
        assert b0[0] == pytest.approx(-0.1) and b0[-1] == pytest.approx(0.35)
        imin = np.argmin(f)
        assert b0[imin] == pytest.approx(23.5e-3)
        assert f[imin] == pytest.approx(9.0e9, rel=1e-9)
        # gamma_eff crosses zero at B_min
        assert geff[imin - 1] < 0 < geff[imin + 1]
        keys = json.loads((out / "manifest.json").read_text())["config"]
        assert (keys["zeeman_start_mT"], keys["zeeman_stop_mT"], keys["zeeman_step_mT"]) == \
            ("-100", "350", "0.5")

    def test_empty_range_usage_error(self, tmp_path, capsys):
        rc = main(["zeeman", "--out", str(tmp_path / "z"),
                   "--start-mT", "10", "--stop-mT", "0", "--step-mT", "1"])
        assert rc == 1

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["zeeman", "--frequency", "9"])
        assert exc.value.code == 1


class TestInputContract:
    @pytest.mark.parametrize("line", [
        "tau_step_us = 0",
        "A_mean_MHz = inf",
        "psc_ratio = -1",
        "peak_threshold = 2",
        "jobs = 0",
        "jobs = -3",
        "D_GHz = inf",
        "E_GHz = nan",
        "gamma_e_GHz_per_T = inf",
        "B_min_mT = inf",
        "gamma_H_MHz_per_T = nan",
        "tau_step_us = 1e-6",       # 1e8 tau points, over the limit of one million
        "tau_max_us = 0.01",        # no tau point at the n1 step of 0.025 us
        "temperature_K = nan",
        "temperature_K = inf",
        "temperature_K = 1e-323",   # k_B T underflows to 0: h / (k_B T) is not finite
        "tau_step_us = abc",
        "D_GHz = 1e999999",         # overflows the decimal shift to Hz
        "bath_N = 1.5",
        "bath_N = 11",              # above the largest bath built, 10
        "seed = -1",
        "seed = 18446744073709551616",
        "n_realizations = 0",
        "fit_model = cubic",
        "spectrum_mode = fourier",
        "angle_mode = uniform-theta",
        "phi_half_rad = 1.5707963267948966",    # the pulse angles are calibrated, not set
        "phi_pi_rad = 3.141592653589793",
    ])
    def test_invalid_value_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "bad"
        rc = main(["echo", "--preset", "n1", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("clockspin: usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["echo", "sweep"])
    @pytest.mark.parametrize("tau_max_us", [
        "1",        # 10 tau points
        "3",        # 30 tau points, 4 to 12 once smoothed over one proton period
    ])
    def test_tau_grid_too_short_to_fit_is_usage_error(self, tmp_path, capsys, command,
                                                      tau_max_us):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(N2_CONFIG + f"tau_step_us = 0.1\ntau_max_us = {tau_max_us}\n")
        out = tmp_path / "short"
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("clockspin: usage error: the tau grid leaves ")
        assert err[0].endswith(f"fewer than {analysis.MIN_FIT_POINTS}")
        assert not out.exists()

    def test_unreadable_config_is_io_failure(self, tmp_path, capsys):
        out = tmp_path / "bad"
        rc = main(["echo", "--config", str(tmp_path), "--out", str(out)])     # a directory
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("clockspin: I/O failure: ")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_flag_below_one_is_usage_error(self, tmp_path, capsys, n2_config, jobs):
        out = tmp_path / "bad"
        rc = main(["sweep", "--config", str(n2_config), "--out", str(out), "--jobs", jobs])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["clockspin: usage error: jobs must be at least 1"]
        assert not out.exists()

    def test_seed_flag_out_of_range_is_usage_error(self, tmp_path, capsys, n2_config):
        out = tmp_path / "bad"
        rc = main(["sweep", "--config", str(n2_config), "--out", str(out), "--seed", "-1"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["clockspin: usage error: seed must lie in [0, 2**64)"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--stop-mT", "inf"],
        ["sweep", "--step-mT", "inf"],
        ["sweep", "--step-mT", "nan"],
        ["zeeman", "--start-mT=-inf"],
        ["echo", "--detuning-mT", "inf"],
        ["echo", "--detuning-mT", "nan"],
        # finite bounds and step, but (stop - start) / step overflows
        ["zeeman", "--start-mT=-1e308", "--stop-mT", "1e308"],
        ["sweep", "--start-mT", "0", "--stop-mT", "1e300", "--step-mT", "1e-300"],
    ], ids=" ".join)
    def test_non_finite_field_is_usage_error(self, tmp_path, capsys, n2_config, argv):
        out = tmp_path / "bad"
        rc = main(argv + ["--config", str(n2_config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("clockspin: usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["zeeman", "--start-mT", "0", "--stop-mT", "1e6", "--step-mT", "1"],
        ["sweep", "--start-mT=-5e5", "--stop-mT", "5e5", "--step-mT", "1"],
    ], ids=" ".join)
    def test_grid_above_point_limit_is_usage_error(self, tmp_path, capsys, n2_config, argv):
        # one point over the limit: refused before the grid, or any trace, exists
        out = tmp_path / "bad"
        rc = main(argv + ["--config", str(n2_config), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"clockspin: usage error: {argv[0].replace('sweep', 'detuning')} "
                       f"range has 1000001 points, more than {config._MAX_GRID_POINTS}"]
        assert not out.exists()

    @pytest.mark.parametrize("out_dir", ["runs/a#b", " runs", "runs "])
    def test_out_dir_that_no_config_file_holds_is_usage_error(self, tmp_path, capsys,
                                                              monkeypatch, n2_config, out_dir):
        # The manifest's config block must parse back to the run, but in a
        # config file '#' starts a comment and the blanks around a value go.
        monkeypatch.chdir(tmp_path)
        rc = main(["echo", "--config", str(n2_config), "--out", out_dir])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("clockspin: usage error: out_dir: ")
        assert list(tmp_path.iterdir()) == [n2_config]

    @pytest.mark.parametrize("argv, extra, message", [
        # rounded, these would sweep 0, 0.5, 1.0 and 1.5 mT, stop at 0.9 mT,
        # and evolve to tau = 10.2 us
        (["sweep", "--start-mT", "0", "--stop-mT", "1.3", "--step-mT", "0.5"], "",
         "detuning range is 2.6 steps, not a whole number"),
        (["zeeman", "--start-mT", "0", "--stop-mT", "1", "--step-mT", "0.3"], "",
         "zeeman range is 3.333333333 steps, not a whole number"),
        (["echo"], "tau_step_us = 0.6\n", "tau_max is 16.66666667 steps, not a whole number"),
    ], ids=["detuning", "zeeman", "tau"])
    def test_range_of_no_whole_number_of_steps_is_usage_error(self, tmp_path, capsys, argv,
                                                              extra, message):
        cfg = tmp_path / "n2.cfg"
        cfg.write_text(N2_CONFIG + extra)
        out = tmp_path / "bad"
        rc = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"clockspin: usage error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, upper", [
        pytest.param(argv, upper, id=" ".join(argv)) for argv, upper in [
            (["sweep", "--start-mT", "0", "--stop-mT", "700", "--step-mT", "350"], "34.2062"),
            (["echo", "--detuning-mT", "700"], "34.2062"),
            (["echo", "--detuning-mT", "639.7"], "30.0045"),
        ]])
    def test_unreachable_field_is_numerical_failure_before_the_run(self, tmp_path, capsys,
                                                                   n2_config, argv, upper):
        # past 639.63 mT an m_S = 0 level is among the two lowest states, which
        # no pulse drives; refused before any trace runs
        out = tmp_path / "bad"
        rc = main(argv + ["--config", str(n2_config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "clockspin: numerical failure: the m_S = 0 level (30 GHz) is not above the +-1 "
            f"doublet's upper level ({upper} GHz), so no pulse drives the two lowest states"]
        assert not out.exists()

    def test_grid_at_point_limit_is_built(self):
        cfg = RunConfig(zeeman_start_mt=0.0, zeeman_stop_mt=999_999.0, zeeman_step_mt=1.0)
        assert cfg.zeeman_grid_mt().size == config._MAX_GRID_POINTS == 1_000_000


class TestEchoCommand:
    def test_proton_period_too_long_for_an_int_runs_unsmoothed(self, tmp_path, capsys):
        # gamma_H = 1e-310 MHz/T gives a proton period of inf tau steps, which
        # once raised OverflowError; it runs as 1e-300 does, with no smoothing
        outs = []
        for gamma_h in ("1e-300", "1e-310"):
            cfg = tmp_path / f"{gamma_h}.cfg"
            cfg.write_text(f"gamma_H_MHz_per_T = {gamma_h}\ntau_max_us = 10\n")
            outs.append(tmp_path / gamma_h)
            rc = main(["echo", "--preset", "n1", "--config", str(cfg), "--out", str(outs[-1])])
            assert rc == 0
            assert capsys.readouterr().err == ""
        for name in ("trace.csv", "fit.json", "spectrum.csv", "peaks.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_n0_constant_trace_no_peaks(self, tmp_path):
        cfg = tmp_path / "n0.cfg"
        # psc_ratio 0 and zero couplings: bath_N must be >= 1, use A = 0
        cfg.write_text("bath_N = 1\nA_mean_MHz = 0\nA_halfwidth_MHz = 0\n"
                       "n_realizations = 1\ntau_step_us = 0.2\ntau_max_us = 10\n")
        out = tmp_path / "echo0"
        rc = main(["echo", "--config", str(cfg), "--out", str(out), "--detuning-mT", "2"])
        assert rc == 0
        trace = (out / "trace.csv").read_text().strip().splitlines()[1:]
        vals = np.array([float(r.split(",")[1]) for r in trace])
        assert vals.max() - vals.min() < 1e-10 * abs(vals.mean())
        peaks = (out / "peaks.csv").read_text().strip().splitlines()
        assert len(peaks) == 1  # header only
        fit = json.loads((out / "fit.json").read_text())
        assert fit["no_decay"] is True

    def test_deterministic_outputs(self, tmp_path, n2_config):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["echo", "--config", str(n2_config), "--out", str(out),
                       "--detuning-mT", "1.5"])
            assert rc == 0
            outs.append(out)
        for fname in ("trace.csv", "spectrum.csv", "peaks.csv", "fit.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_trace_matches_one_field_sweep(self, tmp_path, n2_config):
        echo_out, sweep_out = tmp_path / "e", tmp_path / "s"
        assert main(["echo", "--config", str(n2_config), "--out", str(echo_out),
                     "--detuning-mT", "1", "--jobs", "2"]) == 0
        assert main(["sweep", "--config", str(n2_config), "--out", str(sweep_out),
                     "--start-mT", "1", "--stop-mT", "1", "--step-mT", "1"]) == 0
        for echo_name, sweep_name in (("trace.csv", "trace_+001.000mT.csv"),
                                      ("trace.json", "trace_+001.000mT.json"),
                                      ("spectrum.csv", "spectrum_+001.000mT.csv")):
            assert (echo_out / echo_name).read_bytes() == \
                (sweep_out / sweep_name).read_bytes(), echo_name

    def test_echo_forks_one_pool_of_two(self, tmp_path, n2_config, monkeypatch):
        # one field on two workers: one job per realization
        pools = []
        worker_pool = dynamics._worker_pool
        monkeypatch.setattr(dynamics, "_worker_pool",
                            lambda workers: pools.append(workers) or worker_pool(workers))
        out = tmp_path / "e"
        assert main(["echo", "--config", str(n2_config), "--out", str(out),
                     "--detuning-mT", "1", "--jobs", "2"]) == 0
        assert pools == [2]
        assert json.loads((out / "manifest.json").read_text())["config"]["jobs"] == "2"

    def test_manifest_written_before_results(self, tmp_path, n2_config):
        out = tmp_path / "m"
        rc = main(["echo", "--config", str(n2_config), "--out", str(out),
                   "--detuning-mT", "0"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["software"] == "clockspin"
        assert manifest["config"]["bath_N"] == "2"
        assert manifest["config"]["seed"] == "42"

    def test_manifest_config_reruns_the_echo(self, tmp_path, n2_config):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["echo", "--config", str(n2_config), "--out", str(first),
                     "--detuning-mT", "1.5", "--jobs", "2"]) == 0
        keys = json.loads((first / "manifest.json").read_text())["config"]
        rebuilt = tmp_path / "rebuilt.cfg"
        rebuilt.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main(["echo", "--config", str(rebuilt), "--out", str(again)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (first / name).read_bytes() == (again / name).read_bytes(), name
        rerun = json.loads((again / "manifest.json").read_text())["config"]
        assert rerun == {**keys, "out_dir": str(again)}

    def test_manifest_records_detuning_flag(self, tmp_path, n2_config):
        out = tmp_path / "d"
        assert main(["echo", "--config", str(n2_config), "--out", str(out),
                     "--detuning-mT", "20"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["detuning_mT"] == 20.0
        assert manifest["config"]["detuning_mT"] == "20"


class TestSweepCommand:
    def test_outputs_and_parallel_determinism(self, tmp_path, n2_config):
        args = ["sweep", "--config", str(n2_config),
                "--start-mT", "-1", "--stop-mT", "1", "--step-mT", "1"]
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert main(args + ["--out", str(out1), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert "peak_map.csv" in names and "tm_vs_detuning.csv" in names
        assert sum(n.startswith("trace_") and n.endswith(".csv") for n in names) == 3
        for name in names:
            if name.endswith(".csv"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_default_jobs_matches_serial_bytes(self, tmp_path, n2_config):
        args = ["sweep", "--config", str(n2_config),
                "--start-mT", "-1", "--stop-mT", "1", "--step-mT", "1"]
        default, serial = tmp_path / "default", tmp_path / "serial"
        assert main(args + ["--out", str(default)]) == 0
        assert main(args + ["--out", str(serial), "--jobs", "1"]) == 0
        names = sorted(p.name for p in default.iterdir())
        assert names == sorted(p.name for p in serial.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (default / name).read_bytes() == (serial / name).read_bytes(), name
        # the manifests record the resolved worker count: 3 fields x 2 realizations
        manifest = json.loads((default / "manifest.json").read_text())
        assert manifest["config"]["jobs"] == str(dynamics.worker_count(None, 6))
        assert json.loads((serial / "manifest.json").read_text())["config"]["jobs"] == "1"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_per_realization_jobs_keep_bytes(self, tmp_path, n2_config, monkeypatch, jobs):
        args = ["sweep", "--config", str(n2_config), "--jobs", jobs,
                "--start-mT", "-1", "--stop-mT", "1", "--step-mT", "1"]
        whole, split = tmp_path / "whole", tmp_path / "split"
        assert main(args + ["--out", str(whole)]) == 0
        monkeypatch.setattr(dynamics, "_FIELD_JOB_WORK", 0)     # one job per realization
        assert main(args + ["--out", str(split)]) == 0
        names = sorted(p.name for p in whole.iterdir())
        assert names == sorted(p.name for p in split.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (whole / name).read_bytes() == (split / name).read_bytes(), name

    def test_sweep_forks_one_pool(self, tmp_path, n2_config, monkeypatch):
        pools = []
        worker_pool = dynamics._worker_pool
        monkeypatch.setattr(dynamics, "_worker_pool",
                            lambda workers: pools.append(workers) or worker_pool(workers))
        assert main(["sweep", "--config", str(n2_config), "--out", str(tmp_path / "p"),
                     "--jobs", "2", "--start-mT", "-1", "--stop-mT", "1", "--step-mT", "1"]) == 0
        assert pools == [2]

    def test_field_job_carries_only_its_own_field(self, tmp_path, n2_config, monkeypatch):
        # a whole-field job pickles its own finish, not every field's file names
        sizes = []

        @contextlib.contextmanager
        def measure(fn, args, workers):
            sizes.append(len(pickle.dumps(args[0])))
            raise ClockspinError("measured")
            yield

        monkeypatch.setattr(dynamics, "_pinned_map", measure)
        for name, n in (("a", 2), ("b", 50)):
            main(["sweep", "--config", str(n2_config), "--out", str(tmp_path / name),
                  "--jobs", "1", "--start-mT", "0", "--stop-mT", f"{(n - 1) * 0.01:.2f}",
                  "--step-mT", "0.01"])
        assert len(sizes) == 2 and sizes[1] < sizes[0] + 64

    def test_sidecar_lists_members_only_in_ensemble(self, tmp_path, n2_config):
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(n2_config), "--out", str(out),
                     "--start-mT", "2", "--stop-mT", "2", "--step-mT", "1"]) == 0
        meta = json.loads((out / "trace_+002.000mT.json").read_text())
        assert "bath_index" not in meta and "a_sc_hz" not in meta
        assert sorted(m["index"] for m in meta["ensemble"]) == [0, 1]
        assert all(m["seed"] == 42 for m in meta["ensemble"])

    def test_failed_run_leaves_only_manifest(self, tmp_path, n2_config, monkeypatch):
        def fail(*args, **kwargs):
            raise ClockspinError("peak map failed")

        monkeypatch.setattr(analysis, "peak_map", fail)
        out = tmp_path / "f"
        rc = main(["sweep", "--config", str(n2_config), "--out", str(out),
                   "--start-mT", "0", "--stop-mT", "1", "--step-mT", "1"])
        assert rc == 2
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_failed_field_job_stops_the_pool(self, tmp_path, n2_config, monkeypatch):
        _check_failed_fit_stops_the_pool(tmp_path, n2_config, monkeypatch)

    def test_failed_finish_stops_the_per_realization_pool(self, tmp_path, n2_config,
                                                          monkeypatch):
        # the fit fails in the parent, which reads the pool's results lazily
        monkeypatch.setattr(dynamics, "_FIELD_JOB_WORK", 0)     # one job per realization
        _check_failed_fit_stops_the_pool(tmp_path, n2_config, monkeypatch)

    @pytest.mark.parametrize("stop, code, err", [
        (SystemExit(143), 143, ""),
        (KeyboardInterrupt(), 130, "clockspin: interrupted\n"),
    ], ids=["sigterm", "ctrl_c"])
    def test_stop_while_submitting_cancels_the_submitted_jobs(self, tmp_path, n2_config, capsys,
                                                              monkeypatch, stop, code, err):
        # A signal that lands in Executor.map's submit loop leaves map before
        # its iterator exists; the pool must still cancel what it was given.
        monkeypatch.setattr(dynamics, "_FIELD_JOB_WORK", 0)     # 42 per-realization jobs
        traces = tmp_path / "traces"
        sample_bath = bath.sample_bath

        def counted(*args):
            with open(traces, "a") as fh:
                fh.write(".\n")
            time.sleep(0.05)
            return sample_bath(*args)

        submitted = []
        submit = ProcessPoolExecutor.submit

        def submit_then_stop(self, *args, **kwargs):
            if len(submitted) == 30:
                raise stop
            submitted.append(1)
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(bath, "sample_bath", counted)
        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_then_stop)
        out = tmp_path / "s"
        try:
            returned = main(["sweep", "--config", str(n2_config), "--out", str(out), "--jobs", "2",
                             "--start-mT", "-10", "--stop-mT", "10", "--step-mT", "1"])
        except SystemExit as exc:   # SIGTERM's handler exits; Ctrl-C returns
            returned = exc.code
        assert returned == code
        assert capsys.readouterr().err == err
        assert len(submitted) == 30
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        # only the 2 running jobs and the 3 in the pool's call queue may run; 10 leaves slack
        assert len(traces.read_text().splitlines()) <= 10

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_sigterm_stops_the_pool_and_removes_results(self, tmp_path):
        cfg = tmp_path / "n3.cfg"
        cfg.write_text("bath_N = 3\nn_realizations = 10\n")
        out = tmp_path / "t"
        env = {**os.environ, "PYTHONPATH": str(Path(clockspin.__file__).parents[1])}
        # 401 fields of N = 3: the pool is still busy when the signal comes
        proc = subprocess.Popen(
            [sys.executable, "-m", "clockspin.cli", "sweep", "--config", str(cfg),
             "--out", str(out), "--jobs", "2", "--start-mT=-50", "--stop-mT", "50",
             "--step-mT", "0.25"], env=env, stdout=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
                time.sleep(0.05)
                workers = _child_pids(proc.pid)
            assert len(workers) >= 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 143
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
            assert [p.name for p in out.iterdir()] == ["manifest.json"]
        finally:
            for pid in [proc.pid] + workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait(timeout=60)

    def test_seed_changes_output(self, tmp_path, n2_config):
        base = ["sweep", "--config", str(n2_config),
                "--start-mT", "0", "--stop-mT", "0", "--step-mT", "1"]
        out1, out2 = tmp_path / "x1", tmp_path / "x2"
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2), "--seed", "43"]) == 0
        a = (out1 / "trace_+000.000mT.csv").read_bytes()
        b = (out2 / "trace_+000.000mT.csv").read_bytes()
        assert a != b


def _proc_stat(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def _child_pids(pid):
    # /proc/<pid>/task/<tid>/children needs CONFIG_PROC_CHILDREN; a parent pid is always there
    return [int(p.name) for p in Path("/proc").iterdir()
            if p.name.isdigit() and (_proc_stat(p.name) or [None, None])[1] == str(pid)]


def _running(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in "ZX"


def _check_failed_fit_stops_the_pool(tmp_path, n2_config, monkeypatch):
    # The forked workers inherit the patches, and every call leaves a line behind.
    calls, traces = tmp_path / "fit_calls", tmp_path / "traces"
    sample_bath = bath.sample_bath

    def counted(*args):
        with open(traces, "a") as fh:
            fh.write(".\n")
        time.sleep(0.05)
        return sample_bath(*args)

    def fail(*args, **kwargs):
        with open(calls, "a") as fh:
            fh.write(".\n")
        time.sleep(0.1)
        raise FitError("fit failed")

    monkeypatch.setattr(bath, "sample_bath", counted)
    monkeypatch.setattr(analysis, "fit_decay", fail)
    out = tmp_path / "f"
    rc = main(["sweep", "--config", str(n2_config), "--out", str(out), "--jobs", "2",
               "--start-mT", "-10", "--stop-mT", "10", "--step-mT", "1"])
    assert rc == 2
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    # the jobs not yet started when the first failure came back never ran
    assert len(calls.read_text().splitlines()) <= 10        # of 21 fields
    assert len(traces.read_text().splitlines()) <= 20       # of 42 traces


def _modules_after(tmp_path, argv_list, block):
    """``(return codes, modules loaded)`` of running ``main`` on each argv in one
    fresh interpreter.  With ``block`` an import of scipy raises there, so that
    an import in a forked worker fails its command too."""
    script = tmp_path / "run.py"
    script.write_text(
        "import json, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy' and BLOCK:\n"
        "            raise ImportError(f'{name} imported on the run path')\n"
        "BLOCK = sys.argv[1] == 'block'\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from clockspin.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[2])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(clockspin.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(script), "block" if block else "allow",
                           json.dumps(argv_list)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy(modules):
    return [m for m in modules if m.split(".")[0] == "scipy"]


class TestRunPathImports:
    def test_run_commands_load_no_scipy(self, tmp_path, n2_config):
        sweep = ["sweep", "--config", str(n2_config), "--start-mT", "0", "--stop-mT", "1",
                 "--step-mT", "1"]
        codes, loaded = _modules_after(tmp_path, [
            ["echo", "--preset", "n1", "--detuning-mT", "20", "--out", str(tmp_path / "n1")],
            sweep + ["--jobs", "1", "--out", str(tmp_path / "serial")],
            sweep + ["--out", str(tmp_path / "default")],
            ["zeeman", "--out", str(tmp_path / "zeeman")],
        ], block=True)
        assert codes == [0, 0, 0, 0]
        assert _scipy(loaded) == []

    def test_serial_run_commands_load_no_numpy_random(self, tmp_path):
        # the bath is drawn by a Philox port: an N = 3 echo and sweep on one
        # process leave numpy.random, secrets, hmac and OpenSSL unloaded
        cfg = tmp_path / "n3.cfg"
        cfg.write_text("bath_N = 3\nn_realizations = 2\n")
        common = ["--config", str(cfg), "--jobs", "1"]
        codes, loaded = _modules_after(tmp_path, [
            ["echo", *common, "--detuning-mT", "2", "--out", str(tmp_path / "echo")],
            ["sweep", *common, "--start-mT", "0", "--stop-mT", "1", "--step-mT", "1",
             "--out", str(tmp_path / "sweep")],
        ], block=False)
        assert codes == [0, 0]
        assert "numpy.random" not in loaded

    def test_validate_loads_no_scipy(self, tmp_path):
        # the dense reference builds its thermal state and pulses with numpy
        codes, loaded = _modules_after(tmp_path, [["validate"]], block=True)
        assert codes == [0]
        assert _scipy(loaded) == []


class TestValidateCommand:
    def test_pristine_build_passes(self, capsys):
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") >= 5
        assert "FAIL" not in out

    def test_injected_e_sign_error_flagged_by_order_check(self, capsys, monkeypatch):
        monkeypatch.setattr(validate, "ModelParams", functools.partial(ModelParams, E=-4.5e9))
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 2
        for line in out.splitlines():
            if "ct-eigenvector-order" in line:
                assert line.startswith("FAIL")
            if "electronic-eigenvalues" in line or "fictitious-spin-mappings" in line:
                assert line.startswith("PASS")

    def test_report_lists_residuals(self, capsys):
        main(["validate"])
        out = capsys.readouterr().out
        assert out.count("residual=") >= 5
