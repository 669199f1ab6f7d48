import json

import numpy as np
import pytest

from clockspin.cli import main
from clockspin.config import RunConfig, apply_preset, parse_config_text

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
        assert (out / "manifest.json").exists()

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


class TestEchoCommand:
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
        assert (echo_out / "trace.csv").read_bytes() == \
            (sweep_out / "trace_+001.000mT.csv").read_bytes()

    def test_manifest_written_before_results(self, tmp_path, n2_config):
        out = tmp_path / "m"
        rc = main(["echo", "--config", str(n2_config), "--out", str(out),
                   "--detuning-mT", "0"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["software"] == "clockspin"
        assert manifest["config"]["bath"]["N"] == 2
        assert manifest["config"]["bath"]["seed"] == 42


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

    def test_seed_changes_output(self, tmp_path, n2_config):
        base = ["sweep", "--config", str(n2_config),
                "--start-mT", "0", "--stop-mT", "0", "--step-mT", "1"]
        out1, out2 = tmp_path / "x1", tmp_path / "x2"
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2), "--seed", "43"]) == 0
        a = (out1 / "trace_+000.000mT.csv").read_bytes()
        b = (out2 / "trace_+000.000mT.csv").read_bytes()
        assert a != b


class TestValidateCommand:
    def test_pristine_build_passes(self, capsys):
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") >= 5
        assert "FAIL" not in out

    def test_injected_e_sign_error_flagged_by_order_check(self, capsys):
        rc = main(["validate", "--inject-e-sign-error"])
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
