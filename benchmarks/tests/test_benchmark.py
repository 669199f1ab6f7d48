"""Tests of the benchmark's own arithmetic and checks.

Run from the root of the repository::

    python3 -m pytest benchmarks/tests -q
"""

import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(id_, start, end, parent=None, pid=1, name="x", **attrs):
    s = {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "pid": pid}
    if attrs:
        s["attrs"] = attrs
    return s


def test_self_time_nested():
    got = spans.self_times([
        span("a", 0, 10),
        span("b", 1, 4, "a"),
        span("c", 2, 3, "b"),
        span("d", 3, 6, "a"),
    ])
    assert got == pytest.approx({"a": 5, "b": 2, "c": 1, "d": 3})


def test_self_time_children_from_several_pids_overlap_and_are_clipped():
    got = spans.self_times([
        span("1:1", 0, 10, pid=1),
        span("2:5", 1, 5, "1:1", pid=2),
        span("3:5", 2, 8, "1:1", pid=3),
        span("3:6", 9, 12, "1:1", pid=3),   # ends after its parent
        span("4:1", 0, 10, "9:9", pid=4),   # parent not recorded
    ])
    assert got["1:1"] == pytest.approx(10 - 7 - 1)
    assert got["2:5"] == pytest.approx(4)
    assert got["4:1"] == pytest.approx(10)


def test_kernel_flops_are_two_complex_cubic_products_per_tau_point():
    assert spans.kernel_gflop(256, 1000) == pytest.approx(2 * 8 * 256**3 * 1000 / 1e9)
    assert spans.kernel_gflop(16, 1) == pytest.approx(16 * 16**3 / 1e9)


def test_layer_metrics_from_a_two_worker_sweep():
    trace = dict(name="dynamics.hahn_echo_trace", d=16, n_tau=100)
    got = spans.layer_metrics([
        span("1:1", 0, 10, name="cli.main"),
        span("1:2", 1, 7, "1:1", name="dynamics.field_sweep", jobs=2),
        span("2:3", 1, 5, "1:2", pid=2, **trace),
        span("3:3", 1, 6, "1:2", pid=3, **trace),
        span("3:4", 2, 3, "3:3", pid=3, name="dynamics.calibrate_pulses"),
        span("1:5", 8, 9, "1:1", name="echotrace.write", bytes=123),
    ], n_fields=2)
    assert got["dynamics.hahn_echo_trace.calls"] == (2, "count")
    assert got["dynamics.hahn_echo_trace.s"][0] == pytest.approx(9)
    assert got["dynamics.hahn_echo_trace.self_s"][0] == pytest.approx(8)
    assert got["dynamics.kernel.gflop"][0] == pytest.approx(2 * spans.kernel_gflop(16, 100))
    assert got["dynamics.kernel.gflops"][0] == pytest.approx(2 * spans.kernel_gflop(16, 100) / 8)
    assert got["dynamics.field_sweep.parallel_eff"][0] == pytest.approx(9 / (2 * 6))
    assert got["dynamics.calibrate_pulses.per_field"][0] == pytest.approx(0.5)
    assert got["echotrace.write.bytes"] == (123, "B")
    assert got["cli.self_s"][0] == pytest.approx(10 - 6 - 1)


def test_recorder_keeps_spans_of_forked_workers(tmp_path):
    recorder = spans.SpanRecorder(tmp_path)
    inner = recorder.wrap("inner", lambda: None)

    def fork_and_call():
        pid = os.fork()
        if pid == 0:
            inner()
            os._exit(0)
        os.waitpid(pid, 0)
        inner()

    recorder.wrap("outer", fork_and_call)()
    recorder.flush()
    got = spans.load_spans(tmp_path)
    outer = [s for s in got if s["name"] == "outer"]
    inner_spans = [s for s in got if s["name"] == "inner"]
    assert len(outer) == 1 and len(inner_spans) == 2
    assert {s["parent"] for s in inner_spans} == {outer[0]["id"]}
    assert len({s["pid"] for s in inner_spans}) == 2
    assert len({s["id"] for s in got}) == 3


def test_metric_names_and_units_follow_the_contract():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    produced = spans.layer_metrics([], n_fields=1)
    for name in [*declared, *produced]:
        assert NAME.match(name), name
    for name, (_, unit) in produced.items():
        assert declared[name] == unit, name
    layer_names = {m["name"] for m in bench["per_layer"]}
    extra = {"trace.overhead_s", "host.zgemm_gflops", "host.dgemm_gflops"}
    assert layer_names == set(produced) | extra


TAU_US = 0.1 * np.arange(1, 31)
GRID = [0.0, 2.0]


def write_sweep(out_dir, offset=0.0):
    out_dir.mkdir()
    for name in checks.RUN_FILES[:2]:
        (out_dir / name).write_text("{}\n")
    rows = ["detuning_mT,B0_mT,T_m_us,x,I0,residual,no_decay"]
    for db in GRID:
        tag = checks.field_tag(db)
        y = 0.03 * np.exp(-TAU_US / (10 + db)) + offset
        lines = ["tau_us,intensity"] + [f"{t:.17g},{v:.17g}" for t, v in zip(TAU_US, y)]
        (out_dir / f"trace_{tag}.csv").write_text("\n".join(lines) + "\n")
        (out_dir / f"trace_{tag}.json").write_text("{}\n")
        (out_dir / f"spectrum_{tag}.csv").write_text("f_MHz,amplitude\n")
        rows.append(f"{db:.17g},{23.5 + db:.17g},{10 + db:.17g},1.5,0.03,0.0004,False")
    (out_dir / "tm_vs_detuning.csv").write_text("\n".join(rows) + "\n")


@pytest.fixture
def reference(tmp_path):
    write_sweep(tmp_path / "ref")
    checks.record_reference(tmp_path / "ref.npz", "g", tmp_path / "ref")
    return checks.load_reference(tmp_path / "ref.npz", "g")


def failures(out_dir, reference, returncode=0, serial=None):
    return [(n, p) for n, p in checks.check_sweep(out_dir, returncode, GRID, TAU_US,
                                                  ref=reference, serial=serial) if p]


def test_reference_outputs_pass_and_count_one_check_per_field(tmp_path, reference):
    write_sweep(tmp_path / "out")
    results = checks.check_sweep(tmp_path / "out", 0, GRID, TAU_US, ref=reference)
    assert [n for n, _ in results] == ["exit", "field +000.000mT", "field +002.000mT"]
    assert failures(tmp_path / "out", reference) == []


def test_roundoff_level_deviation_passes(tmp_path, reference):
    write_sweep(tmp_path / "out", offset=1.1e-11)
    assert failures(tmp_path / "out", reference) == []


def test_trace_perturbed_by_1e_6_fails(tmp_path, reference):
    write_sweep(tmp_path / "out", offset=1e-6)
    got = failures(tmp_path / "out", reference)
    assert [n for n, _ in got] == ["field +000.000mT", "field +002.000mT"]


def test_missing_output_file_fails(tmp_path, reference):
    write_sweep(tmp_path / "out")
    (tmp_path / "out" / "trace_+002.000mT.csv").unlink()
    assert [n for n, _ in failures(tmp_path / "out", reference)] == ["field +002.000mT"]
    (tmp_path / "out" / "tm_vs_detuning.csv").unlink()
    assert "exit" in [n for n, _ in failures(tmp_path / "out", reference)]


def test_unreadable_output_fails(tmp_path, reference):
    write_sweep(tmp_path / "out")
    (tmp_path / "out" / "trace_+000.000mT.csv").write_text("tau_us,intensity\n0.1,x\n")
    (tmp_path / "out" / "trace_+002.000mT.csv").write_text("tau_us\n0.1\n")
    assert [n for n, _ in failures(tmp_path / "out", reference)] == [
        "field +000.000mT", "field +002.000mT"]
    (tmp_path / "out" / "tm_vs_detuning.csv").write_text("detuning,T_m_us\n0,1\n")
    assert [n for n, _ in failures(tmp_path / "out", reference)] == [
        "exit", "field +000.000mT", "field +002.000mT"]


def test_nonzero_exit_fails(tmp_path, reference):
    write_sweep(tmp_path / "out")
    assert [n for n, _ in failures(tmp_path / "out", reference, returncode=2)] == ["exit"]


def test_serial_outputs_must_be_byte_identical(tmp_path):
    write_sweep(tmp_path / "serial")
    write_sweep(tmp_path / "out", offset=1e-15)
    serial = checks.digests(tmp_path / "serial")
    assert failures(tmp_path / "serial", None, serial=serial) == []
    assert [n for n, _ in failures(tmp_path / "out", None, serial=serial)] == [
        "field +000.000mT", "field +002.000mT"]
