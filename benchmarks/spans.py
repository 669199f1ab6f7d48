"""Per-layer spans for one ``clockspin`` command, recorded from outside the package.

Run as a script, this module wraps the public functions of each clockspin
module, calls ``clockspin.cli.main`` in-process and writes one JSON-lines span
file per process id::

    python3 benchmarks/spans.py SPAN_DIR sweep --config ... --out ...

A span holds its name, start, end (``time.perf_counter``, which reads the
system-wide monotonic clock on Linux, so forked workers share the time base),
parent span id and pid.  Workers forked by ``field_sweep`` inherit the
wrappers; each appends its spans to ``spans-<pid>.jsonl`` whenever its
outermost span ends, because pool workers leave through ``os._exit`` and
never run ``atexit`` handlers.

The analysis helpers (``load_spans``, ``self_times``, ``layer_metrics``) are
imported by ``run.py`` and the tests.
"""

import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# (layer, module, attribute).  A dotted attribute names a method.
WRAPPED = [
    ("cli.main", "clockspin.cli", "main"),
    ("dynamics.field_sweep", "clockspin.dynamics", "field_sweep"),
    ("dynamics.hahn_echo_trace", "clockspin.dynamics", "hahn_echo_trace"),
    ("dynamics.calibrate_pulses", "clockspin.dynamics", "calibrate_pulses"),
    ("hamiltonian.bath_hamiltonian_matrix", "clockspin.hamiltonian", "bath_hamiltonian_matrix"),
    ("hamiltonian.eigensolve", "clockspin.hamiltonian", "eigensolve"),
    ("bath.sample_bath", "clockspin.bath", "sample_bath"),
    ("bath.ensemble_average", "clockspin.bath", "ensemble_average"),
    ("analysis.fit_decay", "clockspin.analysis", "fit_decay"),
    ("analysis.spectrum", "clockspin.analysis", "spectrum"),
    ("analysis.find_peaks", "clockspin.analysis", "find_peaks"),
    ("analysis.peak_map", "clockspin.analysis", "peak_map"),
    ("echotrace.write", "clockspin.echotrace", "EchoTrace.write_csv"),
    ("echotrace.write", "clockspin.echotrace", "EchoTrace.write_sidecar"),
]


def _trace_attrs(args, kwargs, result):
    # d is the dimension of the {m_S = +-1} (x) bath block the kernel evolves.
    bath = args[1] if len(args) > 1 else kwargs["bath"]
    n = bath.n_nuclei if bath is not None else 0
    return {"d": 2 * 2**n, "n_tau": int(result.tau.size)}


def _sweep_attrs(args, kwargs, result):
    return {"jobs": int(args[4] if len(args) > 4 else kwargs.get("jobs", 1))}


def _write_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


ATTRS = {
    "dynamics.hahn_echo_trace": _trace_attrs,
    "dynamics.field_sweep": _sweep_attrs,
    "echotrace.write": _write_attrs,
}


class SpanRecorder:
    """Collects the spans of one process tree and writes them per pid."""

    def __init__(self, span_dir):
        self.span_dir = Path(span_dir)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.forked = False
        self.base_depth = 0
        self.counter = 0

    def _adopt_fork(self):
        # A forked child inherits the parent's spans and open stack.  It keeps
        # the stack, so its spans point at the parent's open span, and drops
        # the inherited list, which the parent writes itself.
        self.pid = os.getpid()
        self.spans = []
        self.forked = True
        self.base_depth = len(self.stack)

    def wrap(self, name, fn):
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                self._adopt_fork()
            self.counter += 1
            span_id = f"{self.pid}:{self.counter}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            span = {"id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "pid": self.pid}
            if attrs_fn is not None:
                span["attrs"] = attrs_fn(args, kwargs, result)
            self.spans.append(span)
            if self.forked and len(self.stack) == self.base_depth:
                self.flush()
            return result

        return wrapper

    def flush(self):
        if not self.spans:
            return
        self.span_dir.mkdir(parents=True, exist_ok=True)
        with open(self.span_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def instrument(recorder):
    """Replace every function in ``WRAPPED`` by a span-recording wrapper.

    Module-level functions are replaced in every ``clockspin`` module that
    holds a reference to them, so calls through ``from x import f`` and
    through ``module.f`` are both recorded.
    """
    import importlib

    import clockspin.cli  # noqa: F401  (imports every module the CLI uses)

    modules = [m for k, m in sys.modules.items() if k == "clockspin" or k.startswith("clockspin.")]
    for name, mod_name, attr in WRAPPED:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def load_spans(span_dir):
    spans = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Children may come from other processes and overlap each other (parallel
    workers), so the covered part is the union of their intervals, clipped to
    the parent's interval.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(clipped)
    return out


def kernel_gflop(d, n_tau):
    """Nominal real GFLOP of one trace: two complex d x d x d products per tau point."""
    return 16.0 * d**3 * n_tau / 1e9


def layer_metrics(spans, n_fields):
    """Per-layer metrics (name -> (value, unit)) from the spans of one command."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name.get(name, [])]

    m = {}
    for name in ("dynamics.hahn_echo_trace", "dynamics.calibrate_pulses",
                 "hamiltonian.bath_hamiltonian_matrix", "hamiltonian.eigensolve",
                 "bath.sample_bath", "analysis.fit_decay", "analysis.spectrum",
                 "analysis.find_peaks", "analysis.peak_map"):
        m[f"{name}.calls"] = (len(durations(name)), "count")
        m[f"{name}.s"] = (sum(durations(name)), "s")

    traces = by_name.get("dynamics.hahn_echo_trace", [])
    trace_self = sum(selfs[s["id"]] for s in traces)
    m["dynamics.hahn_echo_trace.self_s"] = (trace_self, "s")
    trace_s = durations("dynamics.hahn_echo_trace") or [0.0]
    m["dynamics.hahn_echo_trace.p50_s"] = (float(np.percentile(trace_s, 50)), "s")
    m["dynamics.hahn_echo_trace.p90_s"] = (float(np.percentile(trace_s, 90)), "s")
    gflop = sum(kernel_gflop(s["attrs"]["d"], s["attrs"]["n_tau"]) for s in traces)
    m["dynamics.kernel.gflop"] = (gflop, "GFLOP")
    m["dynamics.kernel.gflops"] = (gflop / trace_self if trace_self > 0 else 0.0, "GFLOP/s")

    sweeps = by_name.get("dynamics.field_sweep", [])
    sweep_s = sum(durations("dynamics.field_sweep"))
    jobs = max((s["attrs"]["jobs"] for s in sweeps), default=1)
    m["dynamics.field_sweep.s"] = (sweep_s, "s")
    m["dynamics.field_sweep.parallel_eff"] = (
        m["dynamics.hahn_echo_trace.s"][0] / (jobs * sweep_s) if sweep_s > 0 else 0.0, "ratio")
    m["dynamics.calibrate_pulses.per_field"] = (
        m["dynamics.calibrate_pulses.calls"][0] / n_fields, "count")

    m["bath.ensemble_average.s"] = (sum(durations("bath.ensemble_average")), "s")
    m["echotrace.write.s"] = (sum(durations("echotrace.write")), "s")
    m["echotrace.write.bytes"] = (
        sum(s["attrs"]["bytes"] for s in by_name.get("echotrace.write", [])), "B")
    m["cli.self_s"] = (sum(selfs[s["id"]] for s in by_name.get("cli.main", [])), "s")
    return m


def main(argv):
    span_dir, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder(span_dir)
    instrument(recorder)
    import clockspin.cli

    try:
        return clockspin.cli.main(cli_args)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
