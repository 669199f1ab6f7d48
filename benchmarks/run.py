"""The clockspin benchmark: ``clockspin sweep`` workloads, timed and checked.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload n7-serial [--seed 1234] [--seconds 55] [--trace 0]

``--trace 0`` runs the workload's ``clockspin sweep`` command in a fresh
interpreter, at least the workload's ``min_commands`` times and then again
while another command still fits in ``--seconds``, and reports the end-to-end
metrics:
medians over those commands of wall time, CPU time and peak RSS, plus the
median import time of ``clockspin.cli``.  ``--trace 1`` times the untraced command the same way, then runs it once more
under ``spans.py`` and reports the per-layer metrics.  Every command's
outputs go through ``checks.py``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The load is a closed loop with one client: one command at a time.  The
benchmark sets no BLAS or OpenMP thread variable and passes no option a user
of the workload would not pass; it records the thread variables as it found
them.  ``--seed`` is the bath seed, forwarded to ``clockspin sweep --seed``.
See README.md for why each workload was chosen and which layer metric should
move which end-to-end metric.
"""

import argparse
import collections
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference" / "seed1234.npz"
DEFAULT_SEED = 1234             # the package's default bath seed
SETUP_REPEATS = 4              # imports timed before and again after the commands
TAU_US = 0.1 * np.arange(1, 1001)   # default sequence: 100 ns steps to 100 us
CLI = "import sys; from clockspin.cli import main; sys.exit(main())"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    config: str                 # config file in this directory
    start_mt: float
    stop_mt: float
    step_mt: float
    realizations: int           # as set in the config file
    jobs: int | None            # None: the CLI default of 1 applies
    reference: str              # group in the reference file
    min_commands: int           # commands per run at least, so that a median has samples

    def grid_mt(self):
        n = int(round((self.stop_mt - self.start_mt) / self.step_mt))
        return [self.start_mt + self.step_mt * i for i in range(n + 1)]

    def cli_args(self, seed, out_dir):
        args = ["sweep", "--config", str(HERE / self.config),
                "--start-mT", str(self.start_mt), "--stop-mT", str(self.stop_mt),
                "--step-mT", str(self.step_mt), "--seed", str(seed), "--out", str(out_dir)]
        if self.jobs is not None:
            args += ["--jobs", str(self.jobs)]
        return args


WORKLOADS = {
    "n7-serial": Workload("n7.cfg", 0.0, 2.0, 2.0, 2, None, "n7", 2),
    "n7-jobs2": Workload("n7.cfg", 0.0, 2.0, 2.0, 2, 2, "n7", 2),
    "n3-many": Workload("n3.cfg", -5.0, 5.0, 0.25, 10, None, "n3", 4),
}


@dataclass
class Sample:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


def clockspin_env():
    """The caller's environment with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_timed(argv, env, log_path):
    """Run one command to completion; time it and read its rusage.

    ``os.wait4`` returns the command's own rusage plus that of every worker it
    waited for, and ``ru_maxrss`` is the largest RSS among them.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)


def measure_setup(env, log_path, warm_up=False):
    """Times for a fresh interpreter to import ``clockspin.cli``.

    With ``warm_up``, one untimed import first writes the bytecode cache,
    which users pay once.
    """
    argv = [sys.executable, "-c", "import clockspin.cli"]
    if warm_up:
        run_timed(argv, env, log_path)
    samples = [run_timed(argv, env, log_path) for _ in range(SETUP_REPEATS)]
    if any(s.returncode for s in samples):
        raise RuntimeError("importing clockspin.cli failed")
    return [s.wall_s for s in samples]


def serial_digests(seed, env, work):
    """Digests of one untimed ``n7-serial`` command, which ``n7-jobs2`` must reproduce."""
    out = work / "serial"
    sample = run_timed([sys.executable, "-c", CLI, *WORKLOADS["n7-serial"].cli_args(seed, out)],
                       env, work / "commands.log")
    got = checks.digests(out) if sample.returncode == 0 else {}
    shutil.rmtree(out, ignore_errors=True)
    return got


def run_workload(wl, seed, seconds, env, work, results):
    """Run the workload's command at least ``wl.min_commands`` times, and then
    again while the median command so far still fits in ``seconds``; check
    every output.

    Returns the samples and a function that checks one more output directory.
    """
    ref = checks.load_reference(REFERENCE, wl.reference) if seed == DEFAULT_SEED else None
    serial = serial_digests(seed, env, work) if wl.jobs else None

    def check(out, returncode):
        results.extend(checks.check_sweep(out, returncode, wl.grid_mt(), TAU_US,
                                          ref=ref, serial=serial))
        shutil.rmtree(out, ignore_errors=True)

    samples = []
    start = time.perf_counter()
    while len(samples) < wl.min_commands or (
            time.perf_counter() - start + statistics.median(s.wall_s for s in samples)
            <= seconds):
        out = work / f"out-{len(samples)}"
        samples.append(run_timed([sys.executable, "-c", CLI, *wl.cli_args(seed, out)],
                                 env, work / "commands.log"))
        check(out, samples[-1].returncode)
    return samples, check


def span_count_problem(all_spans, wl):
    """Compare call counts with the work the command was given."""
    calls = collections.Counter(s["name"] for s in all_spans)
    n_fields = len(wl.grid_mt())
    want = {
        "dynamics.hahn_echo_trace": n_fields * wl.realizations,
        "bath.sample_bath": n_fields * wl.realizations,
        "analysis.fit_decay": n_fields,
    }
    wrong = [f"{k} {calls[k]} != {v}" for k, v in want.items() if calls[k] != v]
    ids = {s["id"] for s in all_spans}
    orphans = sum(1 for s in all_spans if s["parent"] is not None and s["parent"] not in ids)
    if orphans:
        wrong.append(f"{orphans} spans whose parent span is missing")
    return "; ".join(wrong) or None


def traced_metrics(wl, seed, seconds, env, work, results):
    """Per-layer metrics from one traced command, after timing the untraced one."""
    untraced, check = run_workload(wl, seed, seconds, env, work, results)
    span_dir, out = work / "spans", work / "out-traced"
    sample = run_timed([sys.executable, str(HERE / "spans.py"), str(span_dir),
                        *wl.cli_args(seed, out)], env, work / "commands.log")
    check(out, sample.returncode)
    all_spans = spans.load_spans(span_dir)
    results.append(("span counts", span_count_problem(all_spans, wl)))
    metrics = spans.layer_metrics(all_spans, len(wl.grid_mt()))
    metrics["trace.overhead_s"] = (
        sample.wall_s - statistics.median(s.wall_s for s in untraced), "s")
    return metrics, {"untraced wall_s": [s.wall_s for s in untraced],
                     "traced wall_s": [sample.wall_s]}


def end_to_end_metrics(wl, seed, seconds, env, work, results):
    """Medians over the run's commands, and the samples behind them."""
    setup = measure_setup(env, work / "commands.log", warm_up=True)
    runs, _ = run_workload(wl, seed, seconds, env, work, results)
    setup += measure_setup(env, work / "commands.log")
    samples = {
        "wall_s": [s.wall_s for s in runs],
        "cpu_s": [s.cpu_s for s in runs],
        "peak_rss_mib": [s.peak_rss_mib for s in runs],
        "setup_s": setup,
    }
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
    return {k: (statistics.median(v), units[k]) for k, v in samples.items()}, samples


def gemm_rates(d=256, repeats=7):
    """Median ZGEMM and DGEMM GFLOP/s at the kernel's shape, (16d x d) @ (d x d)."""
    rng = np.random.default_rng(0)
    rates = []
    for dtype, flops_per_fma in ((np.complex128, 8), (np.float64, 2)):
        a = rng.standard_normal((16 * d, d)).astype(dtype)
        b = rng.standard_normal((d, d)).astype(dtype)
        a @ b
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            a @ b
            times.append(time.perf_counter() - t0)
        rates.append(flops_per_fma * 16 * d**3 / statistics.median(times) / 1e9)
    return rates


def host_facts():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clockspin" / "cli.py").is_file():
        print(f"benchmark: no clockspin sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so the running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = clockspin_env()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)     # left by a killed run with this pid
    work.mkdir(parents=True)
    results = []
    measure = traced_metrics if args.trace else end_to_end_metrics
    try:
        metrics, samples = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                    env, work, results)
        failed = [(n, p) for n, p in results if p is not None]
        if failed:
            log = (work / "commands.log").read_text(errors="replace").splitlines()
            print("\n".join(log[-20:]), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    host = host_facts()
    host["zgemm_gflops"], host["dgemm_gflops"] = gemm_rates()
    if args.trace:
        metrics["host.zgemm_gflops"] = (host["zgemm_gflops"], "GFLOP/s")
        metrics["host.dgemm_gflops"] = (host["dgemm_gflops"], "GFLOP/s")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print("samples " + json.dumps({k: [round(v, 4) for v in vs] for k, vs in samples.items()}))
    for check, problem in failed:
        print(f"FAILED {check}: {problem}")
    print(f"{'failed_frac':44s} {len(failed) / len(results):.6g} ratio")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{key:44s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
