"""Command-line driver: zeeman, echo, sweep and validate subcommands.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure,
130 interrupted by Ctrl-C, 143 terminated by SIGTERM.  Every run directory
receives a ``manifest.json`` (written atomically before any result file) whose
``config`` block, written out as ``KEY = VALUE`` lines, reproduces the run bit
for bit.
"""

import argparse
import contextlib
import functools
import signal
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, config, dynamics, validate
from .echotrace import write_float_csv, write_json
from .errors import ClockspinError


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _run_directory(cfg: config.RunConfig, command: str, **extra):
    """Open ``cfg.out_dir`` for one run and yield a function that names a result file.

    The manifest is written first; if the body raises, the result files named
    so far are removed and the manifest is left to show what was attempted.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "manifest.json",
               {"software": "clockspin", "version": __version__, "command": command,
                "config": cfg.describe(), **extra})
    results = []

    def result(name: str) -> Path:
        results.append(out_dir / name)
        return results[-1]

    try:
        yield result
    except BaseException:
        for path in results:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        raise


def _load_run_config(args) -> config.RunConfig:
    """The defaults, then the preset, the config file and the flags, whose
    ``dest`` is their config key."""
    cfg = config.RunConfig()
    if args.preset:
        cfg = config.apply_preset(cfg, args.preset)
    if args.config:
        cfg = config.parse_config_text(Path(args.config).read_text(), base=cfg)
    flags = {k: v for k, v in vars(args).items() if k in config._KEYS and v is not None}
    return config._override(cfg, flags)


def cmd_zeeman(args) -> int:
    cfg = _load_run_config(args)
    grid_mt = cfg.zeeman_grid_mt()
    with _run_directory(cfg, "zeeman") as result:
        from .hamiltonian import clock_frequency_curve

        spectrum = clock_frequency_curve(cfg.model, grid_mt * 1e-3)
        path = result("electron_spectrum.csv")
        spectrum.write_csv(path)
    print(f"zeeman: wrote {path} ({grid_mt.size} fields)")
    return 0


def _finish_field(cfg, db_mt, trace_csv, trace_json, spectrum_csv, trace):
    """Write one field's trace, sidecar and spectrum and analyse it; return
    ``(B0, fit, peaks, bin_width)`` for the command's summary files."""
    trace.write_csv(trace_csv)
    trace.write_sidecar(trace_json)
    params = cfg.model.at_detuning(db_mt * 1e-3)
    fit, _, spec, peaks = analysis.analyze(trace, params.proton_larmor())
    spec.write_csv(spectrum_csv)
    return params.B0, fit, peaks, spec.bin_width


def _check_fields(cfg, grid_mt):
    """Refuse, before the run, a non-finite field, a tau grid too short to
    fit the decay at one of the fields, or a field where no pulse drives the
    two lowest states (exit 2)."""
    tau = cfg.sequence.tau_grid()
    for db_mt in grid_mt:
        params = cfg.model.at_detuning(db_mt * 1e-3)
        analysis.check_fit_grid(tau, params.proton_larmor())
        dynamics.calibrate_pulses(params)


def cmd_echo(args) -> int:
    cfg = _load_run_config(args)
    _check_fields(cfg, [cfg.detuning_mt])
    cfg.jobs = dynamics.worker_count(cfg.jobs, cfg.bath.n_realizations)
    with _run_directory(cfg, "echo", detuning_mT=cfg.detuning_mt) as result:
        (avg,) = dynamics.field_sweep(cfg.model, cfg.bath, cfg.sequence,
                                      [cfg.detuning_mt * 1e-3], jobs=cfg.jobs)
        b0, fit, peaks, bin_width = _finish_field(cfg, cfg.detuning_mt, result("trace.csv"),
                                                  result("trace.json"), result("spectrum.csv"), avg)
        analysis.subtract_background(avg, fit).write_csv(result("residual.csv"))
        # peak_map emits a row at the exact frequency of every peak
        labels = {r.freq: r.label
                  for r in analysis.peak_map([b0], [peaks], cfg.model.gamma_H, bin_width)}
        write_float_csv(result("peaks.csv"), "f_MHz,amplitude,label",
                        [p.freq * 1e-6 for p in peaks], [p.amplitude for p in peaks],
                        [labels[p.freq] for p in peaks])
        write_json(result("fit.json"),
                   {"model": "stretched", "I0": fit.i0, "T_m_us": fit.t_m * 1e6,
                    "x": fit.exponent, "baseline": fit.baseline,
                    "residual": fit.residual_norm, "no_decay": fit.no_decay})
    print(f"echo: detuning {cfg.detuning_mt:+.3f} mT, {len(peaks)} peaks, "
          f"T_m = {fit.t_m * 1e6:.3f} us -> {Path(cfg.out_dir)}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args)
    grid_mt = cfg.detuning_grid_mt()
    _check_fields(cfg, grid_mt)
    cfg.jobs = dynamics.worker_count(cfg.jobs, grid_mt.size * cfg.bath.n_realizations)
    with _run_directory(cfg, "sweep", detuning_grid_mT=[float(x) for x in grid_mt]) as result:
        # field_sweep writes and analyses each field as soon as its average
        # exists.  Every file is named here first, so a failed run removes them all.
        finish = []
        for db_mt in grid_mt:
            tag = f"{db_mt:+08.3f}mT"
            finish.append(functools.partial(
                _finish_field, cfg, db_mt, result(f"trace_{tag}.csv"),
                result(f"trace_{tag}.json"), result(f"spectrum_{tag}.csv")))
        fields = dynamics.field_sweep(cfg.model, cfg.bath, cfg.sequence, grid_mt * 1e-3,
                                      jobs=cfg.jobs, finish=finish)
        b0s, fits, peaks_per_field, bin_widths = zip(*fields)
        rows = analysis.peak_map(b0s, peaks_per_field, cfg.model.gamma_H, bin_widths[-1])
        analysis.write_peak_map_csv(rows, result("peak_map.csv"))
        write_float_csv(result("tm_vs_detuning.csv"),
                        "detuning_mT,B0_mT,T_m_us,x,I0,residual,no_decay",
                        grid_mt, cfg.model.B_min * 1e3 + grid_mt, [f.t_m * 1e6 for f in fits],
                        [f.exponent for f in fits], [f.i0 for f in fits],
                        [f.residual_norm for f in fits], [str(f.no_decay) for f in fits])
    print(f"sweep: {grid_mt.size} fields x {cfg.bath.n_realizations} realizations "
          f"-> {Path(cfg.out_dir)}")
    return 0


def cmd_validate(args) -> int:
    results = validate.run_all()
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"{status}  {r.name:28s} residual={r.residual:.3e} tol={r.tolerance:.0e}  {r.detail}")
    if not all_pass:
        print("validate: FAILED")
        return 2
    print("validate: all checks passed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="clockspin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"clockspin {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, range_prefix=None):
        # Each flag's dest is the config key it sets; config parses its value.
        p.add_argument("--config", help="flat KEY = VALUE config file")
        p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
        p.add_argument("--seed", metavar="U64", help="bath RNG seed (unsigned 64-bit)")
        p.add_argument("--jobs", metavar="N", help="worker processes")
        p.add_argument("--preset", choices=["n1", "n7"], help="named parameter set")
        if range_prefix:
            for end in ("start", "stop", "step"):
                p.add_argument(f"--{end}-mT", dest=f"{range_prefix}_{end}_mT", metavar="MT")

    p_zeeman = sub.add_parser("zeeman", help="electronic spectrum vs field")
    common(p_zeeman, range_prefix="zeeman")
    p_zeeman.set_defaults(func=cmd_zeeman)

    p_echo = sub.add_parser("echo", help="ensemble echo trace at one detuning")
    common(p_echo)
    p_echo.add_argument("--detuning-mT", dest="detuning_mT", metavar="MT",
                        help="field detuning from the clock transition")
    p_echo.set_defaults(func=cmd_echo)

    p_sweep = sub.add_parser("sweep", help="detuning sweep with analysis products")
    common(p_sweep, range_prefix="detuning")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the built-in invariant suite")
    p_val.set_defaults(func=cmd_validate)
    return parser


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM unwinds the command like an exception: the pool cancels the jobs
    # not yet started and shuts down, and the result files are removed.
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"clockspin: usage error: {exc}", file=sys.stderr)
        return 1
    except (ClockspinError, np.linalg.LinAlgError) as exc:
        print(f"clockspin: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"clockspin: I/O failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # the pool and the result files are already cleaned up, as for SIGTERM
        print("clockspin: interrupted", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
