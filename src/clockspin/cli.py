"""Command-line driver: zeeman, echo, sweep and validate subcommands.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure.
Every run directory receives a ``manifest.json`` (written atomically before
any result file) that suffices to reproduce the run bit for bit.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, config, dynamics, validate
from .errors import ClockspinError


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_json_atomic(payload: dict, path: Path):
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    os.replace(tmp, path)


@contextlib.contextmanager
def _run_directory(cfg: config.RunConfig, command: str, **extra):
    """Open ``cfg.out_dir`` for one run and yield a function that names a result file.

    The manifest is written first; if the body raises, the result files named
    so far are removed and the manifest is left to show what was attempted.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json_atomic(
        {"software": "clockspin", "version": __version__, "command": command,
         "config": cfg.describe(), **extra},
        out_dir / "manifest.json",
    )
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
    from dataclasses import replace

    cfg = config.RunConfig()
    if getattr(args, "preset", None):
        cfg = config.apply_preset(cfg, args.preset)
    if getattr(args, "config", None):
        cfg = config.load_config(args.config, base=cfg)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, bath=replace(cfg.bath, seed=args.seed))
    if getattr(args, "jobs", None) is not None:
        cfg.jobs = args.jobs
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "detuning_mt", None) is not None:
        cfg.detuning_mt = args.detuning_mt
    prefix = "zeeman_" if args.subcommand == "zeeman" else "detuning_"
    for name in ("start_mt", "stop_mt", "step_mt"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, prefix + name, val)
    return cfg


def _analyze(trace, cfg: config.RunConfig, nu_h: float):
    fit = analysis.fit_decay(trace, model=cfg.analysis.fit_model,
                             baseline=True, smooth_hz=nu_h if nu_h > 0 else None)
    residual = analysis.subtract_background(trace, fit)
    spec = analysis.spectrum(residual, mode=cfg.analysis.spectrum_mode)
    signal_scale = abs(fit.baseline) + abs(fit.i0)
    if np.max(np.abs(residual.intensity)) < 1e-9 * signal_scale:
        # residual at numerical-noise level: no modulation to report
        return fit, residual, spec, []
    # Decay-dominated traces leave a low-frequency background-subtraction
    # residue that would dominate a global threshold; there is no ESEEM
    # content below ~0.3 MHz for these fields.
    decay_dominated = abs(fit.i0) > 0.5 * abs(fit.baseline)
    f_min = 0.3e6 if decay_dominated and not fit.no_decay else 0.0
    peaks = analysis.find_peaks(spec, threshold_fraction=cfg.analysis.peak_threshold,
                                f_min=f_min)
    return fit, residual, spec, peaks


def _write_fit_json(fit, path):
    _write_json_atomic(
        {
            "model": fit.model,
            "I0": fit.i0,
            "T_m_us": fit.t_m * 1e6,
            "x": fit.exponent,
            "baseline": fit.baseline,
            "residual": fit.residual_norm,
            "no_decay": fit.no_decay,
        },
        path,
    )


def _write_peaks_csv(peaks, path):
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["f_MHz", "amplitude", "label"])
        for p in peaks:
            w.writerow([f"{p.freq * 1e-6:.17g}", f"{p.amplitude:.17g}", p.label])


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


def cmd_echo(args) -> int:
    cfg = _load_run_config(args)
    params = cfg.model.at_detuning(cfg.detuning_mt * 1e-3)
    cfg.jobs = dynamics.worker_count(cfg.jobs, cfg.bath.n_realizations)
    with _run_directory(cfg, "echo", detuning_mT=cfg.detuning_mt) as result:
        (avg,) = dynamics.field_sweep(cfg.model, cfg.bath, cfg.sequence,
                                      [cfg.detuning_mt * 1e-3], jobs=cfg.jobs)
        fit, residual, spec, peaks = _analyze(avg, cfg, params.proton_larmor())
        rows = analysis.peak_map([params.B0], [peaks], params.gamma_H, spec.bin_width)
        # peak_map emits a row at the exact frequency of every peak
        labels = {r.freq: r.label for r in rows}
        for p in peaks:
            p.label = labels[p.freq]
        avg.write_csv(result("trace.csv"))
        avg.write_sidecar(result("trace.json"))
        residual.write_csv(result("residual.csv"))
        spec.write_csv(result("spectrum.csv"))
        _write_peaks_csv(peaks, result("peaks.csv"))
        _write_fit_json(fit, result("fit.json"))
    print(f"echo: detuning {cfg.detuning_mt:+.3f} mT, {len(peaks)} peaks, "
          f"T_m = {fit.t_m * 1e6:.3f} us -> {Path(cfg.out_dir)}")
    return 0


def _sweep_field_job(cfg, db_mt, trace_csv, trace_json, spectrum_csv, trace):
    """Write one sweep field's trace and spectrum files; return
    ``(B0, fit, peaks, bin_width)`` for the sweep's summary files."""
    trace.write_csv(trace_csv)
    trace.write_sidecar(trace_json)
    params = cfg.model.at_detuning(db_mt * 1e-3)
    fit, _, spec, peaks = _analyze(trace, cfg, params.proton_larmor())
    spec.write_csv(spectrum_csv)
    return params.B0, fit, peaks, spec.bin_width


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args)
    grid_mt = cfg.detuning_grid_mt()
    cfg.jobs = dynamics.worker_count(cfg.jobs, grid_mt.size * cfg.bath.n_realizations)
    with _run_directory(cfg, "sweep", detuning_grid_mT=[float(x) for x in grid_mt]) as result:
        # field_sweep writes and analyses each field as soon as its average
        # exists.  Every file is named here first, so a failed run removes them all.
        finish = []
        for db_mt in grid_mt:
            tag = f"{db_mt:+08.3f}mT"
            finish.append(functools.partial(
                _sweep_field_job, cfg, db_mt, result(f"trace_{tag}.csv"),
                result(f"trace_{tag}.json"), result(f"spectrum_{tag}.csv")))
        fields = dynamics.field_sweep(cfg.model, cfg.bath, cfg.sequence, grid_mt * 1e-3,
                                      jobs=cfg.jobs, finish=finish)
        b0s, fits, peaks_per_field, bin_widths = zip(*fields)
        rows = analysis.peak_map(b0s, peaks_per_field, cfg.model.gamma_H, bin_widths[-1])
        analysis.write_peak_map_csv(rows, result("peak_map.csv"))
        import csv

        with open(result("tm_vs_detuning.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["detuning_mT", "B0_mT", "T_m_us", "x", "I0", "residual", "no_decay"])
            for db_mt, fit in zip(grid_mt, fits):
                w.writerow([
                    f"{db_mt:.17g}",
                    f"{(cfg.model.B_min * 1e3 + db_mt):.17g}",
                    f"{fit.t_m * 1e6:.17g}",
                    f"{fit.exponent:.17g}",
                    f"{fit.i0:.17g}",
                    f"{fit.residual_norm:.17g}",
                    str(fit.no_decay),
                ])
    print(f"sweep: {grid_mt.size} fields x {cfg.bath.n_realizations} realizations "
          f"-> {Path(cfg.out_dir)}")
    return 0


def cmd_validate(args) -> int:
    results = validate.run_all(inject_e_sign_error=args.inject_e_sign_error)
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

    def common(p, sweep_range=False):
        p.add_argument("--config", help="flat KEY = VALUE config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="bath RNG seed (unsigned 64-bit)")
        p.add_argument("--jobs", type=int, help="worker processes")
        p.add_argument("--preset", choices=["n1", "n7"], help="named parameter set")
        if sweep_range:
            p.add_argument("--start-mT", dest="start_mt", type=float)
            p.add_argument("--stop-mT", dest="stop_mt", type=float)
            p.add_argument("--step-mT", dest="step_mt", type=float)

    p_zeeman = sub.add_parser("zeeman", help="electronic spectrum vs field")
    common(p_zeeman, sweep_range=True)
    p_zeeman.set_defaults(func=cmd_zeeman)

    p_echo = sub.add_parser("echo", help="ensemble echo trace at one detuning")
    common(p_echo)
    p_echo.add_argument("--detuning-mT", dest="detuning_mt", type=float,
                        help="field detuning from the clock transition")
    p_echo.set_defaults(func=cmd_echo)

    p_sweep = sub.add_parser("sweep", help="detuning sweep with analysis products")
    common(p_sweep, sweep_range=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the built-in invariant suite")
    p_val.add_argument("--inject-e-sign-error", action="store_true",
                       help=argparse.SUPPRESS)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
