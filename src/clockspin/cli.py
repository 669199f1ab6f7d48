"""Command-line driver: zeeman, echo, sweep and validate subcommands.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure.
Every run directory receives a ``manifest.json`` (written atomically before
any result file) that suffices to reproduce the run bit for bit.
"""

import argparse
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


class _OutputSession:
    """Tracks result files so partial outputs are removed on failure."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.files.append(p)
        return p

    def cleanup(self):
        for p in self.files:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _manifest(cfg: config.RunConfig, command: str, extra: dict | None = None) -> dict:
    payload = {
        "software": "clockspin",
        "version": __version__,
        "command": command,
        "config": cfg.describe(),
    }
    if extra:
        payload.update(extra)
    return payload


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
    for attr, key in (
        ("start_mt", "start"), ("stop_mt", "stop"), ("step_mt", "step"),
    ):
        val = getattr(args, key + "_mt", None)
        if val is not None:
            prefix = "zeeman_" if args.subcommand == "zeeman" else "detuning_"
            setattr(cfg, prefix + attr, val)
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
    if grid_mt.size == 0:
        raise ValueError("zeeman field range is empty")
    out = _OutputSession(Path(cfg.out_dir))
    _write_json_atomic(_manifest(cfg, "zeeman"), out.out_dir / "manifest.json")
    try:
        from .hamiltonian import clock_frequency_curve

        spectrum = clock_frequency_curve(cfg.model, grid_mt * 1e-3)
        spectrum.write_csv(out.path("electron_spectrum.csv"))
    except BaseException:
        out.cleanup()
        raise
    print(f"zeeman: wrote {out.out_dir / 'electron_spectrum.csv'} ({grid_mt.size} fields)")
    return 0


def cmd_echo(args) -> int:
    cfg = _load_run_config(args)
    detuning_mt = args.detuning_mt if args.detuning_mt is not None else cfg.detuning_mt
    out = _OutputSession(Path(cfg.out_dir))
    _write_json_atomic(
        _manifest(cfg, "echo", {"detuning_mT": detuning_mt}),
        out.out_dir / "manifest.json",
    )
    try:
        params = cfg.model.at_detuning(detuning_mt * 1e-3)
        (avg,) = dynamics.field_sweep(cfg.model, cfg.bath, cfg.sequence,
                                      [detuning_mt * 1e-3], jobs=cfg.jobs)
        fit, residual, spec, peaks = _analyze(avg, cfg, params.proton_larmor())
        rows = analysis.peak_map([params.B0], [peaks], params.gamma_H, spec.bin_width)
        # peak_map emits a row at the exact frequency of every peak
        labels = {r.freq: r.label for r in rows}
        for p in peaks:
            p.label = labels[p.freq]
        avg.write_csv(out.path("trace.csv"))
        avg.write_sidecar(out.path("trace.json"))
        residual.write_csv(out.path("residual.csv"))
        spec.write_csv(out.path("spectrum.csv"))
        _write_peaks_csv(peaks, out.path("peaks.csv"))
        _write_fit_json(fit, out.path("fit.json"))
    except BaseException:
        out.cleanup()
        raise
    print(f"echo: detuning {detuning_mt:+.3f} mT, {len(peaks)} peaks, "
          f"T_m = {fit.t_m * 1e6:.3f} us -> {out.out_dir}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args)
    grid_mt = cfg.detuning_grid_mt()
    if grid_mt.size == 0:
        raise ValueError("detuning grid is empty")
    out = _OutputSession(Path(cfg.out_dir))
    _write_json_atomic(
        _manifest(cfg, "sweep", {"detuning_grid_mT": [float(x) for x in grid_mt]}),
        out.out_dir / "manifest.json",
    )
    try:
        averaged = dynamics.field_sweep(
            cfg.model, cfg.bath, cfg.sequence, grid_mt * 1e-3, jobs=cfg.jobs
        )
        b0s, peaks_per_field, tm_rows = [], [], []
        bin_hz = None
        for db_mt, trace in zip(grid_mt, averaged):
            tag = f"{db_mt:+08.3f}mT"
            trace.write_csv(out.path(f"trace_{tag}.csv"))
            trace.write_sidecar(out.path(f"trace_{tag}.json"))
            params = cfg.model.at_detuning(db_mt * 1e-3)
            fit, residual, spec, peaks = _analyze(trace, cfg, params.proton_larmor())
            spec.write_csv(out.path(f"spectrum_{tag}.csv"))
            bin_hz = spec.bin_width
            b0s.append(params.B0)
            peaks_per_field.append(peaks)
            tm_rows.append((db_mt, fit))
        rows = analysis.peak_map(b0s, peaks_per_field, cfg.model.gamma_H, bin_hz)
        analysis.write_peak_map_csv(rows, out.path("peak_map.csv"))
        import csv

        with open(out.path("tm_vs_detuning.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["detuning_mT", "B0_mT", "T_m_us", "x", "I0", "residual", "no_decay"])
            for db_mt, fit in tm_rows:
                w.writerow([
                    f"{db_mt:.17g}",
                    f"{(cfg.model.B_min * 1e3 + db_mt):.17g}",
                    f"{fit.t_m * 1e6:.17g}",
                    f"{fit.exponent:.17g}",
                    f"{fit.i0:.17g}",
                    f"{fit.residual_norm:.17g}",
                    str(fit.no_decay),
                ])
    except BaseException:
        out.cleanup()
        raise
    print(f"sweep: {grid_mt.size} fields x {cfg.bath.n_realizations} realizations -> {out.out_dir}")
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
