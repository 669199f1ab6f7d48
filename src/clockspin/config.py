"""Run configuration: defaults, presets and the flat key-value config format.

Config files are plain text, one ``KEY = VALUE`` pair per line, ``#`` starts
a comment.  All keys are optional; the defaults reproduce the headline N=7
ensemble parameter-for-parameter.  Values at this boundary use human-scale
units (mT, MHz, kHz, us, K); they are converted to SI internally.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .bath import BathSpec
from .dynamics import _MAX_GRID_POINTS, SequenceConfig
from .hamiltonian import ModelParams


@dataclass
class AnalysisOptions:
    fit_model: str = "stretched"
    spectrum_mode: str = "simulation"
    peak_threshold: float = 0.1

    def __post_init__(self):
        if not 0 < self.peak_threshold < 1:
            raise ValueError("peak_threshold must lie in (0, 1)")


@dataclass
class RunConfig:
    model: ModelParams = field(default_factory=ModelParams)
    bath: BathSpec = field(default_factory=BathSpec)
    sequence: SequenceConfig = field(default_factory=SequenceConfig)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    detuning_start_mt: float = -5.0
    detuning_stop_mt: float = 5.0
    detuning_step_mt: float = 0.5
    detuning_mt: float = 0.0        # single-field commands
    zeeman_start_mt: float = -100.0
    zeeman_stop_mt: float = 350.0
    zeeman_step_mt: float = 0.5
    out_dir: str = "runs"
    jobs: int | None = None         # None: dynamics.worker_count picks the default

    def _grid_mt(self, name: str):
        """``{name}_start_mt`` to ``{name}_stop_mt`` in whole ``{name}_step_mt`` steps.

        A grid has at most ``_MAX_GRID_POINTS`` (one million) points; a longer
        or non-finite one is refused before it is built.
        """
        start, stop, step = (getattr(self, f"{name}_{k}_mt") for k in ("start", "stop", "step"))
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise ValueError(f"{name} range bounds must be finite")
        if not (np.isfinite(step) and step > 0):
            raise ValueError(f"{name}_step_mT must be positive and finite")
        steps = (stop - start) / step
        if not np.isfinite(steps):
            raise ValueError(f"{name} range has no finite number of steps")
        n = int(round(steps))
        if n < 0:
            raise ValueError(f"{name} range is empty")
        if n + 1 > _MAX_GRID_POINTS:
            raise ValueError(f"{name} range has {n + 1} points, more than {_MAX_GRID_POINTS}")
        return start + step * np.arange(n + 1)

    def detuning_grid_mt(self):
        return self._grid_mt("detuning")

    def zeeman_grid_mt(self):
        return self._grid_mt("zeeman")

    def describe(self) -> dict:
        """Full parameter set for manifests (human-scale units)."""
        m, b, s = self.model, self.bath, self.sequence
        return {
            "model": {
                "D_GHz": m.D / 1e9, "E_GHz": m.E / 1e9,
                "gamma_e_GHz_per_T": m.gamma_e / 1e9,
                "B_min_mT": m.B_min * 1e3,
                "gamma_H_MHz_per_T": m.gamma_H / 1e6,
            },
            "bath": {
                "N": b.n_nuclei, "A_mean_MHz": b.a_mean / 1e6,
                "A_halfwidth_MHz": b.a_halfwidth / 1e6,
                "psc_ratio": b.psc_ratio, "D_pair_kHz": b.d_pair / 1e3,
                "n_realizations": b.n_realizations, "seed": b.seed,
                "angle_mode": b.angle_mode,
            },
            "sequence": {
                "tau_step_us": s.tau_step * 1e6, "tau_max_us": s.tau_max * 1e6,
                "temperature_K": s.temperature,
                "phi_half_rad": s.phi_half, "phi_pi_rad": s.phi_pi,
            },
            "analysis": {
                "fit_model": self.analysis.fit_model,
                "spectrum_mode": self.analysis.spectrum_mode,
                "peak_threshold": self.analysis.peak_threshold,
            },
            "detuning_start_mT": self.detuning_start_mt,
            "detuning_stop_mT": self.detuning_stop_mt,
            "detuning_step_mT": self.detuning_step_mt,
            "detuning_mT": self.detuning_mt,
            "jobs": self.jobs,
        }


# key -> (section, attribute, scale to SI, value parser)
_FLOAT_KEYS = {
    "D_GHz": ("model", "D", 1e9),
    "E_GHz": ("model", "E", 1e9),
    "gamma_e_GHz_per_T": ("model", "gamma_e", 1e9),
    "B_min_mT": ("model", "B_min", 1e-3),
    "gamma_H_MHz_per_T": ("model", "gamma_H", 1e6),
    "A_mean_MHz": ("bath", "a_mean", 1e6),
    "A_halfwidth_MHz": ("bath", "a_halfwidth", 1e6),
    "psc_ratio": ("bath", "psc_ratio", 1.0),
    "D_pair_kHz": ("bath", "d_pair", 1e3),
    "tau_step_us": ("sequence", "tau_step", 1e-6),
    "tau_max_us": ("sequence", "tau_max", 1e-6),
    "temperature_K": ("sequence", "temperature", 1.0),
    "phi_half_rad": ("sequence", "phi_half", 1.0),
    "phi_pi_rad": ("sequence", "phi_pi", 1.0),
    "detuning_start_mT": (None, "detuning_start_mt", 1.0),
    "detuning_stop_mT": (None, "detuning_stop_mt", 1.0),
    "detuning_step_mT": (None, "detuning_step_mt", 1.0),
    "detuning_mT": (None, "detuning_mt", 1.0),
    "zeeman_start_mT": (None, "zeeman_start_mt", 1.0),
    "zeeman_stop_mT": (None, "zeeman_stop_mt", 1.0),
    "zeeman_step_mT": (None, "zeeman_step_mt", 1.0),
    "peak_threshold": ("analysis", "peak_threshold", 1.0),
}
_INT_KEYS = {
    "bath_N": ("bath", "n_nuclei"),
    "n_realizations": ("bath", "n_realizations"),
    "seed": ("bath", "seed"),
    "jobs": (None, "jobs"),
}
_STR_KEYS = {
    "angle_mode": ("bath", "angle_mode"),
    "fit_model": ("analysis", "fit_model"),
    "spectrum_mode": ("analysis", "spectrum_mode"),
    "out_dir": (None, "out_dir"),
}


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``KEY = VALUE`` lines on top of ``base`` (or the defaults)."""
    cfg = base if base is not None else RunConfig()
    updates = {"model": {}, "bath": {}, "sequence": {}, "analysis": {}, None: {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected KEY = VALUE, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in _FLOAT_KEYS:
            section, attr, scale = _FLOAT_KEYS[key]
            updates[section][attr] = float(value) * scale
        elif key in _INT_KEYS:
            section, attr = _INT_KEYS[key]
            updates[section][attr] = int(value)
        elif key in _STR_KEYS:
            section, attr = _STR_KEYS[key]
            updates[section][attr] = value
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    if updates["model"]:
        cfg = replace(cfg, model=replace(cfg.model, **updates["model"]))
    if updates["bath"]:
        cfg = replace(cfg, bath=replace(cfg.bath, **updates["bath"]))
    if updates["sequence"]:
        cfg = replace(cfg, sequence=replace(cfg.sequence, **updates["sequence"]))
    if updates["analysis"]:
        cfg = replace(cfg, analysis=replace(cfg.analysis, **updates["analysis"]))
    if updates[None]:
        cfg = replace(cfg, **updates[None])
    return cfg


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), base=base)


def apply_preset(cfg: RunConfig, preset: str) -> RunConfig:
    """Named parameter sets: ``n7`` (headline ensemble) and ``n1`` (single proton).

    The n1 preset uses A_sc = 1 MHz (A_psc = 0.5 MHz), one realization and a
    25 ns delay step so that modulation out to the sum line at large detuning
    stays below Nyquist.
    """
    if preset == "n7":
        return cfg
    if preset == "n1":
        bath = replace(cfg.bath, n_nuclei=1, a_mean=1e6, a_halfwidth=0.0,
                       psc_ratio=0.5, n_realizations=1)
        seq = replace(cfg.sequence, tau_step=25e-9)
        return replace(cfg, bath=bath, sequence=seq)
    raise ValueError(f"unknown preset {preset!r}")
