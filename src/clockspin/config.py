"""Run configuration: defaults, presets and the flat key-value config format.

Config files are plain text, one ``KEY = VALUE`` pair per line, ``#`` starts
a comment.  All keys are optional; the defaults reproduce the headline N=7
ensemble parameter-for-parameter.  Values at this boundary use human-scale
units (mT, MHz, kHz, us, K); ``_KEYS`` gives each key's power of ten to SI, and
a value is shifted by it exactly in decimal, so the text of ``describe()``
parses back to the same doubles.
"""

from dataclasses import dataclass, field, replace
from decimal import Decimal

import numpy as np

from .analysis import AnalysisOptions
from .bath import BathSpec
from .dynamics import _MAX_GRID_POINTS, SequenceConfig
from .hamiltonian import ModelParams


# key -> (RunConfig section or None for RunConfig itself, attribute, type,
#         power of ten from the key's unit to the attribute's SI unit)
_KEYS = {
    "D_GHz": ("model", "D", float, 9),
    "E_GHz": ("model", "E", float, 9),
    "gamma_e_GHz_per_T": ("model", "gamma_e", float, 9),
    "B_min_mT": ("model", "B_min", float, -3),
    "gamma_H_MHz_per_T": ("model", "gamma_H", float, 6),
    "bath_N": ("bath", "n_nuclei", int, 0),
    "A_mean_MHz": ("bath", "a_mean", float, 6),
    "A_halfwidth_MHz": ("bath", "a_halfwidth", float, 6),
    "psc_ratio": ("bath", "psc_ratio", float, 0),
    "D_pair_kHz": ("bath", "d_pair", float, 3),
    "n_realizations": ("bath", "n_realizations", int, 0),
    "seed": ("bath", "seed", int, 0),
    "angle_mode": ("bath", "angle_mode", str, 0),
    "tau_step_us": ("sequence", "tau_step", float, -6),
    "tau_max_us": ("sequence", "tau_max", float, -6),
    "temperature_K": ("sequence", "temperature", float, 0),
    "phi_half_rad": ("sequence", "phi_half", float, 0),
    "phi_pi_rad": ("sequence", "phi_pi", float, 0),
    "fit_model": ("analysis", "fit_model", str, 0),
    "spectrum_mode": ("analysis", "spectrum_mode", str, 0),
    "peak_threshold": ("analysis", "peak_threshold", float, 0),
    "detuning_start_mT": (None, "detuning_start_mt", float, 0),
    "detuning_stop_mT": (None, "detuning_stop_mt", float, 0),
    "detuning_step_mT": (None, "detuning_step_mt", float, 0),
    "detuning_mT": (None, "detuning_mt", float, 0),
    "zeeman_start_mT": (None, "zeeman_start_mt", float, 0),
    "zeeman_stop_mT": (None, "zeeman_stop_mt", float, 0),
    "zeeman_step_mT": (None, "zeeman_step_mt", float, 0),
    "out_dir": (None, "out_dir", str, 0),
    "jobs": (None, "jobs", int, 0),
}

# Named parameter sets, as config text.  n1 is a single proton with A_sc = 1 MHz
# (A_psc = 0.5 MHz), one realization and a 25 ns delay step, so that modulation
# out to the sum line at large detuning stays below Nyquist.
_PRESETS = {
    "n7": {},
    "n1": {"bath_N": "1", "A_mean_MHz": "1", "A_halfwidth_MHz": "0", "psc_ratio": "0.5",
           "n_realizations": "1", "tau_step_us": "0.025"},
}


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
        """``{key: config-file text}`` of every key whose value is not None.

        Written out as ``KEY = VALUE`` lines, it parses back to this
        configuration bit for bit: a float is its shortest round-trip repr,
        shifted to the key's unit in decimal.
        """
        text = {}
        for key, (section, attr, kind, power) in _KEYS.items():
            value = getattr(self if section is None else getattr(self, section), attr)
            if value is not None:
                text[key] = (format(Decimal(repr(float(value))).scaleb(-power).normalize(), "f")
                             if kind is float else str(value))
        return text


def _override(cfg: RunConfig, values: dict) -> RunConfig:
    """``cfg`` with the ``{key: text}`` of ``values`` parsed and set, each
    section rebuilt (and so validated) once."""
    updates = {}
    for key, text in values.items():
        if key not in _KEYS:
            raise ValueError(f"unknown key {key!r}")
        section, attr, kind, power = _KEYS[key]
        if kind is str and ("#" in text or text != text.strip()):
            # such a value would not parse back from a config file
            raise ValueError(f"{key}: {text!r} holds '#' or leading or trailing blanks")
        try:
            value = float(Decimal(text).scaleb(power)) if kind is float else kind(text)
        except (ValueError, ArithmeticError):
            raise ValueError(f"{key}: invalid {kind.__name__} value {text!r}") from None
        updates.setdefault(section, {})[attr] = value
    top = updates.pop(None, {})
    sections = {s: replace(getattr(cfg, s), **attrs) for s, attrs in updates.items()}
    return replace(cfg, **sections, **top)


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``KEY = VALUE`` lines on top of ``base`` (or the defaults)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected KEY = VALUE, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value
    return _override(base if base is not None else RunConfig(), values)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), base=base)


def apply_preset(cfg: RunConfig, preset: str) -> RunConfig:
    """Named parameter sets: ``n7`` (headline ensemble) and ``n1`` (single proton)."""
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    return _override(cfg, _PRESETS[preset])
