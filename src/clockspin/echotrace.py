"""Echo trace container and serialization."""

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class EchoTrace:
    """Echo intensity versus interpulse delay tau.

    ``intensity[i]`` is the Sz expectation recorded at physical time
    ``2 * tau[i]`` after the first pulse.  The grid is strictly increasing
    with a uniform step.
    """

    tau: np.ndarray
    intensity: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        if self.tau.ndim != 1 or self.tau.shape != self.intensity.shape:
            raise ValueError("tau and intensity must be matching 1-D arrays")
        if self.tau.size >= 2:
            steps = np.diff(self.tau)
            if np.any(steps <= 0):
                raise ValueError("tau grid must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        """Physical evolution times 2*tau (s)."""
        return 2.0 * self.tau

    def write_csv(self, path):
        write_float_csv(path, "tau_us,intensity", self.tau * 1e6, self.intensity)

    def write_sidecar(self, path):
        write_json(path, self.meta)


def write_float_csv(path, header, *columns):
    """Columns as ``csv.writer`` writes them (floats ``%.17g``, str cells as
    they are, ``\\r\\n`` line ends), built as one string and written in one call."""
    cells = [[v if isinstance(v, str) else f"{v:.17g}"
              for v in (c.tolist() if isinstance(c, np.ndarray) else c)] for c in columns]
    rows = "".join(",".join(row) + "\r\n" for row in zip(*cells))
    with open(path, "w", newline="") as fh:
        fh.write(f"{header}\r\n{rows}")


def write_json(path, payload):
    """``payload`` as indented, key-sorted JSON with a final newline, written to
    a temporary file beside ``path`` and moved into place."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonify)
        fh.write("\n")
    os.replace(tmp, path)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")
