"""Randomized proton-bath realizations and coupling-strength estimates.

A bath realization fixes the secular/pseudosecular hyperfine couplings of
each proton and the orientation angle of every proton pair.  Sampling is
driven by a counter-based Philox generator keyed on ``(seed, index)``, so a
realization is fully determined by those two integers on any platform.
"""

from dataclasses import dataclass

import numpy as np

from . import constants
from .echotrace import EchoTrace

# Largest bath built.  At N = 10 (d = 2048) a trace holds about 6 complex d x d
# matrices, 384 MiB per worker, and takes on the order of ten minutes; at
# N = 12 one such matrix is already 1 GiB.
_MAX_NUCLEI = 10


@dataclass(frozen=True)
class BathSpec:
    """Sampling distribution for bath realizations.

    Defaults give the headline N=7 ensemble: couplings uniform on 7-9 MHz
    (mean 8 MHz), A_psc = A_sc/2, pair coupling 10 kHz, ten realizations.
    """

    n_nuclei: int = 7
    a_mean: float = 8e6
    a_halfwidth: float = 1e6
    psc_ratio: float = 0.5
    d_pair: float = 10e3
    n_realizations: int = 10
    seed: int = 1234

    def __post_init__(self):
        if not 1 <= self.n_nuclei <= _MAX_NUCLEI:
            raise ValueError(f"n_nuclei must lie in [1, {_MAX_NUCLEI}]")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        for name in ("a_mean", "a_halfwidth", "psc_ratio", "d_pair"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.a_halfwidth < 0:
            raise ValueError("a_halfwidth must be >= 0")
        if self.psc_ratio < 0:
            raise ValueError("psc_ratio must be >= 0")


@dataclass
class BathRealization:
    """One sampled set of couplings and pair angles for N protons."""

    a_sc: np.ndarray      # secular couplings, Hz
    a_psc: np.ndarray     # pseudosecular couplings, Hz
    theta: np.ndarray     # symmetric N x N pair angles, rad (diagonal unused)
    d_pair: float         # pair dipolar magnitude, Hz
    seed: int = 0
    index: int = 0

    @property
    def n_nuclei(self) -> int:
        return len(self.a_sc)


def sample_bath(spec: BathSpec, index: int) -> BathRealization:
    """Draw realization ``index`` of the given spec.

    Deterministic for ``(spec.seed, index)``: the Philox key is the pair
    itself.  Draw order is fixed (couplings first, then the upper-triangle
    pair angles row by row).  Pair orientations are isotropic: cos(theta) is
    uniform on [-1, 1].
    """
    if index < 0:
        raise ValueError("realization index must be >= 0")
    rng = np.random.Generator(
        np.random.Philox(key=np.array([spec.seed, index], dtype=np.uint64))
    )
    n = spec.n_nuclei
    a_sc = rng.uniform(spec.a_mean - spec.a_halfwidth, spec.a_mean + spec.a_halfwidth, n)
    theta = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    if iu.size:
        angles = np.arccos(rng.uniform(-1.0, 1.0, iu.size))
        theta[iu, ju] = angles
        theta[ju, iu] = angles
    return BathRealization(
        a_sc=a_sc,
        a_psc=spec.psc_ratio * a_sc,
        theta=theta,
        d_pair=spec.d_pair,
        seed=spec.seed,
        index=index,
    )


def dipolar_strength(r: float, mu1: float, mu2: float, geometry: str) -> float:
    """Point-dipole coupling strength in Hz.

    Args:
        r: separation in meters (> 0).
        mu1, mu2: magnetic moments in J/T.
        geometry: ``"electron-nuclear"`` for ``2 mu0 mu1 mu2 / (4 pi h r^3)``
            or ``"nuclear-pair"`` for ``mu0 mu1 mu2 / (8 pi h r^3)``.
    """
    if r <= 0:
        raise ValueError("separation must be positive")
    base = constants.MU0 * mu1 * mu2 / (constants.PLANCK * r**3)
    if geometry == "electron-nuclear":
        return 2.0 * base / (4.0 * np.pi)
    if geometry == "nuclear-pair":
        return base / (8.0 * np.pi)
    raise ValueError(f"unknown geometry {geometry!r}")


def ensemble_average(traces) -> EchoTrace:
    """Pointwise mean of echo traces sharing one tau grid.  The meta drops the
    members' ``bath_index`` and ``a_sc_hz``; ``ensemble`` has each seed and index."""
    traces = list(traces)
    if not traces:
        raise ValueError("no traces to average")
    tau = traces[0].tau
    for t in traces[1:]:
        if t.tau.shape != tau.shape or not np.array_equal(t.tau, tau):
            raise ValueError("tau grids differ between ensemble members")
    # Canonical member order makes the floating-point mean exactly
    # permutation-invariant.
    order = sorted(range(len(traces)), key=lambda i: traces[i].intensity.tobytes())
    stack = np.stack([traces[i].intensity for i in order])
    meta = {k: v for k, v in traces[0].meta.items() if k not in ("bath_index", "a_sc_hz")}
    meta["ensemble"] = [
        {"seed": traces[i].meta.get("bath_seed"), "index": traces[i].meta.get("bath_index")}
        for i in order
    ]
    meta["n_realizations"] = len(traces)
    return EchoTrace(tau=tau.copy(), intensity=stack.mean(axis=0), meta=meta)
