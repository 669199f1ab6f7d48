"""Randomized proton-bath realizations and coupling-strength estimates.

A bath realization fixes the secular/pseudosecular hyperfine couplings of
each proton and the orientation angle of every proton pair.  Sampling is
driven by the counter-based Philox4x64-10 generator (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11) keyed on ``(seed, index)``, so a
realization is fully determined by those two integers on any platform.

The generator is a port over Python integers, ``_philox_uniforms``, that draws
exactly what ``np.random.Generator(np.random.Philox(key=[seed, index]))``
draws through ``uniform``: the tests hold the two equal bit for bit.  Importing
``numpy.random`` would load it, ``secrets``, ``hmac`` and OpenSSL into every
sweep worker, 5-6 MiB of RSS each at numpy 2.4, for a few dozen numbers per
realization.
"""

from dataclasses import dataclass

import numpy as np

from . import constants
from .echotrace import EchoTrace

# Largest bath built.  At N = 10 (d = 2048) the echo engine peaks at 3.7 d^2
# complex entries (3.6-3.7 measured at N = 7-9), about 235 MiB per worker, and a
# trace takes on the order of ten minutes; at N = 12 one complex d x d
# matrix is already 1 GiB.
_MAX_NUCLEI = 10

_MASK64 = 2**64 - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)     # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)     # Weyl key increments


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


def _philox_uniforms(seed: int, index: int, count: int) -> list:
    """The first ``count`` doubles on [0, 1) of Philox4x64-10 keyed on ``(seed, index)``.

    As numpy's ``Philox(key=[seed, index])``: the 256-bit counter starts at 0
    and is incremented before each block of four 64-bit outputs, which are
    used in order, and an output ``x`` becomes the double ``(x >> 11) * 2**-53``.
    """
    out = []
    counter = 0
    while len(out) < count:
        counter += 1
        x0, x1, x2, x3 = ((counter >> s) & _MASK64 for s in (0, 64, 128, 192))
        k0, k1 = seed, index
        for _ in range(10):
            p0, p1 = _PHILOX_M[0] * x0, _PHILOX_M[1] * x2
            x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0, p1 & _MASK64,
                              (p0 >> 64) ^ x3 ^ k1, p0 & _MASK64)
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        out += [(x >> 11) * 2.0**-53 for x in (x0, x1, x2, x3)]
    return out[:count]


def _uniform(low, high, u):
    """``u`` mapped onto [low, high) as numpy's ``Generator.uniform`` maps it."""
    low, high = float(low), float(high)
    return np.array([low + (high - low) * x for x in u])


def sample_bath(spec: BathSpec, index: int) -> BathRealization:
    """Draw realization ``index`` of the given spec.

    Deterministic for ``(spec.seed, index)``: the Philox key is the pair
    itself.  Draw order is fixed (couplings first, then the upper-triangle
    pair angles row by row, from one stream).  Pair orientations are
    isotropic: cos(theta) is uniform on [-1, 1].
    """
    if not 0 <= index < 2**64:
        raise ValueError("realization index must lie in [0, 2**64)")
    n = spec.n_nuclei
    iu, ju = np.triu_indices(n, k=1)
    u = _philox_uniforms(spec.seed, index, n + iu.size)
    a_sc = _uniform(spec.a_mean - spec.a_halfwidth, spec.a_mean + spec.a_halfwidth, u[:n])
    theta = np.zeros((n, n))
    if iu.size:
        angles = np.arccos(_uniform(-1.0, 1.0, u[n:]))
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
    """Pointwise mean of echo traces sharing one tau grid.  The meta is the
    first member's, by ``(seed, index)``, without its ``bath_index`` and
    ``a_sc_hz``; ``ensemble`` lists each member's seed and index in that order."""
    traces = list(traces)
    if not traces:
        raise ValueError("no traces to average")
    tau = traces[0].tau
    for t in traces[1:]:
        if t.tau.shape != tau.shape or not np.array_equal(t.tau, tau):
            raise ValueError("tau grids differ between ensemble members")
    # Summing in the order of the intensity bytes makes the floating-point
    # mean exactly permutation-invariant; the members are listed by their
    # labels, so a last-bit change in a trace does not reorder them.
    stack = np.stack(sorted((t.intensity for t in traces), key=np.ndarray.tobytes))
    members = [{"seed": t.meta.get("bath_seed"), "index": t.meta.get("bath_index")}
               for t in traces]
    order = sorted(range(len(traces)), key=lambda i: (members[i]["seed"], members[i]["index"]))
    meta = {k: v for k, v in traces[order[0]].meta.items() if k not in ("bath_index", "a_sc_hz")}
    meta["ensemble"] = [members[i] for i in order]
    meta["n_realizations"] = len(traces)
    return EchoTrace(tau=tau.copy(), intensity=stack.mean(axis=0), meta=meta)
