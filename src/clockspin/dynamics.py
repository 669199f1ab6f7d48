"""Pulses, pulse calibration, the Hahn-echo engine and field sweeps.

All phase evolution uses ``exp(-i 2 pi f tau)`` with Hamiltonians in Hz.  The
two-pulse sequence is ``P(phi_half) - tau - P(phi_pi) - tau - readout`` with
instantaneous pulses ``exp[i phi {Sx,Sy}/2]`` acting on the electron only, and
the echo observable is the full-system expectation of the embedded Sz at the
readout time 2*tau.

The production engine exploits an exact structural property of the model:
nothing in H_tot, the pulses or the observable couples the ``m_S = 0`` electron
sector to the ``{up, down}`` sector, and the observable vanishes on the former.
The sequence is therefore evolved on the ``2 * 2**N``-dimensional
``{up, down} (x) bath`` block, with the ``m_S = 0`` block entering only through
the thermal normalization.  The dense full-space reference that checks this
engine lives in ``validate``.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import __version__ as _pkg_version
from . import bath as bath_mod
from . import constants, hamiltonian, spinops
from .echotrace import EchoTrace
from .errors import CalibrationError
from .hamiltonian import ModelParams

_TAU_CHUNK = 16


@dataclass(frozen=True)
class SequenceConfig:
    """Hahn-echo sequence settings.

    Defaults: 100 ns delay increments out to 100 us at 5 K.  Pulse angles of
    ``None`` are calibrated numerically per field (see ``calibrate_pulses``).
    """

    tau_step: float = 100e-9
    tau_max: float = 100e-6
    temperature: float = 5.0
    phi_half: float | None = None
    phi_pi: float | None = None

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    def tau_grid(self) -> np.ndarray:
        n = int(round(self.tau_max / self.tau_step))
        if n < 1:
            raise ValueError("tau_max must allow at least one step")
        return self.tau_step * np.arange(1, n + 1)


def _electron_pulse(phi: float) -> np.ndarray:
    """3x3 unitary ``exp[i phi {Sx,Sy}/2]`` in closed form.

    The generator J = {Sx,Sy} satisfies J^2 = P and J^3 = J with P the
    projector onto the m_S = +-1 subspace, so the exponential is
    ``1 + (cos(phi/2) - 1) P + i sin(phi/2) J``.
    """
    _, _, _, ac, _, _ = spinops.spin1_generators()
    proj = np.diag([1.0, 0.0, 1.0]).astype(complex)
    return (
        np.eye(3, dtype=complex)
        + (np.cos(phi / 2.0) - 1.0) * proj
        + 1j * np.sin(phi / 2.0) * ac
    )


def calibrate_pulses(h_electronic: np.ndarray, tol: float = 1e-4):
    """Numerically calibrate the pulse angles against the electronic spectrum.

    Returns:
        ``(phi_half, phi_pi)``: phi_pi maximizes the population transfer
        between the two lowest electronic eigenstates over (0, pi]; phi_half
        equalizes the two populations starting from the ground state.

    Raises:
        CalibrationError: if the pulse cannot move at least half the
            population (no usable maximum).
    """
    vals, vecs = hamiltonian.eigensolve(h_electronic)
    g, e = vecs[:, 0], vecs[:, 1]

    def transfer(phi):
        return abs(e.conj() @ _electron_pulse(phi) @ g) ** 2

    coarse = np.linspace(1e-3, np.pi, 64)
    best = coarse[np.argmax([transfer(p) for p in coarse])]
    lo, hi = max(best - 0.2, 1e-6), min(best + 0.2, np.pi)
    res = minimize_scalar(
        lambda p: -transfer(p), bounds=(lo, hi), method="bounded",
        options={"xatol": tol},
    )
    phi_pi = float(res.x)
    if transfer(np.pi) >= transfer(phi_pi):
        phi_pi = np.pi
    if transfer(phi_pi) < 0.5:
        raise CalibrationError(
            f"maximum population transfer {transfer(phi_pi):.3f} < 0.5"
        )

    def imbalance(phi):
        psi = _electron_pulse(phi) @ g
        return abs(e.conj() @ psi) ** 2 - abs(g.conj() @ psi) ** 2

    phi_half = float(brentq(imbalance, 1e-6, phi_pi, xtol=tol))
    return phi_half, phi_pi


def _resolved_angles(params: ModelParams, seq: SequenceConfig):
    if seq.phi_half is None or seq.phi_pi is None:
        phi_half, phi_pi = calibrate_pulses(hamiltonian.build_electronic(params))
        return (
            seq.phi_half if seq.phi_half is not None else phi_half,
            seq.phi_pi if seq.phi_pi is not None else phi_pi,
        )
    return seq.phi_half, seq.phi_pi


def _trace_meta(params, bath, seq, phi_half, phi_pi):
    meta = {
        "model": {
            "D_Hz": params.D, "E_Hz": params.E, "gamma_e_Hz_per_T": params.gamma_e,
            "B0_T": params.B0, "B_min_T": params.B_min, "gamma_H_Hz_per_T": params.gamma_H,
        },
        "detuning_T": params.detuning,
        "sequence": {
            "tau_step_s": seq.tau_step, "tau_max_s": seq.tau_max,
            "temperature_K": seq.temperature,
            "phi_half_rad": phi_half, "phi_pi_rad": phi_pi,
        },
        "engine": "block",
        "version": _pkg_version,
    }
    if bath is not None:
        meta["bath_seed"] = bath.seed
        meta["bath_index"] = bath.index
        meta["n_nuclei"] = bath.n_nuclei
        meta["a_sc_hz"] = list(map(float, bath.a_sc))
    else:
        meta["n_nuclei"] = 0
    return meta


def _block_pulse(phi: float, nb: int) -> np.ndarray:
    """Pulse restricted to the {up,down} block: exp[i phi sigma_y / 2] (x) 1."""
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.kron(np.array([[c, s], [-s, c]], dtype=complex), np.eye(nb, dtype=complex))


def _echo_block_engine(params, bath, seq, tau):
    h2, h0 = hamiltonian.block_hamiltonians(params, bath)
    nb = h0.shape[0]
    d = 2 * nb
    f2, v2 = hamiltonian.eigensolve(h2)
    e0 = np.linalg.eigvalsh(h0)

    beta_h = constants.PLANCK / (constants.KBOLTZ * seq.temperature)
    e_ref = min(f2.min(), e0.min())
    w2 = np.exp(-beta_h * (f2 - e_ref))
    z_total = w2.sum() + np.exp(-beta_h * (e0 - e_ref)).sum()
    w2 /= z_total

    phi_half, phi_pi = _resolved_angles(params, seq)
    p_half = v2.conj().T @ _block_pulse(phi_half, nb) @ v2
    p_pi = v2.conj().T @ _block_pulse(phi_pi, nb) @ v2
    sz_eig = v2.conj().T @ np.kron(np.diag([1.0, -1.0]).astype(complex),
                                   np.eye(nb, dtype=complex)) @ v2

    # State after the first pulse, in the eigenbasis (rho_eq is diagonal there).
    a = (p_half * w2) @ p_half.conj().T
    szt = np.ascontiguousarray(sz_eig.T)

    # With U(tau) diagonal in the eigenbasis, the sequence reduces per tau to
    #   echo = sum_jk (Q a Q^dag)[j,k] * SzT[j,k] * u[j] conj(u[k]),
    # where u = exp(-i 2 pi f tau) and Q = P_pi * u[None, :] (column scaling).
    # Both dense products share a fixed factor, so each tau chunk costs two
    # large GEMMs plus O(d^2) elementwise work.
    intensity = np.empty(tau.size)
    for start in range(0, tau.size, _TAU_CHUNK):
        ts = tau[start:start + _TAU_CHUNK]
        nt = ts.size
        u = np.exp(-2j * np.pi * np.outer(ts, f2))               # (nt, d)
        q = p_pi[None, :, :] * u[:, None, :]                     # (nt, d, d)
        g = q.reshape(nt * d, d) @ a                             # GEMM 1
        b = g.reshape(nt, d, d) @ q.conj().transpose(0, 2, 1)    # GEMM 2 (batched)
        b *= szt[None, :, :]
        vals = np.einsum("tj,tj->t", u, (b @ u.conj()[:, :, None])[:, :, 0])
        intensity[start:start + nt] = vals.real
    return intensity, phi_half, phi_pi


def hahn_echo_trace(params: ModelParams, bath, seq: SequenceConfig) -> EchoTrace:
    """Simulate one two-pulse echo trace.

    Args:
        params: model parameters (B0 sets the detuning).
        bath: a ``BathRealization`` or ``None`` for a bare electron.
        seq: sequence configuration.

    Returns:
        EchoTrace sampled on ``tau_step * (1..n)``; every tau point reuses a
        single eigendecomposition of the (time-independent) Hamiltonian.
    """
    tau = seq.tau_grid()
    intensity, phi_half, phi_pi = _echo_block_engine(params, bath, seq, tau)
    meta = _trace_meta(params, bath, seq, phi_half, phi_pi)
    return EchoTrace(tau=tau, intensity=intensity, meta=meta)


def _sweep_job(args):
    params, spec, seq, delta_b, index = args
    realization = bath_mod.sample_bath(spec, index)
    trace = hahn_echo_trace(params.at_detuning(delta_b), realization, seq)
    return trace


def field_sweep(params: ModelParams, spec, seq: SequenceConfig, detunings,
                jobs: int = 1):
    """Ensemble-averaged echo traces over a detuning grid.

    Every (field, realization) pair is an independent job; results are merged
    by (field index, realization index), so the output is identical for any
    worker count.
    """
    detunings = np.asarray(detunings, dtype=float)
    if detunings.size == 0:
        raise ValueError("detuning grid is empty")
    jobs_args = [
        (params, spec, seq, db, idx)
        for db in detunings
        for idx in range(spec.n_realizations)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_job, jobs_args, chunksize=1))
    else:
        results = [_sweep_job(a) for a in jobs_args]

    averaged = []
    nr = spec.n_realizations
    for i, db in enumerate(detunings):
        members = results[i * nr:(i + 1) * nr]
        avg = bath_mod.ensemble_average(members)
        avg.meta["detuning_T"] = float(db)
        avg.meta["B0_T"] = float(params.B_min + db)
        averaged.append(avg)
    return averaged

