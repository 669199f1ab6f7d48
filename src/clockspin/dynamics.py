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

On that block Sz = 2 Pi_up - 1 and the trace of rho is conserved, so the echo
is ``2 ||V_up D P_pi D L||_F^2 - sum(w)``, with D the diagonal delay
propagator in the eigenbasis, V_up the up-electron rows of the eigenvectors
and ``L = P_half diag(sqrt(w))`` a square root of the post-pulse state.
Projecting onto the d/2 up-electron rows first makes each tau point cost d^3
complex flops (two d/2 x d x d products) for the d = 2 * 2**N block; the
identity is exact, not an approximation.

The tau points are evolved in chunks of ``max(16, 8192 // (d/2 * d))``, so each
chunk's ``(nt d/2 x d)`` GEMM operand holds about 8192 complex entries
(128 KiB): 1024, 256 and 64 points at d = 4, 8 and 16, which spreads the
per-chunk Python overhead of a small bath over many points.  The floor of 16
points from d = 32 on keeps large baths at the chunk they always had, where
the GEMMs already run near the BLAS peak and a longer chunk only adds memory.
On one BLAS thread the echo's bits do not depend on the chunk length (the
tests check N = 1 to 5).

``field_sweep`` maps its jobs once, in one forked pool on one BLAS thread.  A
field is one job if its kernel work ``n_realizations * n_tau * d^3`` (complex
multiply-adds) is at most 2^30 (N <= 4 at 10 x 1000) and the sweep has at
least as many fields as workers; that job runs the traces, their average and
the field's ``finish`` and returns what ``finish`` returns.  Otherwise (a
costly field, or an echo on two workers) each realization is one job; the
caller averages and finishes each field as soon as its realizations are back,
while the pool runs on.
"""

import contextlib
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import __version__ as _pkg_version
from . import bath as bath_mod
from . import constants, hamiltonian, spinops
from .echotrace import EchoTrace
from .errors import CalibrationError
from .hamiltonian import ModelParams

_MAX_GRID_POINTS = 1_000_000     # largest tau or field grid clockspin builds
_FIELD_JOB_WORK = 2**30          # kernel work up to which one job runs a whole field

# Thread-count setters an OpenBLAS build may export, by symbol suffix and
# vendor prefix (numpy and scipy wheels each bundle a prefixed copy).
_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads", "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
)


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
        if not (np.isfinite(self.tau_step) and self.tau_step > 0):
            raise ValueError("tau_step must be positive and finite")
        if not np.isfinite(self.tau_max):
            raise ValueError("tau_max must be finite")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        steps = self.tau_max / self.tau_step
        if not (np.isfinite(steps) and 1 <= round(steps) <= _MAX_GRID_POINTS):
            raise ValueError(f"tau_max / tau_step must give 1 to {_MAX_GRID_POINTS} tau points")

    def tau_grid(self) -> np.ndarray:
        return self.tau_step * np.arange(1, round(self.tau_max / self.tau_step) + 1)


# The pulse generator J = {Sx,Sy} and the projector P onto m_S = +-1.
_PULSE_J = spinops.spin1_generators()[3]
_PULSE_P = np.diag([1.0, 0.0, 1.0]).astype(complex)
_EYE3 = np.eye(3, dtype=complex)


def _electron_pulse(phi: float) -> np.ndarray:
    """3x3 unitary ``exp[i phi {Sx,Sy}/2]`` in closed form.

    The generator J = {Sx,Sy} satisfies J^2 = P and J^3 = J with P the
    projector onto the m_S = +-1 subspace, so the exponential is
    ``1 + (cos(phi/2) - 1) P + i sin(phi/2) J``.
    """
    return _EYE3 + (np.cos(phi / 2.0) - 1.0) * _PULSE_P + 1j * np.sin(phi / 2.0) * _PULSE_J


def calibrate_pulses(h_electronic: np.ndarray):
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
        options={"xatol": 1e-4},
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

    phi_half = float(brentq(imbalance, 1e-6, phi_pi, xtol=1e-4))
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


def _tau_chunk(d: int) -> int:
    """Tau points per kernel chunk for a d-dimensional block (module docstring)."""
    return max(16, 8192 // (d // 2 * d))


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

    # Half-rank identity (module docstring), with D = diag(exp(-i 2 pi f tau)):
    #   echo = 2 ||V_up D P_pi D L||_F^2 - sum(w),  Pi_up = V_up^dag V_up.
    # V_up has d/2 rows, so each tau chunk costs two (nt * d/2 x d) @ (d x d)
    # GEMMs: d^3 complex flops per tau point.  A chunk's GEMM operand holds
    # about 8192 entries, and never fewer than 16 tau points (_tau_chunk).
    v_up = v2[:nb, :]
    l_half = p_half * np.sqrt(w2)
    intensity = np.empty(tau.size)
    chunk = _tau_chunk(d)
    for start in range(0, tau.size, chunk):
        ts = tau[start:start + chunk]
        nt = ts.size
        u = np.exp(-2j * np.pi * np.outer(ts, f2))[:, None, :]    # (nt, 1, d)
        x = (v_up[None, :, :] * u).reshape(nt * nb, d) @ p_pi       # GEMM 1
        x = (x.reshape(nt, nb, d) * u).reshape(nt * nb, d) @ l_half  # GEMM 2
        x = x.view(float).reshape(nt, -1)
        intensity[start:start + nt] = 2.0 * np.einsum("tk,tk->t", x, x)
    intensity -= w2.sum()
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
    return hahn_echo_trace(params.at_detuning(delta_b), bath_mod.sample_bath(spec, index), seq)


def _field_job(args, members=None):
    """The field's average, or ``finish(avg)``; traces the caller already has
    come as ``members``."""
    params, spec, seq, delta_b, finish = args
    if members is None:
        members = [_sweep_job((params, spec, seq, delta_b, k)) for k in range(spec.n_realizations)]
    avg = bath_mod.ensemble_average(members)
    avg.meta["detuning_T"] = float(delta_b)
    avg.meta["B0_T"] = float(params.B_min + delta_b)
    return avg if finish is None else finish(avg)


def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of every OpenBLAS mapped into this
    process; empty where ``/proc/self/maps`` cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:     # the mapped file is gone, e.g. "(deleted)"
            continue
        for set_name in _OPENBLAS_SET_THREADS:
            get_name = set_name.replace("_set_", "_get_")
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                get_threads, set_threads = getattr(lib, get_name), getattr(lib, set_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get_threads, set_threads))
    return controls


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the body on one OpenBLAS thread, then restore the thread counts."""
    controls = _openblas_thread_controls()
    saved = [get_threads() for get_threads, _ in controls]
    try:
        for _, set_threads in controls:
            set_threads(1)
        yield
    finally:
        for (_, set_threads), n in zip(controls, saved):
            set_threads(n)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    # Fork wherever the platform has it (Python 3.14 defaults to forkserver on
    # Linux): forked workers inherit the parent's OpenBLAS thread count, skip
    # the package import and inherit any instrumentation of the parent.  A
    # platform without fork has no /proc/self/maps, so no count to inherit.
    # A worker takes SIGTERM's default action, not a handler of the parent's.
    fork = "fork" in multiprocessing.get_all_start_methods()
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork") if fork else None,
        initializer=signal.signal, initargs=(signal.SIGTERM, signal.SIG_DFL),
    )


@contextlib.contextmanager
def _pinned_map(fn, args, workers: int):
    """Yield the iterator ``map(fn, args)``, every call on one OpenBLAS thread.

    OpenBLAS rounds differently on another thread count (eigh and GEMM at
    d >= 128 with OpenBLAS 0.3.31), so the block pins the count to one and,
    for ``workers > 1``, forks its pool inside it: the workers inherit the
    count and the results do not depend on ``workers``.  If the block raises,
    the calls not yet started are cancelled and the block ends once the
    running ones have, so no call outlives it.
    """
    with _single_threaded_blas():
        if workers <= 1:
            yield map(fn, args)
            return
        with _worker_pool(workers) as pool, contextlib.closing(pool.map(fn, args)) as results:
            yield results


def worker_count(jobs: int | None, n_jobs: int) -> int:
    """Worker processes for ``n_jobs`` independent jobs.

    ``jobs=None`` asks for the default: one worker per usable CPU, each with a
    single-threaded OpenBLAS.  Where no OpenBLAS thread count can be set, the
    default is 1, one process whose BLAS threads share the cores.  The count
    never exceeds ``n_jobs``; 1 runs the jobs in-process, without a pool.
    """
    if jobs is None:
        if _openblas_thread_controls():
            try:
                jobs = len(os.sched_getaffinity(0))
            except AttributeError:
                jobs = os.cpu_count() or 1
        else:
            jobs = 1
    elif jobs < 1:
        raise ValueError("jobs must be at least 1")
    return max(1, min(jobs, n_jobs))


def sweep_job_count(spec, seq: SequenceConfig, n_fields: int, workers: int) -> int:
    """Jobs in a sweep of ``n_fields`` fields on ``workers`` processes, by the
    rule in the module docstring."""
    n_tau = round(seq.tau_max / seq.tau_step)
    cheap = spec.n_realizations * n_tau * (2 * 2**spec.n_nuclei) ** 3 <= _FIELD_JOB_WORK
    return n_fields if cheap and n_fields >= workers else n_fields * spec.n_realizations


def field_sweep(params: ModelParams, spec, seq: SequenceConfig, detunings,
                jobs: int | None = None, finish=None):
    """Ensemble-averaged echo traces over a detuning grid, or ``finish[i](avg)`` of each.

    ``finish`` is ``None`` or one callable per field.  The jobs (module
    docstring) run on ``worker_count(jobs, n_fields * n_realizations)``
    processes through ``_pinned_map``, so every trace and ``finish`` call
    runs on one BLAS thread.  A whole-field job carries and runs its field's
    ``finish``, which must pickle; otherwise ``finish`` runs in the calling
    process.  Results are merged by index, so the output is identical for any
    worker count.
    """
    detunings = np.asarray(detunings, dtype=float)
    if detunings.size == 0:
        raise ValueError("detuning grid is empty")
    finish = [None] * detunings.size if finish is None else finish
    # The pulse angles depend only on the field: calibrate once per detuning.
    fields = []
    for db, finish_db in zip(detunings, finish, strict=True):
        phi_half, phi_pi = _resolved_angles(params.at_detuning(db), seq)
        seq_db = replace(seq, phi_half=phi_half, phi_pi=phi_pi)
        fields.append((params, spec, seq_db, db, finish_db))
    nr = spec.n_realizations
    workers = worker_count(jobs, len(fields) * nr)
    if sweep_job_count(spec, seq, len(fields), workers) == len(fields):
        with _pinned_map(_field_job, fields, workers) as results:
            return list(results)
    traces = [(p, sp, sq, db, k) for p, sp, sq, db, _ in fields for k in range(nr)]
    with _pinned_map(_sweep_job, traces, workers) as results:
        return [_field_job(f, [next(results) for _ in range(nr)]) for f in fields]
