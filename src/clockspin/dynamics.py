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
Projecting onto the d/2 up-electron rows first leaves two d/2 x d x d
products per tau point for the d = 2 * 2**N block; the identity is exact, not
an approximation.

The block comes real from ``hamiltonian.block_hamiltonians``, whose frame
turns each nuclear spin by pi/4 about z.  That rotation is diagonal and
commutes with the pulses and Sz, so it changes V_up only by a unitary left
factor, which drops out of the Frobenius norm: the echo is that of the
laboratory frame, exactly.  ``hamiltonian.eigensolve`` runs the complex
Hermitian solver (zheevd) on the real-valued block and returns exactly real
eigenvectors.  It is the complex solver on purpose: the real-symmetric one
(dsyevd) is less accurate over a 100 us window (worst error 0.047 of the
numerical floor, against 0.028), and the real parts of complex eigenvectors
need not be eigenvectors where the bath is exactly degenerate.  So V_up,
P_pi and L are real, and only the delay phases D are complex.  The kernel
evaluates the norm transposed, ``||L^T D P_pi^T D V_up^T||_F``, on
``(d x nt d/2)`` complex chunk operands: a real d x d matrix multiplies such
an operand as one real GEMM on its float64 view, without copies.  Each tau
point costs 2 d^3 real multiply-adds, half the 4 d^3 of the same two products
on complex matrices.

The tau points are evolved in chunks of ``max(2, 8192 // (d/2 * d))`` points,
sized by the bytes of the chunk's ``(d x nt d/2)`` GEMM operand: about 8192
complex entries (128 KiB), so 1024, 256, 64, 16 and 4 points at d = 4, 8, 16,
32 and 64, which spreads the per-chunk Python overhead of a small bath over
many points.  From d = 128 on the floor of 2 points applies: there a longer
chunk is no faster (on one BLAS thread, N = 5 to 7) and only adds memory, as
the kernel holds two chunk operands at once.  The grid is split into
near-equal chunks at least that long, so no chunk holds a single point unless
the grid does: ``einsum`` sums a one-row operand in another order, which from
N = 6 on changes the last bits.  Otherwise, on one BLAS thread, the echo's bits
do not depend on the chunk length (the tests check N = 1 to 7).

``field_sweep`` maps its jobs once, in one forked pool on one BLAS thread.  A
field is one job if its kernel work ``n_realizations * n_tau * d^3`` (real
multiply-adds, half of what the kernel does) is at most 2^30 (N <= 4 at
10 x 1000) and the sweep has at least as many fields as workers; that job runs the traces, their average and
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
from scipy.optimize import brentq

from . import __version__ as _pkg_version
from . import bath as bath_mod
from . import constants, hamiltonian, spinops
from .echotrace import EchoTrace
from .errors import CalibrationError, ClockspinError
from .hamiltonian import ModelParams

_MAX_GRID_POINTS = 1_000_000     # largest tau or field grid clockspin builds
_FIELD_JOB_WORK = 2**30          # n_realizations * n_tau * d^3 up to which one job runs a field

# Thread-count setters an OpenBLAS build may export, by symbol suffix and
# vendor prefix (numpy and scipy wheels each bundle a prefixed copy).
_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads", "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
)


def _whole_steps(steps: float, what: str) -> int:
    """A grid's finite step count, refused unless it lies within 1e-9 (relative)
    of a whole number; rounding another would move the grid's end.  Decimal
    grids land within 5e-13 (1e-4 / 1e-7 is 1000.0000000000001)."""
    n = round(steps)
    if abs(steps - n) > 1e-9 * abs(steps):
        raise ValueError(f"{what} is {steps:.10g} steps, not a whole number")
    return n


@dataclass(frozen=True)
class SequenceConfig:
    """Hahn-echo sequence settings.

    Defaults: 100 ns delay increments out to 100 us at 5 K.  Pulse angles of
    ``None`` come from ``calibrate_pulses`` per field: phi_pi = pi in closed
    form and phi_half calibrated numerically.
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
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be positive and finite")
        steps = self.tau_max / self.tau_step
        if not (np.isfinite(steps) and 1 <= _whole_steps(steps, "tau_max") <= _MAX_GRID_POINTS):
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
    """Pulse angles for the two lowest electronic eigenstates.

    On the +-1 doublet the pulse is the rotation ``exp[i phi sigma_y / 2]``,
    so the transfer between the two lowest eigenstates is sin^2(phi/2) when
    both lie in that doublet, and phi_pi = pi in closed form.  phi_half, which
    equalizes the two populations starting from the ground state, is
    calibrated numerically.

    Returns:
        ``(phi_half, phi_pi)`` with ``phi_pi = pi``.

    Raises:
        CalibrationError: if the pi pulse moves less than half the population
            (an m_S = 0 level is among the two lowest states).
    """
    _, vecs = hamiltonian.eigensolve(h_electronic)
    g, e = vecs[:, 0], vecs[:, 1]
    phi_pi = np.pi
    transfer = abs(e.conj() @ _electron_pulse(phi_pi) @ g) ** 2
    if transfer < 0.5:
        raise CalibrationError(f"maximum population transfer {transfer:.3f} < 0.5")

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
    """Pulse restricted to the {up,down} block: exp[i phi sigma_y / 2] (x) 1, a real matrix."""
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.kron(np.array([[c, s], [-s, c]]), np.eye(nb))


def _tau_chunk(d: int) -> int:
    """Tau points per kernel chunk for a d-dimensional block (module docstring)."""
    return max(2, 8192 // (d // 2 * d))


def _echo_block_engine(params, bath, seq, tau):
    h2, h0 = hamiltonian.block_hamiltonians(params, bath)
    nb = h0.shape[0]
    d = 2 * nb
    f2, v2 = hamiltonian.eigensolve(h2)
    if np.any(v2.imag):
        raise ClockspinError("the eigenvectors of the real-frame block are not real")
    v2 = np.ascontiguousarray(v2.real)
    e0 = np.linalg.eigvalsh(h0)

    beta_h = constants.PLANCK / (constants.KBOLTZ * seq.temperature)
    e_ref = min(f2.min(), e0.min())
    w2 = np.exp(-beta_h * (f2 - e_ref))
    z_total = w2.sum() + np.exp(-beta_h * (e0 - e_ref)).sum()
    w2 /= z_total

    phi_half, phi_pi = _resolved_angles(params, seq)
    p_half = v2.T @ _block_pulse(phi_half, nb) @ v2
    p_pi = v2.T @ _block_pulse(phi_pi, nb) @ v2

    # Half-rank identity (module docstring), with D = diag(exp(-i 2 pi f tau)):
    #   echo = 2 ||V_up D P_pi D L||_F^2 - sum(w),  Pi_up = V_up^T V_up,
    # evaluated transposed, as ||L^T D P_pi^T D V_up^T||_F^2.  Every matrix but
    # D is real, and a chunk's operand x is (d x nt d/2) complex, so each
    # product is one real (d x d) @ (d x nt d) GEMM on x's float64 view: 2 d^3
    # real multiply-adds per tau point.  Chunks are sized by the bytes of that
    # operand, and none holds a single tau point unless the grid does
    # (_tau_chunk, module docstring).
    v_up_t = np.ascontiguousarray(v2[:nb, :].T)[:, None, :]         # (d, 1, d/2)
    l_t = (p_half * np.sqrt(w2)).T
    p_pi_t = p_pi.T
    intensity = np.empty(tau.size)
    n_chunks = max(1, tau.size // _tau_chunk(d))
    bounds = [tau.size * k // n_chunks for k in range(n_chunks + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        ts = tau[start:stop]
        nt = ts.size
        u = np.exp(-2j * np.pi * np.outer(f2, ts))[:, :, None]     # (d, nt, 1)
        x = (u * v_up_t).reshape(d, -1).view(float)
        x = (p_pi_t @ x).view(complex).reshape(d, nt, nb)           # GEMM 1
        x *= u
        x = (l_t @ x.reshape(d, -1).view(float)).reshape(d, nt, d)  # GEMM 2
        intensity[start:stop] = 2.0 * np.einsum("ktj,ktj->t", x, x)
        del x           # before the next chunk's operand is built
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
    count and the results do not depend on ``workers``.  However the block
    ends, even by an exception or signal while ``map`` is still submitting,
    the calls not yet handed to a worker are cancelled and the block waits
    for the others, so no call outlives it.
    """
    with _single_threaded_blas():
        if workers <= 1:
            yield map(fn, args)
            return
        pool = _worker_pool(workers)
        try:
            yield pool.map(fn, args)
        finally:
            pool.shutdown(cancel_futures=True)


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
