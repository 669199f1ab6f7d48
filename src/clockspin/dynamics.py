"""Pulses, pulse calibration, the Hahn-echo engine and field sweeps.

All phase evolution uses ``exp(-i 2 pi f tau)`` with Hamiltonians in Hz.  The
two-pulse sequence is ``P(phi_half) - tau - P(phi_pi) - tau - readout`` with
instantaneous pulses ``exp[i phi {Sx,Sy}/2]`` acting on the electron only, and
the echo observable is the full-system expectation of the embedded Sz at the
readout time 2*tau.  On the +-1 doublet a pulse is a real rotation about y,
``_doublet_pulse``, and it leaves m_S = 0 alone.  The angles are not a setting:
the transfer on the doublet is sin^2(phi/2) at every field, so they are the
same constants everywhere (``calibrate_pulses``, which also refuses a field
where the pulses cannot drive the two lowest states), and ``hahn_echo_trace``
records them in the trace's sidecar.

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
an approximation.  The norm depends on L only through ``L L^T``, so any T
with ``T^T T = L L^T`` can stand in for ``L^T``: the engine takes the
upper-triangular factor of the QR decomposition of ``L^T`` (Golub & Van
Loan, Matrix Computations, section 5.2), whose zero lower triangle the
second product skips.  It is QR, not the Cholesky factor of ``L L^T``: at
low temperature Boltzmann weights underflow to exactly 0 (8 of the 16 at
N = 3 and 10 uK), so whole columns of L vanish and ``L L^T`` is singular,
where Cholesky breaks down and Householder QR does not.

The block comes real from ``hamiltonian.block_hamiltonians``, whose frame
turns each nuclear spin by pi/4 about z.  That rotation is diagonal and
commutes with the pulses and Sz, so it changes V_up only by a unitary left
factor, which drops out of the Frobenius norm: the echo is that of the
laboratory frame, exactly.  So is the blocks' shift by -D/3, which centres
the +-1 doublet at zero: it multiplies each delay propagator by a global
phase and leaves the normalized weights as they are.
``hamiltonian.eigensolve`` runs the complex
Hermitian solver (zheevd) on the real-valued block and returns exactly real
eigenvectors.  It is the complex solver on purpose: the real-symmetric one
(dsyevd) is less accurate over a 100 us window (worst error 0.047 of the
numerical floor, against 0.028), and the real parts of complex eigenvectors
need not be eigenvectors where the bath is exactly degenerate.  So V_up,
P_pi and T are real, and only the delay phases D are complex.  The kernel
evaluates the norm transposed, ``||T D P_pi^T D V_up^T||_F``, on
``(d x nt d/2)`` complex chunk operands: a real matrix multiplies such an
operand on its float64 view, without copies.  The product by ``P_pi^T`` is
one d x d GEMM, d^3 real multiply-adds per tau point.  For d > ``_ROW_BLOCK``
= 64 (N >= 6) the product by T is one TRMM, the level-3 BLAS triangular
multiply (Dongarra et al., ACM TOMS 16(1), 1990), which overwrites the
operand: ``cblas_dtrmm`` of the process's OpenBLAS, found by
``_openblas_trmm`` once per trace.  It does the ``d^2 (d + 1) / 2``
multiply-adds of the triangle at about the rate of a full GEMM, so a tau
point costs about 1.5 d^3 real multiply-adds; the same two products on
complex matrices would cost 4 d^3.  On one BLAS thread of a 2-core host
(OpenBLAS 0.3.31), the product by T of a 2-point chunk took 0.60 of one full
GEMM's time at d = 128 and 0.49 at d = 256.  For d <= 64 the product by T
stays one full GEMM (2 d^3 in all), and the echo keeps its bits: there TRMM
gains little or loses (it took an N = 5 trace from 51 to 49 ms, an N = 3
trace from 2.2 to 3.1 ms).

Where no OpenBLAS exports ``cblas_dtrmm`` (another BLAS, or a platform
without ``/proc/self/maps``), the product by T for d > 64 runs in blocks of
64 rows, each multiplying rows ``r:r+64`` of T from the diagonal column r
on with rows ``r:`` of the operand, and the blocks' per-tau sums of squares
are added: with ``n_b = d // 64`` blocks a tau point costs
``d^3 (1 + (n_b + 1) / (2 n_b))``, 1.625 d^3 at N = 7 and 1.75 d^3 at
N = 6.  The blocks took 0.86 and 0.72 of a full GEMM's time in the
measurement above.  The height of 64 rows comes from measurement: at N = 7
on one BLAS thread, blocks of 32, 64 and 128 rows ran within 2% of each
other, and one block of all 256 rows 19% slower.  TRMM and the blocks round
differently: their echoes agree within the whole-window floor, not bit for
bit.

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

The two chunk operands live in two buffers that a trace allocates once, for
its longest chunk; every chunk fills and reuses their leading entries, GEMM 1
and the row blocks through ``out=``, TRMM in place.  Allocating them per chunk
was fragile: at N = 3 an operand is about 135 KiB, right at glibc's dynamic
mmap and trim thresholds (128 KiB until the process frees a larger mapping),
so whether each chunk mapped, faulted in and unmapped fresh pages depended on
what else the process had allocated and freed before.  In a process that ran
N = 3 traces one after another and had not imported ``numpy.random``, that
cost about 950 minor page faults per trace; with the buffers, about none.

``field_sweep`` maps its jobs once, in one forked pool on one BLAS thread.  A
field is one job if its kernel work ``n_realizations * n_tau * d^3`` (a
measure of size: the kernel does 1.5 to 2 times that many real multiply-adds)
is at most 2^30 (N <= 4 at 10 x 1000) and the sweep has at least as many
fields as workers; that job runs the traces, their average and
the field's ``finish`` and returns what ``finish`` returns.  Otherwise (a
costly field, or an echo on two workers) each realization is one job; the
caller averages and finishes each field as soon as its realizations are back,
while the pool runs on.
"""

import contextlib
import ctypes
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__ as _pkg_version
from . import bath as bath_mod
from . import constants, hamiltonian
from .echotrace import EchoTrace
from .errors import CalibrationError, ClockspinError
from .hamiltonian import ModelParams

_MAX_GRID_POINTS = 1_000_000     # largest tau or field grid clockspin builds
_FIELD_JOB_WORK = 2**30          # n_realizations * n_tau * d^3 up to which one job runs a field
_ROW_BLOCK = 64                  # rows of the triangular factor per GEMM in the tau kernel
# The pi/2 pulse angle.  The exact angle is pi/2; this is the double, 5.0e-7
# above it, at which Brent's method with xtol = 1e-4 on [1e-6, pi] stops on the
# doublet's population imbalance -cos(phi), the root search that once set the
# angle at each field.  It stays until the benchmark's reference traces are
# re-recorded at pi/2, which moves N = 3 traces by up to 1.3e-9 (ROADMAP
# item 2).
_PHI_HALF = np.pi / 2 + 4.999996072729829e-07

# The names under which an OpenBLAS build may export a routine: a vendor prefix
# (numpy and scipy wheels each bundle a prefixed copy) and a symbol suffix, the
# "64_" of a build with 64-bit integer arguments.
_OPENBLAS_PREFIXES = ("", "scipy_")
_OPENBLAS_SUFFIXES = (("", ctypes.c_int), ("64_", ctypes.c_int64))   # suffix, BLAS integer


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

    Defaults: 100 ns delay increments out to 100 us at 5 K.  It holds no
    pulse angles: ``calibrate_pulses`` gives them, the same at every field.
    """

    tau_step: float = 100e-9
    tau_max: float = 100e-6
    temperature: float = 5.0

    def __post_init__(self):
        if not (np.isfinite(self.tau_step) and self.tau_step > 0):
            raise ValueError("tau_step must be positive and finite")
        if not np.isfinite(self.tau_max):
            raise ValueError("tau_max must be finite")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be positive and finite")
        kt = constants.KBOLTZ * self.temperature
        if not (kt > 0 and np.isfinite(constants.PLANCK / kt)):
            raise ValueError("temperature is too low: h / (k_B T) is not finite")
        steps = self.tau_max / self.tau_step
        if not (np.isfinite(steps) and 1 <= _whole_steps(steps, "tau_max") <= _MAX_GRID_POINTS):
            raise ValueError(f"tau_max / tau_step must give 1 to {_MAX_GRID_POINTS} tau points")

    def tau_grid(self) -> np.ndarray:
        return self.tau_step * np.arange(1, round(self.tau_max / self.tau_step) + 1)


def _doublet_pulse(phi: float) -> np.ndarray:
    """The pulse ``exp[i phi {Sx,Sy}/2]`` on the (+1, -1) doublet: the real
    rotation ``exp[i phi sigma_y / 2]``.  It leaves m_S = 0 alone."""
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.array([[c, s], [-s, c]])


def calibrate_pulses(params: ModelParams):
    """Pulse angles ``(phi_half, phi_pi)`` for the two lowest electronic eigenstates.

    The pulse never touches m_S = 0, so it drives the two lowest states exactly
    when that level lies above the doublet's upper one: in the closed form of
    ``hamiltonian.electronic_levels``, when ``-D > sqrt(E^2 + (gamma_e dB)^2)``,
    below 639.63 mT of detuning at the defaults.  There the transfer from the
    doublet's ground state is sin^2(phi/2) at every field, so the angles are
    constants: ``phi_pi = pi`` and ``phi_half = _PHI_HALF``, which equalizes
    the two populations.

    Raises:
        CalibrationError: if the m_S = 0 level is not above the doublet's upper
            level; the message gives both in the laboratory convention.
    """
    _, level_0 = hamiltonian.electronic_levels(params)
    half_gap = np.hypot(params.E, params.gamma_e * params.detuning)
    if not level_0 > half_gap:
        raise CalibrationError(
            f"the m_S = 0 level ({-2 * params.D / 3 * 1e-9:.6g} GHz) is not above the +-1 "
            f"doublet's upper level ({(params.D / 3 + half_gap) * 1e-9:.6g} GHz), so no pulse "
            "drives the two lowest states")
    return _PHI_HALF, np.pi


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
    """Pulse restricted to the {up,down} block: ``_doublet_pulse(phi) (x) 1``, a real matrix."""
    return np.kron(_doublet_pulse(phi), np.eye(nb))


def _tau_chunk(d: int) -> int:
    """Tau points per kernel chunk for a d-dimensional block (module docstring)."""
    return max(2, 8192 // (d // 2 * d))


def _echo_block_engine(params, bath, seq, tau, phi_half, phi_pi):
    """The echo on ``tau`` after pulses of the given angles."""
    h2, h0 = hamiltonian.block_hamiltonians(params, bath)
    nb = h0.shape[0]
    d = 2 * nb
    # Each block is freed once eigendecomposed; h2's eigensolve is the
    # engine's memory peak, so h0 goes first.
    e0 = np.linalg.eigvalsh(h0)
    del h0
    f2, v2 = hamiltonian.eigensolve(h2)
    del h2
    if np.any(v2.imag):
        raise ClockspinError("the eigenvectors of the real-frame block are not real")
    v2 = np.ascontiguousarray(v2.real)

    beta_h = constants.PLANCK / (constants.KBOLTZ * seq.temperature)
    e_ref = min(f2.min(), e0.min())
    w2 = np.exp(-beta_h * (f2 - e_ref))
    z_total = w2.sum() + np.exp(-beta_h * (e0 - e_ref)).sum()
    w2 /= z_total

    # Half-rank identity (module docstring), with D = diag(exp(-i 2 pi f tau)):
    #   echo = 2 ||V_up D P_pi D L||_F^2 - sum(w),  Pi_up = V_up^T V_up,
    # evaluated transposed, as ||T D P_pi^T D V_up^T||_F^2 with T the triangular
    # QR factor of L^T.  Every matrix but D is real, and a chunk's operand x is
    # (d x nt d/2) complex, so each product is real on x's float64 view: one
    # (d x d) @ (d x nt d) GEMM for P_pi^T, then T @ x in place by TRMM where
    # d > _ROW_BLOCK and the BLAS has it, else one GEMM per block of
    # _ROW_BLOCK rows of T, from its diagonal on.  Chunks are sized by the
    # bytes of the operand, and none holds a single tau point unless the grid
    # does (_tau_chunk, module docstring).  The chunk's two operands are the
    # leading entries of two buffers allocated once per trace: `a` takes
    # D V_up^T (a copy of V_up^T, held complex, then one multiply by D) and,
    # once read by GEMM 1, the row blocks' products; `b` takes GEMM 1.
    v_up_t = np.ascontiguousarray(v2[:nb, :].T, dtype=complex)[:, None, :]   # (d, 1, d/2)
    p_pi_t = v2.T @ _block_pulse(phi_pi, nb).T @ v2
    t_half = np.linalg.qr(np.sqrt(w2)[:, None] * (v2.T @ _block_pulse(phi_half, nb).T @ v2),
                          mode="r")
    del v2
    trmm = _openblas_trmm() if d > _ROW_BLOCK else None
    rows = range(0, d, _ROW_BLOCK)
    intensity = np.empty(tau.size)
    n_chunks = max(1, tau.size // _tau_chunk(d))
    bounds = [tau.size * k // n_chunks for k in range(n_chunks + 1)]
    longest = max(stop - start for start, stop in zip(bounds, bounds[1:]))
    buffers = [np.empty(d * longest * nb, dtype=complex) for _ in range(2)]
    for start, stop in zip(bounds, bounds[1:]):
        ts = tau[start:stop]
        nt = ts.size
        u = np.exp(-2j * np.pi * np.outer(f2, ts))[:, :, None]     # (d, nt, 1)
        a, b = (buf[:d * nt * nb].reshape(d, nt, nb) for buf in buffers)
        a[...] = v_up_t
        a *= u
        a, x = a.reshape(d, -1).view(float), b.reshape(d, -1).view(float)
        np.matmul(p_pi_t, a, out=x)                                 # GEMM 1
        b *= u
        if trmm is not None:
            trmm(t_half, x)                                         # x <- T x
            y = x.reshape(d, nt, d)
            power = np.einsum("ktj,ktj->t", y, y)
        else:
            power = np.zeros(nt)
            for r in rows:                                          # GEMM 2, by row block
                t_rows = t_half[r:r + _ROW_BLOCK, r:]
                y = np.matmul(t_rows, x[r:], out=a[:len(t_rows)]).reshape(-1, nt, d)
                power += np.einsum("ktj,ktj->t", y, y)
        intensity[start:stop] = 2.0 * power
    intensity -= w2.sum()
    return intensity


def hahn_echo_trace(params: ModelParams, bath, seq: SequenceConfig) -> EchoTrace:
    """Simulate one two-pulse echo trace.

    Args:
        params: model parameters (B0 sets the detuning).
        bath: a ``BathRealization`` or ``None`` for a bare electron.
        seq: sequence configuration.

    Returns:
        EchoTrace sampled on ``tau_step * (1..n)``; every tau point reuses a
        single eigendecomposition of the (time-independent) Hamiltonian.  Its
        sidecar records the pulse angles.

    Raises:
        CalibrationError: if no pulse drives the field's two lowest states.
    """
    tau = seq.tau_grid()
    phi_half, phi_pi = calibrate_pulses(params)
    intensity = _echo_block_engine(params, bath, seq, tau, phi_half, phi_pi)
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


def _openblas_routines(*names):
    """Every OpenBLAS mapped into this process that exports all of ``names``
    under one prefix and suffix: ``(functions, blas_int)`` per library and
    variant, ``blas_int`` the ctypes type of its BLAS integers.  Empty where
    ``/proc/self/maps`` cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh if "openblas" in line]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:     # the mapped file is gone, e.g. "(deleted)"
            continue
        for prefix in _OPENBLAS_PREFIXES:
            for suffix, blas_int in _OPENBLAS_SUFFIXES:
                functions = [getattr(lib, prefix + name + suffix, None) for name in names]
                if all(fn is not None for fn in functions):
                    found.append((functions, blas_int))
    return found


def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of every OpenBLAS mapped into this
    process; empty where ``/proc/self/maps`` cannot be read."""
    controls = []
    for (get_threads, set_threads), _ in _openblas_routines("openblas_get_num_threads",
                                                            "openblas_set_num_threads"):
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        controls.append((get_threads, set_threads))
    return controls


def _openblas_trmm():
    """``trmm(t, x)``, which overwrites ``x`` with ``t @ x`` for an upper-triangular
    ``t``, by ``cblas_dtrmm`` of the first OpenBLAS mapped into this process
    that exports it; ``None`` where none does.

    ``t`` (m x m) and ``x`` (m x n) must be C-contiguous float64 and ``x``
    writable; only the upper triangle of ``t`` is read.  A clockspin run maps
    one OpenBLAS, the one numpy's matmul calls.
    """
    routines = _openblas_routines("cblas_dtrmm")
    if not routines:
        return None
    (dtrmm,), blas_int = routines[0]
    p = ctypes.c_void_p
    dtrmm.argtypes = [ctypes.c_int] * 5 + [blas_int, blas_int, ctypes.c_double,
                                           p, blas_int, p, blas_int]
    dtrmm.restype = None

    def trmm(t, x):
        for a in (t, x):
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2
                    and a.flags.c_contiguous):
                raise ValueError("trmm takes C-contiguous 2-d float64 arrays")
        m, n = x.shape
        if t.shape != (m, m) or not x.flags.writeable:
            raise ValueError(f"trmm takes an (m x m) t and a writable (m x n) x, not "
                             f"{t.shape} and {x.shape}")
        if m and n:     # CBLAS enums: row-major, left, upper, no transpose, non-unit
            dtrmm(101, 141, 121, 111, 131, m, n, 1.0, t.ctypes.data, m, x.ctypes.data, n)

    return trmm


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
    fields = [(params, spec, seq, db, f) for db, f in zip(detunings, finish, strict=True)]
    nr = spec.n_realizations
    workers = worker_count(jobs, len(fields) * nr)
    if sweep_job_count(spec, seq, len(fields), workers) == len(fields):
        with _pinned_map(_field_job, fields, workers) as results:
            return list(results)
    traces = [(p, sp, sq, db, k) for p, sp, sq, db, _ in fields for k in range(nr)]
    with _pinned_map(_sweep_job, traces, workers) as results:
        return [_field_job(f, [next(results) for _ in range(nr)]) for f in fields]
