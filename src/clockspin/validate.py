"""Built-in invariant suite backing the ``validate`` CLI command.

Also home of the dense full-space echo reference, the oracle that the block
engine in ``dynamics`` is checked against here and in the tests.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import constants, dynamics, hamiltonian, spinops
from .bath import BathRealization, BathSpec, sample_bath
from .hamiltonian import ModelParams


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def trig_reconstruction_residual(tau, values, freqs_hz) -> float:
    """Max residual of a constant-coefficient trigonometric fit against tau.

    A closed (non-decohering) system produces an echo trace that is exactly a
    finite sum of constant-amplitude lines at eigenvalue-gap combinations; the
    residual of this fit therefore bounds any envelope decay.
    """
    freqs = np.unique(np.round(np.asarray(freqs_hz), 6))
    cols = [np.ones_like(tau)]
    for f in freqs:
        if f <= 0:
            continue
        cols.append(np.cos(2 * np.pi * f * tau))
        cols.append(np.sin(2 * np.pi * f * tau))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return float(np.max(np.abs(values - design @ coef)))


def echo_line_frequencies(params: ModelParams, bath, nyquist_hz: float) -> np.ndarray:
    """Eigenvalue-gap combinations (conjugate to tau) observable in the trace.

    Each delay period contributes one eigenvalue gap of phase, so the echo
    lines sit at sums of two signed gaps; only sub-Nyquist lines are returned
    (the super-Nyquist ones carry no weight after coherence selection).
    """
    h2, _ = hamiltonian.block_hamiltonians(params, bath)
    f2 = np.linalg.eigvalsh(h2)
    gaps = (f2[:, None] - f2[None, :]).ravel()
    omega = np.abs(gaps[:, None] + gaps[None, :]).ravel()
    omega = omega[omega < nyquist_hz]
    return np.unique(np.round(omega, 3))


def _site(op: np.ndarray, m: int, n: int) -> np.ndarray:
    """A one-proton operator on nucleus m of n, nucleus 0 the slowest factor."""
    return np.kron(np.kron(np.eye(2**m), op), np.eye(2 ** (n - m - 1)))


def _bath_hamiltonian(params: ModelParams, bath) -> np.ndarray:
    """H_I of ``hamiltonian.bath_hamiltonian_matrix``, from embedded Ix, Iy, Iz."""
    n = bath.n_nuclei
    ix, iy, iz = ([_site(op, m, n) for m in range(n)] for op in spinops.spin_half_generators())
    h = np.zeros((2**n, 2**n), dtype=complex)
    for m in range(n):
        h -= params.gamma_H * params.B0 * iz[m]
    for m in range(n):
        for k in range(m + 1, n):
            ang = 3.0 * np.cos(bath.theta[m, k]) ** 2 - 1.0
            h -= bath.d_pair * ang * (2.0 * iz[m] @ iz[k] - ix[m] @ ix[k] - iy[m] @ iy[k])
    return h


def reference_hamiltonian(params: ModelParams, bath) -> np.ndarray:
    """Dense ``H_tot = H_S + H_SI + H_I`` on the full ``C^3 (x) bath`` space (Hz).

    Assembled with ``np.kron`` in the laboratory frame, independently of
    ``block_hamiltonians``: only H_S is shared.  The hyperfine term and H_I are
    built here from the embedded proton operators, so the m_S = 0 decoupling,
    the real frame and the bit layout the block engine relies on are checked
    against this matrix, not assumed.
    """
    n = bath.n_nuclei if bath is not None else 0
    h = np.kron(hamiltonian.build_electronic(params), np.eye(2**n))
    if n:
        ix, iy, iz = spinops.spin_half_generators()
        sz = np.diag([1.0, 0.0, -1.0])
        for m in range(n):
            h = h + np.kron(sz, _site(bath.a_sc[m] * iz + bath.a_psc[m] * (ix + iy), m, n))
        h = h + np.kron(np.eye(3), _bath_hamiltonian(params, bath))
    return h


def reference_echo(params: ModelParams, bath, seq, phi_half: float,
                   phi_pi: float) -> np.ndarray:
    """Echo on ``seq.tau_grid()`` by dense density-matrix evolution on the full space.

    The thermal state and the pulses come from ``scipy.linalg.expm``; each
    delay is the phase map ``exp(-i 2 pi (f_j - f_k) tau)`` in the eigenbasis
    of a full-space ``eigh``.  The pulse angles are inputs, so the block
    engine's calibrated angles can be replayed here.
    """
    h = reference_hamiltonian(params, bath)
    nb = h.shape[0] // 3
    rho = expm(-constants.PLANCK / (constants.KBOLTZ * seq.temperature) * h)
    rho /= np.trace(rho).real
    _, _, sz, ac = spinops.spin1_generators()
    p_half, p_pi = (np.kron(expm(0.5j * phi * ac), np.eye(nb)) for phi in (phi_half, phi_pi))
    f, v = np.linalg.eigh(h)
    rho1 = v.conj().T @ p_half @ rho @ p_half.conj().T @ v
    pulse = v.conj().T @ p_pi @ v
    obs_t = (v.conj().T @ np.kron(sz, np.eye(nb)) @ v).T
    tau = seq.tau_grid()
    echo = np.empty(tau.size)
    for i, t in enumerate(tau):
        u = np.exp(-2j * np.pi * f * t)
        delay = np.outer(u, u.conj())
        rho2 = delay * (pulse @ (delay * rho1) @ pulse.conj().T)
        echo[i] = np.sum(rho2 * obs_t).real
    return echo


def check_electronic_eigenvalues() -> CheckResult:
    vals, _ = hamiltonian.eigensolve(hamiltonian.build_electronic(ModelParams()))
    expected = np.array([-19.5e9, -10.5e9, 30.0e9])
    resid = float(np.max(np.abs(vals - expected) / np.abs(expected)))
    return CheckResult("electronic-eigenvalues", resid < 1e-9, resid, 1e-9,
                       "CT eigenvalues vs {-|D|/3 - E, -|D|/3 + E, +2|D|/3}")


def check_ct_eigenvector_order() -> CheckResult:
    """The upper state of the CT doublet must be the symmetric combination."""
    _, vecs = hamiltonian.eigensolve(hamiltonian.build_electronic(ModelParams()))
    plus = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    overlap = abs(np.vdot(plus, vecs[:, 1]))
    resid = float(1.0 - overlap)
    return CheckResult("ct-eigenvector-order", resid < 1e-10, resid, 1e-10,
                       "second eigenvector vs (|up> + |down>)/sqrt(2)")


def check_projection_mappings() -> CheckResult:
    """Doublet-projected operator blocks; invariant under relabeling |+> <-> |->."""
    model = hamiltonian.project_fictitious(ModelParams())
    resid = max(model.mapping_residual(name) for name in model.mapping)
    return CheckResult("fictitious-spin-mappings", resid < 1e-10, resid, 1e-10,
                       "eight projected operator identities at the CT")


def check_propagator_oracle(seed: int = 7) -> CheckResult:
    """Block echo engine against the dense full-space reference on 20 random baths."""
    rng = np.random.default_rng(seed)
    seq = dynamics.SequenceConfig(tau_step=200e-9, tau_max=10e-6)
    worst = 0.0
    for _ in range(20):
        spec = BathSpec(n_nuclei=int(rng.integers(1, 4)), n_realizations=1,
                        seed=int(rng.integers(2**32)))
        bath = sample_bath(spec, 0)
        params = ModelParams().at_detuning(rng.uniform(-5e-3, 5e-3))
        trace = dynamics.hahn_echo_trace(params, bath, seq)
        angles = trace.meta["sequence"]
        ref = reference_echo(params, bath, seq, angles["phi_half_rad"], angles["phi_pi_rad"])
        worst = max(worst, float(np.max(np.abs(trace.intensity - ref))))
    return CheckResult("propagator-oracle", worst < 1e-8, worst, 1e-8,
                       "block engine vs full-space reference, 20 random baths, "
                       "N = 1-3, |dB| <= 5 mT, tau <= 10 us")


def check_n1_no_decay() -> CheckResult:
    """Single-proton echo must be a constant-amplitude line spectrum."""
    params = ModelParams().at_detuning(20e-3)
    bath = BathRealization(
        a_sc=np.array([1e6]), a_psc=np.array([0.5e6]),
        theta=np.zeros((1, 1)), d_pair=0.0,
    )
    seq = dynamics.SequenceConfig(tau_step=100e-9, tau_max=30e-6)
    trace = dynamics.hahn_echo_trace(params, bath, seq)
    freqs = echo_line_frequencies(params, bath, nyquist_hz=0.5 / seq.tau_step)
    resid = trig_reconstruction_residual(trace.tau, trace.intensity, freqs)
    scale = float(np.max(np.abs(trace.intensity)))
    rel = resid / scale
    return CheckResult("n1-no-decay", rel < 1e-6, rel, 1e-6,
                       "line-spectrum reconstruction residual, N=1 at +20 mT")


def run_all() -> list:
    return [
        check_electronic_eigenvalues(),
        check_ct_eigenvector_order(),
        check_projection_mappings(),
        check_propagator_oracle(),
        check_n1_no_decay(),
    ]
