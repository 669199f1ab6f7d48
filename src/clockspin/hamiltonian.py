"""Model Hamiltonian assembly, eigensolver and electronic spectrum quantities.

The electronic model is an S=1 spin with axial anisotropy D, rhombic
anisotropy E and a Zeeman term referenced to the clock-transition field:

    H_S = D [Sz^2 - (1/3) S(S+1)] + E (Sx^2 - Sy^2) + gamma_e (B0 - B_min) Sz

with all energies in Hz.  At zero detuning the two lowest eigenstates are
``|+-> = (|up> +- |down>)/sqrt(2)`` separated by the clock frequency 2E, and
the transition frequency is first-order insensitive to field.  The run path
takes H_S from ``electronic_levels``: in closed form, and shifted by -D/3 so
that the +-1 doublet is centred at zero, where its levels (about +-4.5 GHz
over +-5 mT, not down to -19.5 GHz) round less.  The echo cannot see the shift.

The electron couples to N bath protons through secular and pseudosecular
hyperfine terms (H_SI), and the protons carry their own Zeeman plus pairwise
dipolar dynamics (H_I).  Nothing in H_tot = H_S + H_SI + H_I couples the
m_S = 0 sector to {m_S = +-1} (x) bath, so ``block_hamiltonians`` assembles
H_tot as those two blocks and never forms the full 3 * 2**N matrix.

Bath basis state j is an Iz product state whose bits are the nuclei, nucleus 0
the most significant, 0 for Iz = +1/2 and 1 for -1/2.  Iz^m is then diagonal
and Ix^m is 1/2 between states one bit apart, so the bath terms are written
from the bits of the index and no many-proton operator is embedded.

The {m_S = +-1} block is built in the real frame that the echo engine evolves:
``R = 1 (x) exp(-i pi/4 sum_k Iz^k)`` turns ``Ix + Iy`` into ``sqrt(2) Ix`` and
leaves Iz, the pair operator, H_I and every electron operator as they are, so
the block is real and h0 (H_I plus the m_S = 0 level) is the same in both
frames.  ``validate.reference_hamiltonian`` stays in the laboratory frame.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import constants, spinops
from .echotrace import write_float_csv

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class ModelParams:
    """Electronic and nuclear model parameters (SI units: Hz, Hz/T, T).

    Defaults reproduce the headline configuration: D = -45 GHz, |E| = 4.5 GHz,
    B_min = 23.5 mT, gamma_H = 42.577 MHz/T.  gamma_e defaults to 70 GHz/T so
    that the far-field slope of the clock frequency is 2*gamma_e = 140 GHz/T.
    """

    D: float = -45e9
    E: float = 4.5e9
    gamma_e: float = 70e9
    B0: float = 23.5e-3
    B_min: float = 23.5e-3
    gamma_H: float = constants.GAMMA_H

    def __post_init__(self):
        for name in ("D", "E", "gamma_e", "B0", "B_min", "gamma_H"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(self.E) >= abs(self.D):
            raise ValueError("anisotropy hierarchy requires |E| < |D|")
        if self.gamma_H <= 0:
            raise ValueError("gamma_H must be positive")

    @property
    def detuning(self) -> float:
        return self.B0 - self.B_min

    def at_detuning(self, delta_b: float) -> "ModelParams":
        """Copy with the applied field set to ``B_min + delta_b``."""
        return replace(self, B0=self.B_min + delta_b)

    def proton_larmor(self) -> float:
        """Proton precession frequency |gamma_H * B0| in Hz."""
        return abs(self.gamma_H * self.B0)


@dataclass
class ElectronSpectrum:
    """Eigenvalues, clock frequency and effective gyromagnetic ratio per field."""

    b_grid: np.ndarray       # applied fields (T)
    energies: np.ndarray     # (n, 3) ascending eigenvalues (Hz)
    f: np.ndarray            # clock frequency, second - first eigenvalue (Hz)
    gamma_eff: np.ndarray    # df/dB0 by centered finite difference (Hz/T)

    def write_csv(self, path):
        write_float_csv(path, "B0_T,E1_Hz,E2_Hz,E3_Hz,f_Hz,gamma_eff_Hz_per_T",
                        self.b_grid, *self.energies.T, self.f, self.gamma_eff)


def electronic_levels(p: ModelParams):
    """H_S - D/3 in closed form (Hz): ``(doublet, level_0)``, the real +-1
    doublet ``[[gamma_e dB, E], [E, -gamma_e dB]]`` in the (+1, -1) basis and
    the m_S = 0 level ``-D``, which H_S couples to nothing."""
    g = p.gamma_e * p.detuning
    return np.array([[g, p.E], [p.E, -g]]), -p.D


def _bath_iz(n_nuclei: int) -> np.ndarray:
    """``iz[m, j]``: Iz (+-1/2) of nucleus m in bath basis state j, which is
    bit ``N - 1 - m`` of j (module docstring)."""
    shifts = np.arange(n_nuclei - 1, -1, -1)[:, None]
    return 0.5 - ((np.arange(2**n_nuclei) >> shifts) & 1)


def bath_hamiltonian_matrix(p: ModelParams, bath) -> np.ndarray:
    """Intra-bath Hamiltonian on the bath-only space (dim 2**N).

    ``H_I = -sum_{m<n} D_mn (3 cos^2 theta_mn - 1)
            [2 Iz Iz - Ix Ix - Iy Iy] - gamma_H B0 sum_m Iz^m``

    The Zeeman term uses the full applied field B0 (B_min shifts only the
    electron term).  The pair sum runs over unordered pairs.  In the bit
    layout (module docstring) the bracket is +1/2 on the diagonal of a parallel
    pair, -1/2 on that of an antiparallel one and -1/2 where the latter flips.
    """
    n = bath.n_nuclei
    iz, states = _bath_iz(n), np.arange(2**n)
    h = np.zeros((2**n, 2**n), dtype=complex)
    diag = h.reshape(-1)[:: 2**n + 1]       # a view of h's diagonal
    for m in range(n):
        diag -= p.gamma_H * p.B0 * iz[m]
    for m in range(n):
        for k in range(m + 1, n):
            scale = bath.d_pair * (3.0 * np.cos(bath.theta[m, k]) ** 2 - 1.0)
            diag -= scale * (2.0 * iz[m] * iz[k])
            anti = states[iz[m] != iz[k]]
            h[anti, anti ^ (1 << (n - 1 - m)) ^ (1 << (n - 1 - k))] -= scale * -0.5
    return h


def block_hamiltonians(params: ModelParams, bath):
    """H_tot - D/3 on the {up,down} (x) bath block, in the real frame (module
    docstring), and on the m_S=0 bath block.

    From ``doublet, level_0 = electronic_levels(params)``:
    ``h2 = doublet (x) 1 + sigma_z (x) sum_m (A_sc Iz + sqrt(2) A_psc Ix)
    + 1 (x) H_I`` and ``h0 = level_0 + H_I``.  h2 has an imaginary part of
    exactly zero and keeps the complex dtype for ``eigensolve``.

    Returns:
        ``(h2, h0)``: the ``2 * 2**N`` block in the electron-major layout
        ``(up, down) (x) bath`` and the ``2**N`` block of m_S = 0, in Hz.
        ``bath`` may be ``None`` for a bare electron (N = 0).
    """
    doublet, level_0 = electronic_levels(params)
    n = bath.n_nuclei if bath is not None else 0
    nb = 2**n
    b_op = np.zeros((nb, nb), dtype=complex)
    h_i = np.zeros((nb, nb), dtype=complex)
    if n:
        iz, states = _bath_iz(n), np.arange(nb)
        diag = b_op.reshape(-1)[:: nb + 1]      # a view of b_op's diagonal
        for m in range(n):
            diag += bath.a_sc[m] * iz[m]
            b_op[states, states ^ (1 << (n - 1 - m))] += np.sqrt(2.0) * bath.a_psc[m] * 0.5
        h_i = bath_hamiltonian_matrix(params, bath)
    eye_b = np.eye(nb)
    h2 = np.kron(doublet, eye_b) + np.kron(_SIGMA_Z, b_op) + np.kron(np.eye(2), h_i)
    h0 = level_0 * eye_b + h_i
    return h2, h0


def eigensolve(h: np.ndarray):
    """Eigendecomposition of a Hermitian operator.

    Returns:
        ``(values, vectors)`` from ``np.linalg.eigh``: values ascending,
        vectors as unitary columns with the phases LAPACK gives them.  No
        caller depends on those phases: the echo is a norm, and the checks
        use magnitudes of overlaps.
    """
    h = np.asarray(h)
    if not spinops.is_hermitian(h, tol=1e-10):
        raise ValueError("eigensolve requires a Hermitian matrix")
    return np.linalg.eigh(h)


def clock_frequency_curve(p: ModelParams, b_grid) -> ElectronSpectrum:
    """Electronic spectrum versus applied field.

    The levels of H_S in closed form, ascending: -2D/3 and
    D/3 +- sqrt(E^2 + (gamma_e dB)^2), those of ``electronic_levels`` shifted
    back by D/3.  ``f`` is the gap between the two lowest;
    ``gamma_eff = df/dB0`` uses centered differences (one-sided at the edges).
    """
    b_grid = np.asarray(b_grid, dtype=float)
    if b_grid.size == 0:
        raise ValueError("field grid is empty")
    half_gap = np.hypot(p.E, p.gamma_e * (b_grid - p.B_min))
    energies = np.sort(np.column_stack([p.D / 3 - half_gap, p.D / 3 + half_gap,
                                        np.full(b_grid.size, -2 * p.D / 3)]), axis=1)
    f = energies[:, 1] - energies[:, 0]
    if b_grid.size >= 2:
        gamma_eff = np.gradient(f, b_grid)
    else:
        gamma_eff = np.zeros_like(f)
    return ElectronSpectrum(b_grid=b_grid, energies=energies, f=f, gamma_eff=gamma_eff)


# Clock-transition eigenbasis |+> = (|up> + |down>)/sqrt(2),
# |-> = (|up> - |down>)/sqrt(2); columns ordered (|+>, |->).
_CT_BASIS = np.array(
    [[1.0, 1.0], [0.0, 0.0], [1.0, -1.0]], dtype=complex
) / np.sqrt(2.0)


@dataclass
class FictitiousSpinModel:
    """Projection of the S=1 model onto the clock-transition doublet."""

    h_eff: np.ndarray        # 2x2 effective Hamiltonian E*sz + gamma_e*dB*sx (Hz)
    mapping: dict            # spin-1 operator name -> projected 2x2 block
    expected: dict           # operator name -> exact projected block

    def mapping_residual(self, name: str) -> float:
        return float(np.max(np.abs(self.mapping[name] - self.expected[name])))


def project_fictitious(p: ModelParams) -> FictitiousSpinModel:
    """Project the spin-1 operators onto the CT doublet span{|+>, |->}.

    The sandwiched blocks satisfy Sz^2 -> 1, Sz -> sx, Sx^2-Sy^2 -> sz,
    {Sx,Sy} -> -sy, and Sx, Sy, {Sy,Sz}, {Sz,Sx} -> 0, so the electronic
    Hamiltonian reduces to ``E sz + gamma_e dB sx`` (up to the -|D|/3 shift).
    The anticommutator block has unit magnitude; the pulse exp[i phi {Sx,Sy}/2]
    therefore acts on the doublet as a Bloch rotation by phi about y.
    """
    sx, sy, sz, ac = spinops.spin1_generators()
    b = _CT_BASIS

    def block(op):
        return b.conj().T @ op @ b

    mapping = {
        "Sz2": block(sz @ sz),
        "Sz": block(sz),
        "Sx2-Sy2": block(sx @ sx - sy @ sy),
        "anticomm_xy": block(ac),
        "Sx": block(sx),
        "Sy": block(sy),
        "anticomm_yz": block(sy @ sz + sz @ sy),
        "anticomm_zx": block(sz @ sx + sx @ sz),
    }
    zero = np.zeros((2, 2), dtype=complex)
    expected = {
        "Sz2": np.eye(2, dtype=complex),
        "Sz": _SIGMA_X,
        "Sx2-Sy2": _SIGMA_Z,
        "anticomm_xy": -_SIGMA_Y,
        "Sx": zero,
        "Sy": zero,
        "anticomm_yz": zero,
        "anticomm_zx": zero,
    }
    h_eff = p.E * _SIGMA_Z + p.gamma_e * p.detuning * _SIGMA_X
    return FictitiousSpinModel(h_eff=h_eff, mapping=mapping, expected=expected)
