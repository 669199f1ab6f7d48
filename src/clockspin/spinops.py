"""Spin operator algebra for one S=1 electron and a spin-1/2 proton bath.

The electron basis is the Sz eigenbasis ``{|m_S=+1>, |m_S=0>, |m_S=-1>}``;
each nuclear factor uses ``{|+1/2>, |-1/2>}``, and bath operators act on
``C^2 (x) ... (x) C^2`` with nucleus 0 as the most significant factor.  All
operators are dense complex matrices.
"""

from functools import reduce

import numpy as np

HERMITIAN_TOL = 1e-12

_SQRT2 = np.sqrt(2.0)

# Spin-1 ladder operators in the m_S = {+1, 0, -1} basis.
_SPLUS = np.array(
    [[0.0, _SQRT2, 0.0], [0.0, 0.0, _SQRT2], [0.0, 0.0, 0.0]], dtype=complex
)
_SMINUS = _SPLUS.conj().T


def spin1_generators():
    """Spin-1 generators in the ``{+1, 0, -1}`` basis.

    Returns:
        Tuple ``(Sx, Sy, Sz, anticomm_xy)`` where
        ``anticomm_xy = Sx@Sy + Sy@Sx`` is the generator of the echo pulses.
    """
    sx = (_SPLUS + _SMINUS) / 2.0
    sy = (_SPLUS - _SMINUS) / 2.0j
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    anticomm_xy = sx @ sy + sy @ sx
    return sx, sy, sz, anticomm_xy


def spin_half_generators():
    """Spin-1/2 generators (half the Pauli matrices): ``(Ix, Iy, Iz)``."""
    ix = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    iy = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
    iz = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
    return ix, iy, iz


def embed_bath(op: np.ndarray, site: int, n_nuclei: int) -> np.ndarray:
    """Embed a 2x2 nuclear operator into the bath-only space (dim 2**N)."""
    if not 0 <= site < n_nuclei:
        raise ValueError(f"nucleus index {site} out of range for N={n_nuclei}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"operator shape {op.shape} is not a nuclear 2x2")
    factors = [np.eye(2, dtype=complex)] * n_nuclei
    factors[site] = op
    return reduce(np.kron, factors)


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Relative Frobenius-norm Hermiticity check (absolute for ~zero input)."""
    scale = max(np.linalg.norm(m), 1.0)
    return np.linalg.norm(m - m.conj().T) <= tol * scale
