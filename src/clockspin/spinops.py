"""Single-spin operators: the S=1 electron and one spin-1/2 proton.

The electron basis is the Sz eigenbasis ``{|m_S=+1>, |m_S=0>, |m_S=-1>}``
and the proton basis is ``{|+1/2>, |-1/2>}``.  All operators are dense complex
matrices.  ``hamiltonian`` builds the bath's operators from the bits of the
basis index, and only the dense oracle in ``validate`` embeds these ones.
"""

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


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Relative Frobenius-norm Hermiticity check (absolute for ~zero input)."""
    scale = max(np.linalg.norm(m), 1.0)
    # conj(m) - m^T, the transpose of m^H - m, in one temporary: np.conjugate
    # copies, where m.conj() returns m itself for a real m
    skew = np.conjugate(m)
    skew -= m.T
    return np.linalg.norm(skew) <= tol * scale
