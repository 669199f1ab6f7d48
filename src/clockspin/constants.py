"""Physical constants used across the package (SI units).

The CODATA values are the doubles that ``scipy.constants`` 1.17 returns
(CODATA 2022); h and k are exact in SI.
"""

PLANCK = 6.62607015e-34             # J s
KBOLTZ = 1.380649e-23               # J/K
MU0 = 1.25663706127e-06             # T m/A
MU_BOHR = 9.2740100657e-24          # J/T
PROTON_MOMENT = 1.41060679545e-26   # J/T, = gamma_H * h / 2

# Proton gyromagnetic ratio in Hz/T.  The bath Hamiltonian uses this value
# directly; it is also exposed as a model parameter so it can be overridden.
GAMMA_H = 42.577e6

# Effective dipole moment gamma_H * hbar = 2 * PROTON_MOMENT (J/T).  The
# proton-pair coupling estimate of ~10 kHz at 1.8 A is only reproduced with
# this convention; the electron-nuclear estimate (~3 MHz at 4 A) uses
# PROTON_MOMENT instead.
PROTON_MOMENT_GAMMA_HBAR = 2.0 * PROTON_MOMENT

# k_B/h in Hz/K: converts a temperature to a thermal frequency scale.
KBOLTZ_OVER_PLANCK = KBOLTZ / PLANCK
