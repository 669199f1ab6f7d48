"""Desk-scale simulator of clock-transition ESEEM for a central S=1 spin.

A single electronic spin with strong axial and weak rhombic anisotropy is
driven through a two-pulse Hahn-echo sequence while coupled to a small,
randomized proton bath.  The package produces echo time traces, their
spectra, effective hyperfine couplings and phase-memory times as a function
of magnetic-field detuning from the clock transition.
"""

__version__ = "0.1.0"

from .bath import BathRealization, BathSpec, dipolar_strength, ensemble_average, sample_bath
from .dynamics import SequenceConfig, calibrate_pulses, field_sweep, hahn_echo_trace
from .echotrace import EchoTrace
from .hamiltonian import (
    ElectronSpectrum,
    ModelParams,
    clock_frequency_curve,
    eigensolve,
    project_fictitious,
)
from .spinops import spin1_generators, spin_half_generators

__all__ = [
    "BathRealization",
    "BathSpec",
    "EchoTrace",
    "ElectronSpectrum",
    "ModelParams",
    "SequenceConfig",
    "calibrate_pulses",
    "clock_frequency_curve",
    "dipolar_strength",
    "eigensolve",
    "ensemble_average",
    "field_sweep",
    "hahn_echo_trace",
    "project_fictitious",
    "sample_bath",
    "spin1_generators",
    "spin_half_generators",
]
