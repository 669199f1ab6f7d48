"""Exception types for simulation and analysis failures."""


class ClockspinError(Exception):
    """Base class for package-specific errors."""


class CalibrationError(ClockspinError):
    """No pulse drives the field's two lowest electronic states: the m_S = 0
    level is not above the +-1 doublet's upper level."""


class FitError(ClockspinError):
    """Nonlinear least-squares fit did not converge."""


class PeakExtractionError(ClockspinError):
    """Required spectral peaks are absent (e.g. no pair flanking nu_H)."""
