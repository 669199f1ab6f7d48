"""Exception types for simulation and analysis failures."""


class ClockspinError(Exception):
    """Base class for package-specific errors."""


class CalibrationError(ClockspinError):
    """Pulse-angle optimization found no usable maximum."""


class FitError(ClockspinError):
    """Nonlinear least-squares fit did not converge."""


class PeakExtractionError(ClockspinError):
    """Required spectral peaks are absent (e.g. no pair flanking nu_H)."""
