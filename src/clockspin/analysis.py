"""Echo-trace analysis: background fits, spectra, peaks and derived couplings.

Background decay is fit against the physical evolution time ``t = 2 tau``
(so T_m matches the usual phase-memory convention), while spectra transform
against the interpulse delay ``tau`` itself: two-pulse echo modulation is
periodic in tau, so this abscissa puts the ESEEM peaks at the bare nuclear
frequencies nu_H and 2 nu_H, as observed.

The decay fit is the bounded trust-region-reflective least-squares fit that
``scipy.optimize.curve_fit`` runs, ported to numpy in ``solvers``.
"""

from dataclasses import dataclass

import numpy as np

from .echotrace import EchoTrace, write_float_csv
from .errors import FitError, PeakExtractionError
from .solvers import least_squares_bounded

NO_DECAY_FACTOR = 10.0          # sentinel: T_m >= 10x the observation window
FLAT_RANGE_TOL = 1e-10          # relative range below which a trace is constant
LOWPASS_HZ = 12e6               # spectra: low-pass guard, bins above it are zeroed
PEAK_THRESHOLD = 0.1            # peaks: above this fraction of the band maximum
MIN_FIT_POINTS = 20             # fewest trace points a decay fit accepts
MAX_FIT_EVALUATIONS = 20000     # residual evaluations before a fit gives up


@dataclass
class DecayFit:
    """Stretched decay background ``I(t) = baseline + I0 exp[-(t/T_m)^x]``.

    The baseline is zero unless the fit was asked to resolve the finite-bath
    plateau (see ``fit_decay``).
    """

    i0: float
    t_m: float                  # phase-memory time (s), in t = 2 tau units
    exponent: float             # stretch exponent x
    residual_norm: float        # rms residual of the fit
    window: float               # fitted time span (s)
    baseline: float = 0.0

    @property
    def no_decay(self) -> bool:
        return self.t_m >= NO_DECAY_FACTOR * self.window

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.baseline + self.i0 * np.exp(-((t / self.t_m) ** self.exponent))


def _boxcar_width(tau: np.ndarray, smooth_hz: float) -> int:
    """Odd moving-average width over one period of ``smooth_hz`` on the grid
    ``tau``, or 0 where the trace stays as it is: a width of 1, or a grid too
    short to trim that width from each end.  A period of half the grid or
    more gives 0 before any rounding: it may be too long for an int."""
    if tau.size < 2:
        return 0
    with np.errstate(divide="ignore", over="ignore"):
        period = 1.0 / (smooth_hz * (tau[1] - tau[0]))
    if not 2 * period < tau.size:
        return 0
    width = max(1, int(round(period)))
    if width % 2 == 0:
        width += 1
    return width if 1 < width and 2 * width < tau.size else 0


def _boxcar_smooth(trace: EchoTrace, smooth_hz: float) -> EchoTrace:
    """Moving average over one period of ``smooth_hz``, edges trimmed."""
    width = _boxcar_width(trace.tau, smooth_hz)
    if not width:
        return trace
    kernel = np.ones(width) / width
    sm = np.convolve(trace.intensity, kernel, mode="same")
    return EchoTrace(tau=trace.tau[width:-width], intensity=sm[width:-width],
                     meta=dict(trace.meta))


def fit_decay(trace: EchoTrace, baseline: bool = False,
              smooth_hz: float | None = None) -> DecayFit:
    """Least-squares stretched-decay fit of an echo trace against t = 2 tau.

    The stretch exponent x is free in [0.5, 3].  Initialization is
    deterministic: I0 from the first sample, T_m from the 1/e point of the
    trace range, x = 1.  A trace with no resolvable decay reports the
    sentinel ``T_m = 10 * window``.

    Args:
        baseline: also fit a constant offset.  Finite baths refocus to a
            nonzero plateau, which the pure decay model cannot represent.
        smooth_hz: if set, fit a moving-average of the trace over one period
            of this frequency (suppresses deep ESEEM modulation so the fit
            tracks the envelope).  The returned curve still evaluates on any
            time grid.

    Raises:
        ValueError: if the trace has fewer than ``MIN_FIT_POINTS`` points, or
            an infinite or NaN value.
        FitError: if the optimizer fails to converge.
    """
    if smooth_hz is not None:
        trace = _boxcar_smooth(trace, smooth_hz)
    t = trace.times
    y = trace.intensity
    if t.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points to fit a decay")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("cannot fit a trace with infinite or NaN values")
    window = float(t[-1])
    scale = max(np.max(np.abs(y)), 1e-300)
    if (np.max(y) - np.min(y)) < FLAT_RANGE_TOL * scale:
        # Constant trace: the background is exactly the mean (a finite T_m
        # would make the sentinel curve decay over the window).
        return DecayFit(i0=0.0, t_m=NO_DECAY_FACTOR * window,
                        exponent=1.0, residual_norm=float(np.std(y)),
                        window=window, baseline=float(np.mean(y)))

    c0 = float(np.mean(y[-max(1, y.size // 10):])) if baseline else 0.0
    i0_init = float(y[0]) - c0
    target = y[-1] + (y[0] - y[-1]) / np.e
    crossed = np.nonzero((y - target) * np.sign(y[0] - y[-1]) < 0)[0]
    tm_init = float(t[crossed[0]]) if crossed.size else window
    tm_hi = 1e3 * window

    p0 = [i0_init, tm_init, 1.0]
    lo = [-np.inf, t[0] * 1e-3, 0.5]
    hi = [np.inf, tm_hi, 3.0]
    if baseline:
        p0.append(c0)
        lo.append(-np.inf)
        hi.append(np.inf)

    def fun(tt, *pars):
        i0, tm, x = pars[:3]
        c = pars[-1] if baseline else 0.0
        return c + i0 * np.exp(-((tt / tm) ** x))

    popt = _converged(least_squares_bounded(lambda p: fun(t, *p) - y, p0, lo, hi,
                                            MAX_FIT_EVALUATIONS))
    i0, t_m, x = map(float, popt[:3])
    c = float(popt[-1]) if baseline else 0.0
    resid = float(np.sqrt(np.mean((y - fun(t, *popt)) ** 2)))
    # A decay smaller than twice the fit noise is unresolved: report the
    # no-decay sentinel instead of a noise-driven T_m.
    span = abs(fun(t[0], *popt) - fun(t[-1], *popt))
    if span < 2.0 * resid:
        t_m = max(t_m, NO_DECAY_FACTOR * window)
    return DecayFit(i0=i0, t_m=t_m, exponent=x,
                    residual_norm=resid, window=window, baseline=c)


def _converged(result):
    """The solution of a decay fit, or FitError where the solver ran out of
    evaluations before a convergence test held."""
    if result.status <= 0:
        raise FitError("decay fit did not converge")
    return result.x


def subtract_background(trace: EchoTrace, fit: DecayFit) -> EchoTrace:
    """Residual trace after removing the fitted background."""
    residual = trace.intensity - fit.evaluate(trace.times)
    return EchoTrace(tau=trace.tau.copy(), intensity=residual, meta=dict(trace.meta))


@dataclass
class Peak:
    freq: float            # Hz, parabola-refined
    amplitude: float


@dataclass
class Spectrum:
    """Magnitude spectrum of an echo trace against the delay tau."""

    freq: np.ndarray
    amplitude: np.ndarray

    @property
    def bin_width(self) -> float:
        return float(self.freq[1] - self.freq[0])

    def write_csv(self, path):
        write_float_csv(path, "freq_MHz,amplitude", self.freq * 1e-6, self.amplitude)


def spectrum(trace: EchoTrace) -> Spectrum:
    """Magnitude FFT of a trace against tau (pass the background residual).

    A low-pass guard zeroes the bins above ``LOWPASS_HZ``; at the default
    100 ns stepping the Nyquist frequency lies below it and every bin is kept.
    """
    t = trace.tau
    if t.size < 2:
        raise ValueError("trace too short for a spectrum")
    steps = np.diff(t)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("non-uniform time grid")
    z = np.fft.rfft(trace.intensity)
    freq = np.fft.rfftfreq(t.size, dt)
    z = np.where(freq <= LOWPASS_HZ, z, 0.0)
    return Spectrum(freq=freq, amplitude=np.abs(z))


def find_peaks(spec: Spectrum, threshold_fraction: float = PEAK_THRESHOLD,
               f_min: float = 0.0) -> list:
    """Local maxima above a fraction of the band maximum, parabola-refined.

    ``f_min`` restricts both the candidates and the reference maximum to
    frequencies at or above it (useful to skip the low-frequency residue of
    the background subtraction).
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must be in (0, 1)")
    amp = spec.amplitude
    band = spec.freq >= f_min
    top = amp[band].max() if np.any(band) else 0.0
    if top <= 0.0:
        return []
    thr = threshold_fraction * top
    peaks = []
    df = spec.bin_width
    for i in range(1, amp.size - 1):
        if not band[i]:
            continue
        if amp[i] < thr or amp[i] < amp[i - 1] or amp[i] <= amp[i + 1]:
            continue
        denom = amp[i - 1] - 2.0 * amp[i] + amp[i + 1]
        if denom >= 0.0:
            delta = 0.0
        else:
            delta = 0.5 * (amp[i - 1] - amp[i + 1]) / denom
        freq = spec.freq[i] + delta * df
        height = amp[i] - 0.25 * (amp[i - 1] - amp[i + 1]) * delta
        peaks.append(Peak(freq=float(freq), amplitude=float(height)))
    peaks.sort(key=lambda p: p.freq)
    return peaks


def check_fit_grid(tau: np.ndarray, nu_h: float) -> None:
    """Refuse a delay grid on which ``analyze(trace, nu_h)`` cannot fit the decay.

    Raises:
        ValueError: if the smoothed, trimmed grid keeps fewer than
            ``MIN_FIT_POINTS`` points.
    """
    kept = tau.size - 2 * (_boxcar_width(tau, nu_h) if nu_h > 0 else 0)
    if kept < MIN_FIT_POINTS:
        raise ValueError(f"the tau grid leaves {kept} points to fit at proton frequency "
                         f"{nu_h * 1e-6:.4g} MHz, fewer than {MIN_FIT_POINTS}")


def analyze(trace: EchoTrace, nu_h: float):
    """The per-field recipe: ``(fit, residual, spectrum, peaks)`` of an averaged trace.

    The decay background is fit with a baseline, on the trace smoothed over
    one proton period ``1 / nu_h`` (unsmoothed if ``nu_h`` is 0).  A residual
    below 1e-9 of ``|baseline| + |I0|`` is numerical noise and reports no
    peaks; the others are those above ``PEAK_THRESHOLD`` of the band maximum.
    A decay-dominated trace leaves a low-frequency residue of the background
    subtraction that would dominate a global threshold; it has no ESEEM
    content below 0.3 MHz, so its peaks are sought above that.
    """
    fit = fit_decay(trace, baseline=True, smooth_hz=nu_h if nu_h > 0 else None)
    residual = subtract_background(trace, fit)
    spec = spectrum(residual)
    if np.max(np.abs(residual.intensity)) < 1e-9 * (abs(fit.baseline) + abs(fit.i0)):
        return fit, residual, spec, []
    decay_dominated = abs(fit.i0) > 0.5 * abs(fit.baseline) and not fit.no_decay
    peaks = find_peaks(spec, PEAK_THRESHOLD, f_min=0.3e6 if decay_dominated else 0.0)
    return fit, residual, spec, peaks


@dataclass
class EffectiveCoupling:
    """Splitting of the pair of peaks flanking the proton frequency."""

    a_eff: float           # unsigned splitting, Hz
    orientation: int       # +1 if the upper peak is stronger, -1 if lower, 0 if merged
    lower: Peak | None
    upper: Peak | None


def effective_hyperfine(peaks, nu_h: float, bin_hz: float = 0.0) -> EffectiveCoupling:
    """Extract A_eff from the pair of peaks flanking ``nu_h``.

    A pair closer than one interpolated bin (``bin_hz``) is treated as merged
    and reports ``a_eff = 0``; likewise a single peak within one bin of nu_h.

    Raises:
        PeakExtractionError: when no flanking pair (or merged peak) exists.
    """
    below = [p for p in peaks if p.freq < nu_h]
    above = [p for p in peaks if p.freq >= nu_h]
    lower = max(below, key=lambda p: p.freq) if below else None
    upper = min(above, key=lambda p: p.freq) if above else None
    if lower is not None and upper is not None:
        a_eff = upper.freq - lower.freq
        if a_eff < bin_hz:
            return EffectiveCoupling(0.0, 0, lower, upper)
        orientation = 1 if upper.amplitude >= lower.amplitude else -1
        return EffectiveCoupling(float(a_eff), orientation, lower, upper)
    solo = lower or upper
    if solo is not None and abs(solo.freq - nu_h) <= bin_hz:
        return EffectiveCoupling(0.0, 0, solo, solo)
    raise PeakExtractionError(
        f"no pair of peaks flanking nu_H = {nu_h / 1e6:.4f} MHz"
    )


@dataclass
class PeakMapRow:
    b0: float              # applied field, T
    freq: float            # peak center, Hz
    label: str


def peak_map(b0_values, peaks_per_field, gamma_h: float, bin_hz: float) -> list:
    """Classify the peaks of a detuning sweep against the nu_H / 2 nu_H guides.

    Args:
        b0_values: applied field per sweep entry (T).
        peaks_per_field: matching list of peak lists, each in frequency order.
        gamma_h: proton gyromagnetic ratio (Hz/T).
        bin_hz: interpolated FFT bin width, used as the merge tolerance.

    Returns:
        Flat list of PeakMapRow with labels ``a_eff``, ``nu_h_minus``,
        ``nu_h_plus``, ``two_nu_h`` or ``other``.  Each field's rows come in
        this order: the pair flanking nu_H (``effective_hyperfine``), the peak
        nearest 2 nu_H among the others if within nu_H / 2 of it, the peak
        below the pair nearest A_eff if within ``max(0.3 A_eff, 2 bin_hz)`` of
        it, then every other peak, in frequency order.  A merged flanking pair
        is emitted as two coincident rows and has no A_eff line.
    """
    rows = []
    for b0, peaks in zip(b0_values, peaks_per_field):
        nu_h = abs(gamma_h * b0)
        try:
            ec = effective_hyperfine(peaks, nu_h, bin_hz=bin_hz)
            labelled = [(ec.lower, "nu_h_minus"), (ec.upper, "nu_h_plus")]
        except PeakExtractionError:
            ec, labelled = None, []
        guides = [("two_nu_h", 2.0 * nu_h, 0.5 * nu_h, np.inf)]    # label, target, tol, below
        if ec is not None and ec.a_eff:
            guides.append(("a_eff", ec.a_eff, max(0.3 * ec.a_eff, 2.0 * bin_hz), ec.lower.freq))
        for label, target, tol, below in guides:
            free = [p for p in peaks if p.freq < below and all(p is not q for q, _ in labelled)]
            best = min(free, key=lambda p: abs(p.freq - target), default=None)
            if best is not None and abs(best.freq - target) <= tol:
                labelled.append((best, label))
        labelled += [(p, "other") for p in peaks if all(p is not q for q, _ in labelled)]
        rows += [PeakMapRow(b0, p.freq, label) for p, label in labelled]
    return rows


def write_peak_map_csv(rows, path):
    write_float_csv(path, "B0_mT,f_MHz,label", [r.b0 * 1e3 for r in rows],
                    [r.freq * 1e-6 for r in rows], [r.label for r in rows])
