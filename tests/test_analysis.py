import numpy as np
import pytest

from clockspin.analysis import (
    AnalysisOptions,
    Peak,
    analyze,
    effective_hyperfine,
    find_peaks,
    fit_decay,
    peak_map,
    spectrum,
    subtract_background,
)
from clockspin.echotrace import EchoTrace
from clockspin.errors import PeakExtractionError
from support import modulation_depth


def trace_from_t(values, tau_step=100e-9):
    values = np.asarray(values, dtype=float)
    tau = tau_step * np.arange(1, values.size + 1)
    return EchoTrace(tau=tau, intensity=values)


def stretched(t, i0, tm, x):
    return i0 * np.exp(-((t / tm) ** x))


class TestFitDecay:
    def test_mono_exponential_roundtrip(self):
        # target value from the experimental CT decay: T_m = 8.43 us
        tau = 100e-9 * np.arange(1, 1001)
        t = 2 * tau
        y = stretched(t, 1.0, 8.43e-6, 1.0)
        fit = fit_decay(trace_from_t(y), model="mono")
        assert fit.t_m == pytest.approx(8.43e-6, rel=1e-3)
        assert fit.exponent == 1.0

    def test_stretched_roundtrip(self):
        tau = 100e-9 * np.arange(1, 1001)
        y = stretched(2 * tau, 0.4, 20e-6, 2.0)
        fit = fit_decay(trace_from_t(y))
        assert fit.exponent == pytest.approx(2.0, rel=1e-2)
        assert fit.t_m == pytest.approx(20e-6, rel=1e-2)
        assert fit.i0 == pytest.approx(0.4, rel=1e-3)

    def test_constant_trace_reports_sentinel(self):
        fit = fit_decay(trace_from_t(np.full(100, 0.7)))
        assert fit.no_decay
        assert fit.t_m >= 10 * 2 * 100e-9 * 100

    def test_modulated_nondecaying_trace_reports_sentinel(self):
        tau = 100e-9 * np.arange(1, 1001)
        y = 0.5 + 0.05 * np.sin(2 * np.pi * 1e6 * tau)
        fit = fit_decay(trace_from_t(y))
        assert fit.no_decay

    def test_negative_amplitude_supported(self):
        tau = 100e-9 * np.arange(1, 501)
        y = stretched(2 * tau, -0.3, 15e-6, 1.2)
        fit = fit_decay(trace_from_t(y))
        assert fit.i0 == pytest.approx(-0.3, rel=1e-2)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_decay(trace_from_t(np.ones(5)))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_decay(trace_from_t(np.ones(50)), model="biexp")


class TestSubtractBackground:
    def test_own_fit_gives_zero_residual(self):
        tau = 100e-9 * np.arange(1, 501)
        y = stretched(2 * tau, 1.0, 12e-6, 1.0)
        trace = trace_from_t(y)
        fit = fit_decay(trace)
        residual = subtract_background(trace, fit)
        assert np.max(np.abs(residual.intensity)) < 1e-6

    def test_recovers_injected_sinusoid(self):
        tau = 100e-9 * np.arange(1, 1001)
        t = 2 * tau
        background = stretched(t, 1.0, 40e-6, 1.0)
        wiggle = 0.05 * np.sin(2 * np.pi * 0.9e6 * tau)
        trace = trace_from_t(background + wiggle)
        fit = fit_decay(trace)
        residual = subtract_background(trace, fit)
        recovered = residual.intensity
        assert np.max(recovered) == pytest.approx(0.05, rel=0.02)
        assert residual.meta["background"]["model"] == "stretched"

    def test_mean_residual_small(self):
        tau = 100e-9 * np.arange(1, 1001)
        y = stretched(2 * tau, 1.0, 30e-6, 1.5) + 0.02 * np.sin(2 * np.pi * 1.1e6 * tau)
        trace = trace_from_t(y)
        fit = fit_decay(trace)
        residual = subtract_background(trace, fit)
        assert abs(residual.intensity.mean()) < 0.01 * abs(fit.i0)

    def test_refit_after_subtraction_sees_no_decay(self):
        tau = 100e-9 * np.arange(1, 501)
        trace = trace_from_t(stretched(2 * tau, 1.0, 12e-6, 1.0))
        fit = fit_decay(trace)
        residual = subtract_background(trace, fit)
        assert fit_decay(residual).no_decay


class TestSpectrum:
    def test_sinusoid_peak_position(self):
        tau = 100e-9 * np.arange(1, 1001)
        y = np.sin(2 * np.pi * 1.0e6 * tau)
        spec = spectrum(trace_from_t(y))
        peak_bin = np.argmax(spec.amplitude)
        assert abs(spec.freq[peak_bin] - 1.0e6) <= spec.bin_width

    def test_constant_input_silent_beyond_dc(self):
        spec = spectrum(trace_from_t(np.ones(512)))
        assert np.max(spec.amplitude[2:]) < 1e-9 * spec.amplitude[0]

    def test_linearity_of_complex_transform(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=256)
        y = rng.normal(size=256)
        sx = spectrum(trace_from_t(x)).complex_amplitude
        sy = spectrum(trace_from_t(y)).complex_amplitude
        sxy = spectrum(trace_from_t(2.0 * x - 0.5 * y)).complex_amplitude
        assert np.max(np.abs(sxy - (2.0 * sx - 0.5 * sy))) < 1e-9 * np.max(np.abs(sx))

    def test_experimental_mode_pads_and_smooths(self):
        tau = 100e-9 * np.arange(1, 257)
        y = np.sin(2 * np.pi * 1.0e6 * tau)
        spec = spectrum(trace_from_t(y), mode="experimental")
        assert spec.processing["zero_pad"] == 512
        assert spec.freq.size == (256 + 512) // 2 + 1
        assert "5-point" in spec.processing["smoothing"]

    def test_simulation_lowpass_guard_clamps_to_nyquist(self):
        spec = spectrum(trace_from_t(np.ones(128)))
        assert spec.processing["lowpass_hz"] == pytest.approx(5e6)

    def test_lowpass_cutoff_applies_below_nyquist(self):
        tau = 10e-9 * np.arange(1, 2049)   # Nyquist 50 MHz
        y = np.sin(2 * np.pi * 20e6 * tau)
        spec = spectrum(trace_from_t(y, tau_step=10e-9))
        mask = spec.freq > 12e6
        assert np.max(spec.amplitude[mask]) == 0.0

    def test_non_uniform_grid_rejected(self):
        tau = np.array([1e-7, 2e-7, 4e-7, 8e-7])
        trace = EchoTrace(tau=tau, intensity=np.ones(4))
        with pytest.raises(ValueError):
            spectrum(trace)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            spectrum(trace_from_t(np.ones(64)), mode="telepathy")


class TestFindPeaks:
    def test_two_injected_sinusoids(self):
        tau = 100e-9 * np.arange(1, 2001)
        y = np.sin(2 * np.pi * 1.0e6 * tau) + np.sin(2 * np.pi * 2.2e6 * tau)
        spec = spectrum(trace_from_t(y))
        peaks = find_peaks(spec, 0.5)
        assert len(peaks) == 2
        assert abs(peaks[0].freq - 1.0e6) < 0.5 * spec.bin_width
        assert abs(peaks[1].freq - 2.2e6) < 0.5 * spec.bin_width

    def test_flat_spectrum_empty(self):
        spec = spectrum(trace_from_t(np.zeros(128)))
        assert find_peaks(spec) == []

    def test_threshold_excludes_small_peak(self):
        tau = 100e-9 * np.arange(1, 2001)
        y = np.sin(2 * np.pi * 1.0e6 * tau) + 0.05 * np.sin(2 * np.pi * 2.2e6 * tau)
        spec = spectrum(trace_from_t(y))
        peaks = find_peaks(spec, threshold_fraction=0.2)
        assert len(peaks) == 1
        assert abs(peaks[0].freq - 1.0e6) < spec.bin_width

    def test_threshold_domain(self):
        spec = spectrum(trace_from_t(np.ones(64)))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                find_peaks(spec, bad)


class TestAnalyze:
    TAU = 100e-9 * np.arange(1, 1001)

    def test_noise_level_residual_has_no_peaks(self):
        # a 1 MHz line 1e-12 deep: far below 1e-9 of the signal, yet the
        # largest bin of the residual spectrum
        y = 0.7 + 1e-12 * np.sin(2 * np.pi * 1e6 * self.TAU)
        _, residual, spec, peaks = analyze(trace_from_t(y), 1e6, AnalysisOptions())
        assert np.max(np.abs(residual.intensity)) > 0
        assert find_peaks(spec, 0.1)
        assert peaks == []

    def test_decay_dominated_trace_skips_peaks_below_0p3_mhz(self):
        # equal lines at 0.15 and 2 MHz on a decay from 1.1 to a 0.1 plateau
        t = 2 * self.TAU
        y = 0.1 + stretched(t, 1.0, 20e-6, 1.0) + 0.02 * (
            np.cos(2 * np.pi * 0.15e6 * self.TAU) + np.cos(2 * np.pi * 2e6 * self.TAU))
        fit, _, spec, peaks = analyze(trace_from_t(y), 1e6, AnalysisOptions())
        assert not fit.no_decay and abs(fit.i0) > 0.5 * abs(fit.baseline)
        assert any(p.freq < 0.3e6 for p in find_peaks(spec, 0.1))
        assert peaks and all(p.freq >= 0.3e6 for p in peaks)
        assert any(abs(p.freq - 2e6) < spec.bin_width for p in peaks)


class TestEffectiveHyperfine:
    def test_paper_flanking_pair(self):
        peaks = [Peak(0.886e6, 1.0), Peak(1.286e6, 0.9)]
        ec = effective_hyperfine(peaks, 1.086e6)
        assert ec.a_eff == pytest.approx(0.4e6)
        assert ec.orientation == -1

    def test_symmetric_pair(self):
        peaks = [Peak(0.8e6, 1.0), Peak(1.2e6, 1.0)]
        ec = effective_hyperfine(peaks, 1.0e6)
        assert ec.a_eff == pytest.approx(0.4e6)
        assert ec.orientation == 1  # ties resolve to the upper branch

    def test_missing_pair_raises(self):
        with pytest.raises(PeakExtractionError):
            effective_hyperfine([Peak(2.0e6, 1.0), Peak(3.0e6, 0.5)], 1.0e6)

    def test_merged_pair_reports_zero(self):
        peaks = [Peak(1.0005e6, 1.0)]
        ec = effective_hyperfine(peaks, 1.0e6, bin_hz=1e3)
        assert ec.a_eff == 0.0
        assert ec.orientation == 0

    def test_signed_value(self):
        peaks = [Peak(0.8e6, 0.5), Peak(1.2e6, 1.0)]
        assert effective_hyperfine(peaks, 1.0e6).signed == pytest.approx(0.4e6)
        peaks = [Peak(0.8e6, 1.0), Peak(1.2e6, 0.5)]
        assert effective_hyperfine(peaks, 1.0e6).signed == pytest.approx(-0.4e6)


class TestModulationDepth:
    def test_zero_residual(self):
        tau = 100e-9 * np.arange(1, 501)
        trace = trace_from_t(stretched(2 * tau, 1.0, 1e-4, 1.0))
        fit = fit_decay(trace)
        residual = subtract_background(trace, fit)
        assert modulation_depth(residual, (10e-6, 50e-6), fit) < 1e-6

    def test_synthetic_sinusoid_depth(self):
        # residual 0.1 I0 sin(...) against a flat background: depth 0.2;
        # 1.25 MHz samples its extrema exactly on the 100 ns grid
        tau = 100e-9 * np.arange(1, 1001)
        i0 = 0.8
        trace = trace_from_t(np.full(1000, i0) + 0.1 * i0 * np.sin(2 * np.pi * 1.25e6 * tau))
        fit = fit_decay(trace)
        residual = subtract_background(trace, fit)
        depth = modulation_depth(residual, (20e-6, 180e-6), fit)
        assert depth == pytest.approx(0.2, rel=0.02)

    def test_empty_window_rejected(self):
        tau = 100e-9 * np.arange(1, 101)
        trace = trace_from_t(np.ones(100))
        fit = fit_decay(trace)
        with pytest.raises(ValueError):
            modulation_depth(trace, (1.0, 2.0), fit)


class TestPeakMap:
    def test_labels_standard_morphology(self):
        gamma_h = 42.577e6
        b0 = 25.5e-3
        nu = gamma_h * b0
        peaks = [
            Peak(0.2e6, 0.5), Peak(nu - 0.1e6, 1.0), Peak(nu + 0.1e6, 0.9),
            Peak(2 * nu, 0.4),
        ]
        rows = peak_map([b0], [peaks], gamma_h, bin_hz=5e3)
        labels = {r.label for r in rows}
        assert {"nu_h_minus", "nu_h_plus", "two_nu_h", "a_eff"} <= labels

    def test_merged_pair_emits_coincident_rows(self):
        gamma_h = 42.577e6
        b0 = 23.5e-3
        nu = gamma_h * b0
        rows = peak_map([b0], [[Peak(nu + 100.0, 1.0), Peak(2 * nu, 0.4)]],
                        gamma_h, bin_hz=1e3)
        flank = [r for r in rows if r.label in ("nu_h_minus", "nu_h_plus")]
        assert len(flank) == 2
        assert flank[0].freq == flank[1].freq

    def test_unmatched_peaks_labeled_other(self):
        rows = peak_map([25.5e-3], [[Peak(0.97e6, 1.0), Peak(1.2e6, 0.8), Peak(4.4e6, 0.5)]],
                        42.577e6, bin_hz=5e3)
        assert any(r.label == "other" for r in rows)
