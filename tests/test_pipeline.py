"""Cross-module physics checks on the full trace -> analysis pipeline."""

import numpy as np
import pytest

import clockspin as cs
from clockspin import analysis
from clockspin.dynamics import SequenceConfig, hahn_echo_trace
from clockspin.hamiltonian import ModelParams
from support import modulation_depth


def manifold_frequencies(params, a_sc, a_psc):
    s = params.gamma_e * params.detuning / np.sqrt(
        params.E**2 + (params.gamma_e * params.detuning) ** 2
    )
    nu_h = params.gamma_H * params.B0
    out = []
    for s_e in (+s, -s):
        vec = np.array([s_e * a_psc, s_e * a_psc, s_e * a_sc - nu_h])
        out.append(float(np.linalg.norm(vec)))
    return out


def single_proton():
    return cs.BathRealization(
        a_sc=np.array([1e6]), a_psc=np.array([0.5e6]),
        theta=np.zeros((1, 1)), d_pair=0.0,
    )


def n1_extraction(db_mt, tau_step=25e-9, tau_max=100e-6):
    params = ModelParams().at_detuning(db_mt * 1e-3)
    trace = hahn_echo_trace(params, single_proton(),
                            SequenceConfig(tau_step=tau_step, tau_max=tau_max))
    fit = analysis.fit_decay(trace)
    residual = analysis.subtract_background(trace, fit)
    spec = analysis.spectrum(residual)
    peaks = analysis.find_peaks(spec, 0.05)
    return params, spec, peaks


class TestSingleProtonSpectra:
    def test_peaks_match_manifold_oracle_at_20mT(self):
        params, spec, peaks = n1_extraction(20.0)
        nu_u, nu_l = manifold_frequencies(params, 1e6, 0.5e6)
        oracle = sorted([abs(nu_l - nu_u), nu_u, nu_l, nu_u + nu_l])
        assert len(peaks) == 4
        for peak, expect in zip(peaks, oracle):
            assert abs(peak.freq - expect) <= spec.bin_width

    def test_flanking_pair_straddles_nu_h(self):
        params, spec, peaks = n1_extraction(20.0)
        ec = analysis.effective_hyperfine(peaks, params.proton_larmor(), spec.bin_width)
        assert ec.lower.freq < params.proton_larmor() < ec.upper.freq

    def test_a_eff_magnitude_even_in_detuning(self):
        # |A_eff(+dB)| matches |A_eff(-dB)| to 5% near the CT
        _, spec_p, peaks_p = n1_extraction(10.0)
        params_p = ModelParams().at_detuning(10e-3)
        ec_p = analysis.effective_hyperfine(peaks_p, params_p.proton_larmor(),
                                            spec_p.bin_width)
        params_m = ModelParams().at_detuning(-10e-3)
        _, spec_m, peaks_m = n1_extraction(-10.0)
        ec_m = analysis.effective_hyperfine(peaks_m, params_m.proton_larmor(),
                                            spec_m.bin_width)
        assert ec_p.a_eff == pytest.approx(ec_m.a_eff, rel=0.05)

    def test_modulation_grows_with_detuning(self):
        depths = []
        for db_mt in (1.0, 3.0, 5.0):
            params = ModelParams().at_detuning(db_mt * 1e-3)
            trace = hahn_echo_trace(params, single_proton(),
                                    SequenceConfig(tau_step=100e-9, tau_max=50e-6))
            fit = analysis.fit_decay(trace)
            residual = analysis.subtract_background(trace, fit)
            depths.append(modulation_depth(residual, (2e-6, 40e-6), fit))
        assert depths[0] < depths[1] < depths[2]


class TestPseudosecularRole:
    def test_no_modulation_without_pseudosecular_n2(self):
        # secular-only coupling with the pair interaction removed: no
        # forbidden transitions and no decay channel, trace is constant
        bath = cs.BathRealization(
            a_sc=np.array([7.5e6, 8.5e6]), a_psc=np.zeros(2),
            theta=np.zeros((2, 2)), d_pair=0.0,
        )
        params = ModelParams().at_detuning(2e-3)
        trace = hahn_echo_trace(params, bath, SequenceConfig(tau_step=100e-9, tau_max=30e-6))
        rel = (trace.intensity.max() - trace.intensity.min()) / abs(trace.intensity.mean())
        assert rel < 1e-10

    def test_pseudosecular_restores_modulation_n2(self):
        bath = cs.BathRealization(
            a_sc=np.array([7.5e6, 8.5e6]), a_psc=np.array([3.75e6, 4.25e6]),
            theta=np.zeros((2, 2)), d_pair=0.0,
        )
        params = ModelParams().at_detuning(2e-3)
        trace = hahn_echo_trace(params, bath, SequenceConfig(tau_step=100e-9, tau_max=30e-6))
        rel = (trace.intensity.max() - trace.intensity.min()) / abs(trace.intensity.mean())
        assert rel > 1e-2
