import numpy as np
import pytest
from scipy.linalg import expm

from clockspin import constants, dynamics
from clockspin.bath import BathRealization, BathSpec, sample_bath
from clockspin.dynamics import (
    SequenceConfig,
    _electron_pulse,
    calibrate_pulses,
    field_sweep,
    hahn_echo_trace,
)
from clockspin.hamiltonian import ModelParams, build_electronic, eigensolve
from clockspin.spinops import spin1_generators
from clockspin.validate import reference_echo, reference_hamiltonian


def single_proton(a_sc=1e6, a_psc=0.5e6):
    return BathRealization(
        a_sc=np.array([a_sc]), a_psc=np.array([a_psc]),
        theta=np.zeros((1, 1)), d_pair=0.0,
    )


def two_protons():
    return BathRealization(
        a_sc=np.array([1e6, 1.3e6]), a_psc=np.array([0.5e6, 0.65e6]),
        theta=np.array([[0.0, 0.4], [0.4, 0.0]]), d_pair=10e3,
    )


def n5_bath():
    return sample_bath(BathSpec(n_nuclei=5), 0)


def n7_bath():
    return sample_bath(BathSpec(n_nuclei=7), 0)


def replayed_reference(params, bath, seq, trace):
    """The dense reference run with the angles the block engine used."""
    angles = trace.meta["sequence"]
    return reference_echo(params, bath, seq, angles["phi_half_rad"], angles["phi_pi_rad"])


def ct_boltzmann_weights(p, temperature):
    """Thermal weights of the analytic electronic triple (lower, upper, m_S=0)."""
    g = np.sqrt(p.E**2 + (p.gamma_e * p.detuning) ** 2)
    levels = np.array([-abs(p.D) / 3 - g, -abs(p.D) / 3 + g, 2 * abs(p.D) / 3])
    w = np.exp(-levels / (constants.KBOLTZ_OVER_PLANCK * temperature))
    return w / w.sum()


class TestThermalState:
    """The block engine's thermal weights, observed through the echo."""

    def test_infinite_temperature_is_maximally_mixed(self):
        # a maximally mixed state carries no polarization for the pulses to move
        seq = SequenceConfig(tau_step=100e-9, tau_max=20e-6, temperature=1e9)
        trace = hahn_echo_trace(ModelParams(), single_proton(), seq)
        assert np.max(np.abs(trace.intensity)) < 1e-6

    def test_boltzmann_populations_n0(self):
        # scalar oracle: at the CT a pi/2 - tau - pi - tau echo of the bare
        # electron reads the doublet population difference exp(-E_k h / k_B T)
        # over the analytic triple, m_S = 0 included in the normalization
        seq = SequenceConfig(tau_step=100e-9, tau_max=2e-6, phi_half=np.pi / 2, phi_pi=np.pi)
        trace = hahn_echo_trace(ModelParams(), None, seq)
        w = ct_boltzmann_weights(ModelParams(), 5.0)
        assert np.allclose(trace.intensity, w[0] - w[1], rtol=1e-12, atol=0.0)

    def test_thermal_frequency_scale(self):
        # k_B T / h at 5 K is ~104.2 GHz
        assert constants.KBOLTZ_OVER_PLANCK * 5.0 == pytest.approx(104.2e9, rel=1e-3)

    def test_commutes_with_hamiltonian(self):
        # without pulses the thermal state is stationary: the trace is flat
        seq = SequenceConfig(tau_step=100e-9, tau_max=20e-6, phi_half=0.0, phi_pi=0.0)
        trace = hahn_echo_trace(ModelParams().at_detuning(2e-3), single_proton(), seq)
        assert np.max(np.abs(trace.intensity - trace.intensity[0])) < 1e-12

    def test_density_matrix_invariants(self):
        # the block weights reproduce the normalized dense exp(-beta H), whose
        # Sz readout a valid density matrix keeps within [-1, 1]
        p = ModelParams().at_detuning(2e-3)
        seq = SequenceConfig(tau_step=200e-9, tau_max=5e-6, phi_half=0.0, phi_pi=0.0)
        trace = hahn_echo_trace(p, two_protons(), seq)
        ref = reference_echo(p, two_protons(), seq, 0.0, 0.0)
        assert np.max(np.abs(trace.intensity - ref)) < 1e-12
        assert np.max(np.abs(trace.intensity)) <= 1.0

    def test_energy_expectation_matches_boltzmann_average(self):
        # detuned bare electron, no pulses: Tr(rho Sz) is the Boltzmann average
        # of the doublet's <Sz> = -+ gamma_e dB / sqrt(E^2 + (gamma_e dB)^2)
        p = ModelParams().at_detuning(10e-3)
        seq = SequenceConfig(tau_step=100e-9, tau_max=2e-6, phi_half=0.0, phi_pi=0.0)
        trace = hahn_echo_trace(p, None, seq)
        w = ct_boltzmann_weights(p, 5.0)
        s = p.gamma_e * p.detuning / np.sqrt(p.E**2 + (p.gamma_e * p.detuning) ** 2)
        assert np.allclose(trace.intensity, (w[1] - w[0]) * s, rtol=1e-10, atol=0.0)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            SequenceConfig(temperature=0.0)


class TestPropagate:
    """Delay evolution, in the engine and in the dense reference."""

    def test_tau_zero_is_identity(self):
        # with vanishing delays the two pulses compose into one rotation
        p = ModelParams().at_detuning(10e-3)
        for a, b in ((0.3, 1.1), (np.pi / 2, np.pi)):
            echo = hahn_echo_trace(p, single_proton(), SequenceConfig(
                tau_step=1e-21, tau_max=1e-21, phi_half=a, phi_pi=b))
            single = hahn_echo_trace(p, single_proton(), SequenceConfig(
                tau_step=1e-21, tau_max=1e-21, phi_half=a + b, phi_pi=0.0))
            assert abs(echo.intensity[0] - single.intensity[0]) < 1e-14

    def test_matrix_exponential_oracle(self):
        # the reference's eigenbasis delays against an independent
        # scaling-and-squaring propagator at tau <= 1 us, dim <= 48
        _, _, sz, ac, _, _ = spin1_generators()
        p = ModelParams().at_detuning(3e-3)
        seq = SequenceConfig(tau_step=250e-9, tau_max=1e-6)
        for n in (1, 2, 3, 4):
            bath = sample_bath(BathSpec(n_nuclei=n, n_realizations=1), 0)
            h = reference_hamiltonian(p, bath)
            nb = 2**n
            rho = expm(-constants.PLANCK / (constants.KBOLTZ * seq.temperature) * h)
            rho /= np.trace(rho).real
            p_half = np.kron(expm(0.5j * 0.4 * ac), np.eye(nb))
            p_pi = np.kron(expm(0.5j * 2.1 * ac), np.eye(nb))
            slow = []
            for t in seq.tau_grid():
                u = expm(-2j * np.pi * h * t)
                r = u @ p_half @ rho @ p_half.conj().T @ u.conj().T
                r = u @ p_pi @ r @ p_pi.conj().T @ u.conj().T
                slow.append(np.trace(r @ np.kron(sz, np.eye(nb))).real)
            fast = reference_echo(p, bath, seq, 0.4, 2.1)
            assert np.max(np.abs(fast - np.array(slow))) < 1e-8

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            SequenceConfig(tau_step=-100e-9).tau_grid()


class TestPulseOperator:
    def test_zero_angle_is_identity(self):
        assert np.allclose(_electron_pulse(0.0), np.eye(3))

    def test_unitary(self):
        u = _electron_pulse(0.7)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-10

    def test_one_parameter_group(self):
        a, b = 0.3, 1.1
        lhs = _electron_pulse(a) @ _electron_pulse(b)
        assert np.max(np.abs(lhs - _electron_pulse(a + b))) < 1e-12

    def test_matches_matrix_exponential(self):
        _, _, _, ac, _, _ = spin1_generators()
        for phi in (0.2, np.pi / 2, np.pi, 2.5):
            oracle = expm(1j * phi * ac / 2)
            assert np.max(np.abs(_electron_pulse(phi) - oracle)) < 1e-12

    def test_ct_subspace_rotation(self):
        # on the CT doublet the pulse acts as exp(-i phi sigma_y / 2): a Bloch
        # rotation by phi about y
        basis = np.array([[1, 1], [0, 0], [1, -1]], dtype=complex) / np.sqrt(2)
        sigma_y = np.array([[0, -1j], [1j, 0]])
        for phi in (0.4, np.pi / 2, np.pi):
            block = basis.conj().T @ _electron_pulse(phi) @ basis
            oracle = expm(-1j * phi * sigma_y / 2)
            assert np.max(np.abs(block - oracle)) < 1e-12


class TestCalibratePulses:
    def test_ct_angles_match_rabi_oracle(self):
        # transfer(phi) = sin^2(phi/2), so phi_pi = pi and phi_half = pi/2
        phi_half, phi_pi = calibrate_pulses(build_electronic(ModelParams()))
        assert phi_pi == pytest.approx(np.pi, abs=1e-4)
        assert phi_half == pytest.approx(np.pi / 2, abs=1e-4)

    def test_transfer_is_complete_at_phi_pi(self):
        h = build_electronic(ModelParams().at_detuning(3e-3))
        vals, vecs = eigensolve(h)
        _, phi_pi = calibrate_pulses(h)
        u = _electron_pulse(phi_pi)
        assert abs(vecs[:, 1].conj() @ u @ vecs[:, 0]) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_angles_smooth_in_field(self):
        p = ModelParams()
        prev = None
        for db in np.arange(-5e-3, 5.5e-3, 0.5e-3):
            angles = np.array(calibrate_pulses(build_electronic(p.at_detuning(db))))
            if prev is not None:
                assert np.max(np.abs(angles - prev)) < 0.1
            prev = angles

    def test_unreachable_transition_raises(self):
        # past ~0.64 T the m_S = 0 level becomes the second eigenstate; the
        # echo pulse cannot drive population into it
        from clockspin.errors import CalibrationError

        h = build_electronic(ModelParams().at_detuning(0.7))
        with pytest.raises(CalibrationError):
            calibrate_pulses(h)


class TestHahnEcho:
    def test_n0_constant_trace(self):
        seq = SequenceConfig(tau_step=100e-9, tau_max=20e-6)
        trace = hahn_echo_trace(ModelParams().at_detuning(2e-3), None, seq)
        spread = trace.intensity.max() - trace.intensity.min()
        assert spread < 1e-10 * abs(trace.intensity.mean())

    def test_n1_ct_modulation_negligible(self):
        seq = SequenceConfig(tau_step=100e-9, tau_max=20e-6)
        trace = hahn_echo_trace(ModelParams(), single_proton(), seq)
        spread = trace.intensity.max() - trace.intensity.min()
        assert spread < 1e-8 * abs(trace.intensity.mean())

    @pytest.mark.parametrize("bath_fn,detuning", [
        (single_proton, 20e-3),
        (two_protons, 2e-3),
        (n5_bath, 2e-3),
        (n5_bath, -2e-3),
        (n7_bath, 2e-3),
        (n7_bath, -2e-3),
    ])
    def test_block_engine_matches_full_reference(self, bath_fn, detuning):
        seq = SequenceConfig(tau_step=200e-9, tau_max=10e-6)
        p = ModelParams().at_detuning(detuning)
        blk = hahn_echo_trace(p, bath_fn(), seq)
        full = replayed_reference(p, bath_fn(), seq, blk)
        assert np.max(np.abs(blk.intensity - full)) < 1e-11

    def test_whole_window_within_numerical_floor(self):
        # eigenvalue roundoff eps * max|f| in each of the two delays grows
        # into a phase error of 4 pi eps max|f| tau; max|f| ~ 30 GHz here
        seq = SequenceConfig()
        eps = np.finfo(float).eps
        for db in (-5e-3, 0.0, 2e-3, 5e-3):
            p = ModelParams().at_detuning(db)
            for index in range(2):
                bath = sample_bath(BathSpec(n_nuclei=3), index)
                blk = hahn_echo_trace(p, bath, seq)
                full = replayed_reference(p, bath, seq, blk)
                f_max = np.max(np.abs(np.linalg.eigvalsh(reference_hamiltonian(p, bath))))
                floor = 1e-11 + 4 * np.pi * eps * f_max * blk.tau
                assert np.all(np.abs(blk.intensity - full) <= floor), (db, index)

    def test_trace_metadata(self):
        seq = SequenceConfig(tau_step=100e-9, tau_max=5e-6)
        trace = hahn_echo_trace(ModelParams(), single_proton(), seq)
        assert trace.meta["n_nuclei"] == 1
        assert trace.meta["sequence"]["phi_pi_rad"] == pytest.approx(np.pi, abs=1e-3)
        assert trace.tau[0] == pytest.approx(100e-9)
        assert trace.tau.size == 50

    def test_explicit_angles_respected(self):
        seq = SequenceConfig(tau_step=100e-9, tau_max=2e-6, phi_half=0.3, phi_pi=0.6)
        trace = hahn_echo_trace(ModelParams(), single_proton(), seq)
        assert trace.meta["sequence"]["phi_half_rad"] == 0.3

    def test_unknown_method_rejected(self):
        # there is one engine: an engine selector is no longer accepted
        with pytest.raises(TypeError):
            hahn_echo_trace(ModelParams(), None, SequenceConfig(), method="full")


class TestFieldSweep:
    def test_single_field_single_realization_equals_direct(self):
        spec = BathSpec(n_nuclei=2, n_realizations=1, seed=5)
        seq = SequenceConfig(tau_step=200e-9, tau_max=5e-6)
        p = ModelParams()
        swept = field_sweep(p, spec, seq, [2e-3])
        direct = hahn_echo_trace(p.at_detuning(2e-3), sample_bath(spec, 0), seq)
        assert np.array_equal(swept[0].intensity, direct.intensity)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            field_sweep(ModelParams(), BathSpec(), SequenceConfig(), [])

    def test_parallel_matches_serial(self):
        spec = BathSpec(n_nuclei=2, n_realizations=2, seed=5)
        seq = SequenceConfig(tau_step=200e-9, tau_max=5e-6)
        p = ModelParams()
        serial = field_sweep(p, spec, seq, [0.0, 2e-3], jobs=1)
        parallel = field_sweep(p, spec, seq, [0.0, 2e-3], jobs=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.intensity, b.intensity)

    def test_metadata_fields(self):
        spec = BathSpec(n_nuclei=1, n_realizations=2, seed=5)
        seq = SequenceConfig(tau_step=200e-9, tau_max=5e-6)
        swept = field_sweep(ModelParams(), spec, seq, [1e-3])
        assert swept[0].meta["detuning_T"] == pytest.approx(1e-3)
        assert swept[0].meta["n_realizations"] == 2

    def test_calibrates_once_per_field(self, monkeypatch):
        calls = []

        def counting(h_electronic):
            calls.append(h_electronic)
            return calibrate_pulses(h_electronic)

        monkeypatch.setattr(dynamics, "calibrate_pulses", counting)
        spec = BathSpec(n_nuclei=1, n_realizations=3, seed=5)
        seq = SequenceConfig(tau_step=200e-9, tau_max=2e-6)
        swept = field_sweep(ModelParams(), spec, seq, [-1e-3, 0.0, 1e-3])
        assert len(calls) == 3
        # the angles calibrated in the sweep are the ones a direct call finds
        p = ModelParams().at_detuning(1e-3)
        direct = hahn_echo_trace(p, sample_bath(spec, 0), seq)
        assert len(calls) == 4
        assert swept[2].meta["sequence"] == direct.meta["sequence"]
