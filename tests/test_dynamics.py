import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from clockspin import constants, dynamics, hamiltonian
from clockspin.bath import BathRealization, BathSpec, sample_bath
from clockspin.dynamics import (
    SequenceConfig,
    _electron_pulse,
    calibrate_pulses,
    field_sweep,
    hahn_echo_trace,
)
from clockspin.errors import CalibrationError, ClockspinError
from clockspin.hamiltonian import ModelParams, build_electronic, eigensolve
from clockspin.spinops import spin1_generators
from clockspin.validate import reference_echo, reference_hamiltonian
from support import drawn_baths, real_frame


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


def degenerate_bath(n):
    """Equal couplings and no pair term: exactly degenerate bath levels, where
    the real part of rotated complex eigenvectors, phases fixed, misses the
    reference by about 0.1 at N = 3."""
    return BathRealization(a_sc=np.full(n, 1e6), a_psc=np.full(n, 0.5e6),
                           theta=np.zeros((n, n)), d_pair=0.0)


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
        _, _, sz, ac = spin1_generators()
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

    @pytest.mark.parametrize("tau_step, tau_max", [(1e-12, 100e-6), (1e-300, 1e300)])
    def test_tau_grid_above_point_limit_rejected(self, tau_step, tau_max):
        # refused when the config is built, so the grid itself never exists
        with pytest.raises(ValueError, match="1 to 1000000 tau points"):
            SequenceConfig(tau_step=tau_step, tau_max=tau_max)

    def test_tau_grid_at_point_limit_accepted(self):
        SequenceConfig(tau_step=100e-12, tau_max=100e-6)    # 1e6 points, not built


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
        _, _, _, ac = spin1_generators()
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
        # the echo pulse cannot drive population into or out of m_S = 0:
        # past ~0.64 T it is the second eigenstate, and for D > 0 the ground state
        for params in (ModelParams().at_detuning(0.7), ModelParams(D=45e9)):
            with pytest.raises(CalibrationError):
                calibrate_pulses(build_electronic(params))

    @settings(deadline=None)
    @given(sign=st.sampled_from([-1.0, 1.0]), d=st.floats(1e9, 1e11),
           e_ratio=st.floats(-0.99, 0.99), gamma_e=st.floats(1e10, 2e11),
           detuning=st.floats(-1.0, 1.0))
    def test_pi_maximizes_transfer(self, sign, d, e_ratio, gamma_e, detuning):
        # the two lowest states are both in the +-1 doublet (transfer
        # sin^2(phi/2)) or one is m_S = 0 (transfer 0): pi is a maximum
        # either way, and calibration fails exactly in the second case
        params = ModelParams(D=sign * d, E=e_ratio * d, gamma_e=gamma_e)
        h = build_electronic(params.at_detuning(detuning))
        _, vecs = eigensolve(h)

        def transfer(phi):
            return abs(vecs[:, 1].conj() @ _electron_pulse(phi) @ vecs[:, 0]) ** 2

        at_pi = transfer(np.pi)
        assert all(transfer(phi) <= at_pi + 1e-12 for phi in np.linspace(0, np.pi, 65)[1:])
        if at_pi < 0.5:
            with pytest.raises(CalibrationError):
                calibrate_pulses(h)
        else:
            assert calibrate_pulses(h)[1] == np.pi


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
        pytest.param(functools.partial(degenerate_bath, 2), 0.0, id="degenerate_n2-0.0"),
        pytest.param(functools.partial(degenerate_bath, 3), 0.0, id="degenerate_n3-0.0"),
        pytest.param(functools.partial(degenerate_bath, 3), -2e-3, id="degenerate_n3--0.002"),
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

    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), bath=drawn_baths(), detuning=st.floats(-20e-3, 20e-3))
    def test_relabelled_nuclei_give_the_same_echo(self, data, bath, detuning):
        # the nuclei carry no order: permuting the sites permutes the bath's
        # basis states, and the echo agrees to the whole-window floor
        perm = np.array(data.draw(st.permutations(range(bath.n_nuclei))))
        relabelled = BathRealization(a_sc=bath.a_sc[perm], a_psc=bath.a_psc[perm],
                                     theta=bath.theta[np.ix_(perm, perm)], d_pair=bath.d_pair)
        p = ModelParams().at_detuning(detuning)
        seq = SequenceConfig()
        blk = hahn_echo_trace(p, bath, seq)
        other = hahn_echo_trace(p, relabelled, seq)
        f_max = np.max(np.abs(np.linalg.eigvalsh(reference_hamiltonian(p, bath))))
        floor = 1e-11 + 4 * np.pi * np.finfo(float).eps * f_max * blk.tau
        assert np.all(np.abs(blk.intensity - other.intensity) <= floor)

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


class TestRealFrame:
    @settings(max_examples=60, deadline=None)
    @given(bath=drawn_baths(), detuning=st.floats(-20e-3, 20e-3))
    def test_rotated_block_and_its_eigenvectors_are_real(self, bath, detuning):
        p = ModelParams().at_detuning(detuning)
        h2, _ = hamiltonian.block_hamiltonians(p, bath)
        assert not np.any(h2.imag)
        # the laboratory-frame +-1 block of the dense reference, turned
        nb = 2**bath.n_nuclei
        pm = np.r_[0:nb, 2 * nb:3 * nb]
        turned = real_frame(reference_hamiltonian(p, bath)[np.ix_(pm, pm)], bath.n_nuclei)
        eps = np.finfo(float).eps
        assert np.max(np.abs(h2 - turned)) <= 2 * eps * np.max(np.abs(h2))
        # the complex solver on the real-valued matrix returns real eigenvectors
        _, vecs = eigensolve(h2)
        assert not np.any(vecs.imag)

    def test_complex_eigenvectors_are_refused(self, monkeypatch):
        def rephased(h):
            vals, vecs = eigensolve(h)
            return vals, 1j * vecs

        monkeypatch.setattr(hamiltonian, "eigensolve", rephased)
        with pytest.raises(ClockspinError, match="not real"):
            hahn_echo_trace(ModelParams(), two_protons(), SequenceConfig(tau_max=2e-6))


class TestTauChunk:
    def test_rule_values(self):
        # about 8192 entries per (nt * d/2 x d) GEMM operand, never below 2 points
        assert [dynamics._tau_chunk(d) for d in (4, 8, 16, 32, 64, 128, 256)] == [
            1024, 256, 64, 16, 4, 2, 2]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_chunk_length_keeps_bits(self, monkeypatch, n):
        # 1000 tau points up to N = 5; 65 at N = 6 and 7, which fixed-length
        # chunks of 16 would end in a one-point chunk
        p = ModelParams().at_detuning(2e-3)
        bath = sample_bath(BathSpec(n_nuclei=n), 0)
        seq = SequenceConfig(tau_max=100e-6 if n <= 5 else 6.5e-6)
        tau = seq.tau_grid()
        with dynamics._single_threaded_blas():     # as every sweep runs the kernel
            ruled, _, _ = dynamics._echo_block_engine(p, bath, seq, tau)
            for chunk in (3, 16):
                monkeypatch.setattr(dynamics, "_tau_chunk", lambda d: chunk)
                fixed, _, _ = dynamics._echo_block_engine(p, bath, seq, tau)
                assert np.array_equal(ruled, fixed), chunk

    def test_kernel_working_set(self):
        # At N = 6 (d = 128) a chunk holds 2 tau points, so a (d x 2 d/2) chunk
        # operand is d^2 complex entries.  At the peak the engine holds, in d^2
        # complex entries (16 d^2 bytes):
        # - 3.5 of set-up: h2 (complex, 1), h0 (complex, d/2 x d/2, 0.25), the
        #   real v2, p_half, p_pi and l_t (0.5 each) and v_up_t (d x d/2, 0.25);
        # - 2 in the chunk loop: the next chunk's operand u * v_up_t and a d^2
        #   temporary that numpy allocates while it broadcasts that product (the
        #   last chunk's result is released before);
        # - 0.5 for the vectors and small buffers (5.6 in all, measured).
        # One more complex d x d matrix kept alive exceeds the bound.
        n = 6
        d = 2 * 2**n
        p = ModelParams().at_detuning(2e-3)
        bath = sample_bath(BathSpec(n_nuclei=n), 0)
        seq = SequenceConfig(tau_max=10e-6)
        tracemalloc.start()
        try:
            with dynamics._single_threaded_blas():
                dynamics._echo_block_engine(p, bath, seq, seq.tau_grid())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (3.5 + 2 + 0.5) * d * d * 16


def _blas_thread_counts():
    """Thread count of every OpenBLAS in the calling process."""
    return [get_threads() for get_threads, _ in dynamics._openblas_thread_controls()]


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

    def test_pool_worker_blas_is_single_threaded(self):
        if not dynamics._openblas_thread_controls():
            pytest.skip("no OpenBLAS with a settable thread count is loaded")
        parent = _blas_thread_counts()
        # the sweep forks its pool inside the pinned block; the workers inherit the count
        with dynamics._single_threaded_blas(), dynamics._worker_pool(1) as pool:
            worker = pool.submit(_blas_thread_counts).result(timeout=60)
        assert worker and all(n == 1 for n in worker)
        assert _blas_thread_counts() == parent

    def test_job_size_rule(self):
        # kernel work n_realizations * n_tau * d^3 against 2^30, d = 2^(N+1)
        seq = SequenceConfig()                                  # 1000 tau points
        assert dynamics.sweep_job_count(BathSpec(n_nuclei=3), seq, 41, 2) == 41
        assert dynamics.sweep_job_count(BathSpec(n_nuclei=4), seq, 41, 2) == 41
        assert dynamics.sweep_job_count(BathSpec(n_nuclei=5), seq, 41, 2) == 410
        assert dynamics.sweep_job_count(BathSpec(n_nuclei=7), seq, 11, 2) == 110
        assert dynamics.sweep_job_count(BathSpec(n_nuclei=7, n_realizations=2), seq, 2, 1) == 4
        assert dynamics.sweep_job_count(BathSpec(n_nuclei=3), seq, 1, 1) == 1
        assert dynamics.sweep_job_count(BathSpec(n_nuclei=3), seq, 4, 4) == 4
        # fewer fields than workers: one job per realization, however cheap
        assert dynamics.sweep_job_count(BathSpec(n_nuclei=3), seq, 1, 2) == 10   # an echo
        assert dynamics.sweep_job_count(BathSpec(n_nuclei=3), seq, 3, 4) == 30

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_per_realization_finish_runs_pinned_in_order(self, monkeypatch, jobs):
        monkeypatch.setattr(dynamics, "_FIELD_JOB_WORK", 0)     # one job per realization
        seen = []

        def finish(i, avg):
            seen.append((i, _blas_thread_counts()))
            return avg

        parent = _blas_thread_counts()
        spec = BathSpec(n_nuclei=1, n_realizations=2, seed=5)
        seq = SequenceConfig(tau_step=200e-9, tau_max=2e-6)
        grid = [-1e-3, 0.0, 1e-3]
        finished = field_sweep(ModelParams(), spec, seq, grid, jobs=jobs,
                               finish=[functools.partial(finish, i) for i in range(3)])
        assert [i for i, _ in seen] == [0, 1, 2]
        assert all(n == 1 for _, counts in seen for n in counts)
        assert _blas_thread_counts() == parent
        for a, b in zip(finished, field_sweep(ModelParams(), spec, seq, grid, jobs=1)):
            assert np.array_equal(a.intensity, b.intensity) and a.meta == b.meta

    def test_finish_needs_one_callable_per_field(self):
        spec = BathSpec(n_nuclei=1, n_realizations=1, seed=5)
        with pytest.raises(ValueError):
            field_sweep(ModelParams(), spec, SequenceConfig(), [0.0, 1e-3], finish=[print])

    def test_in_process_sweep_restores_blas_threads(self, monkeypatch):
        seen = []
        sweep_job = dynamics._sweep_job
        monkeypatch.setattr(dynamics, "_sweep_job",
                            lambda args: seen.append(_blas_thread_counts()) or sweep_job(args))
        parent = _blas_thread_counts()
        spec = BathSpec(n_nuclei=1, n_realizations=2, seed=5)
        seq = SequenceConfig(tau_max=2e-6)
        field_sweep(ModelParams(), spec, seq, [1e-3], jobs=1)
        field_sweep(ModelParams(), replace(spec, n_realizations=1), seq, [1e-3])  # lone trace
        assert len(seen) == 3 and all(n == 1 for counts in seen for n in counts)
        assert _blas_thread_counts() == parent

    def test_worker_count_keeps_bits_at_n6(self):
        # d = 128: OpenBLAS eigh and GEMM round differently on 1 and 2 threads
        spec = BathSpec(n_nuclei=6, n_realizations=2, seed=5)
        seq = SequenceConfig(tau_max=3e-6)
        serial = field_sweep(ModelParams(), spec, seq, [2e-3], jobs=1)
        parallel = field_sweep(ModelParams(), spec, seq, [2e-3], jobs=2)
        assert np.array_equal(serial[0].intensity, parallel[0].intensity)

    def test_default_worker_count(self, monkeypatch):
        # Resolved without starting a process: CPUs and the BLAS are faked.
        monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        monkeypatch.setattr(dynamics, "_openblas_thread_controls", lambda: [(None, None)])
        assert dynamics.worker_count(None, 3) == 3
        assert dynamics.worker_count(None, 100) == 8
        assert dynamics.worker_count(5, 100) == 5
        assert dynamics.worker_count(5, 2) == 2
        monkeypatch.setattr(dynamics, "_openblas_thread_controls", lambda: [])
        assert dynamics.worker_count(None, 100) == 1

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            dynamics.worker_count(jobs, 4)

    def test_one_worker_runs_without_pool(self, monkeypatch):
        def no_pool(workers):
            raise AssertionError(f"pool of {workers} started")

        monkeypatch.setattr(dynamics, "_worker_pool", no_pool)
        spec = BathSpec(n_nuclei=1, n_realizations=1, seed=5)
        seq = SequenceConfig(tau_step=200e-9, tau_max=2e-6)
        field_sweep(ModelParams(), spec, seq, [1e-3])               # default, 1 trace
        field_sweep(ModelParams(), replace(spec, n_realizations=3), seq, [1e-3], jobs=1)

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
        swept = field_sweep(ModelParams(), spec, seq, [-1e-3, 0.0, 1e-3], jobs=1)
        assert len(calls) == 3
        # the angles calibrated in the sweep are the ones a direct call finds
        p = ModelParams().at_detuning(1e-3)
        direct = hahn_echo_trace(p, sample_bath(spec, 0), seq)
        assert len(calls) == 4
        assert swept[2].meta["sequence"] == direct.meta["sequence"]
