import functools
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

import clockspin
from clockspin import constants, dynamics, hamiltonian, validate
from clockspin.bath import BathRealization, BathSpec, sample_bath
from clockspin.dynamics import (
    SequenceConfig,
    _doublet_pulse,
    calibrate_pulses,
    field_sweep,
    hahn_echo_trace,
)
from clockspin.errors import CalibrationError, ClockspinError
from clockspin.hamiltonian import ModelParams, eigensolve
from clockspin.spinops import spin1_generators, spin_half_generators
from clockspin.validate import reference_echo, reference_hamiltonian
from support import drawn_baths, electron_pulse, real_frame


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


def pinned_echo(params, bath, seq, phi_half, phi_pi):
    """The engine's echo on ``seq.tau_grid()`` after pulses of the given angles."""
    return dynamics._echo_block_engine(params, bath, seq, seq.tau_grid(), phi_half, phi_pi)


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
        seq = SequenceConfig(tau_step=100e-9, tau_max=2e-6)
        echo = pinned_echo(ModelParams(), None, seq, np.pi / 2, np.pi)
        w = ct_boltzmann_weights(ModelParams(), 5.0)
        assert np.allclose(echo, w[0] - w[1], rtol=1e-12, atol=0.0)

    def test_thermal_frequency_scale(self):
        # k_B T / h at 5 K is ~104.2 GHz
        assert constants.KBOLTZ_OVER_PLANCK * 5.0 == pytest.approx(104.2e9, rel=1e-3)

    def test_commutes_with_hamiltonian(self):
        # without pulses the thermal state is stationary: the trace is flat
        seq = SequenceConfig(tau_step=100e-9, tau_max=20e-6)
        echo = pinned_echo(ModelParams().at_detuning(2e-3), single_proton(), seq, 0.0, 0.0)
        assert np.max(np.abs(echo - echo[0])) < 1e-12

    def test_density_matrix_invariants(self):
        # the block weights reproduce the normalized dense exp(-beta H), whose
        # Sz readout a valid density matrix keeps within [-1, 1]
        p = ModelParams().at_detuning(2e-3)
        seq = SequenceConfig(tau_step=200e-9, tau_max=5e-6)
        echo = pinned_echo(p, two_protons(), seq, 0.0, 0.0)
        ref = reference_echo(p, two_protons(), seq, 0.0, 0.0)
        assert np.max(np.abs(echo - ref)) < 1e-12
        assert np.max(np.abs(echo)) <= 1.0

    def test_energy_expectation_matches_boltzmann_average(self):
        # detuned bare electron, no pulses: Tr(rho Sz) is the Boltzmann average
        # of the doublet's <Sz> = -+ gamma_e dB / sqrt(E^2 + (gamma_e dB)^2)
        p = ModelParams().at_detuning(10e-3)
        seq = SequenceConfig(tau_step=100e-9, tau_max=2e-6)
        echo = pinned_echo(p, None, seq, 0.0, 0.0)
        w = ct_boltzmann_weights(p, 5.0)
        s = p.gamma_e * p.detuning / np.sqrt(p.E**2 + (p.gamma_e * p.detuning) ** 2)
        assert np.allclose(echo, (w[1] - w[0]) * s, rtol=1e-10, atol=0.0)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            SequenceConfig(temperature=0.0)

    def test_rejects_temperature_where_beta_is_not_finite(self):
        # below about 1.8e-301 K, k_B T underflows to 0.0 and h / (k_B T)
        # would divide by zero in the engine, after the run had started
        for temperature in (1e-323, 1e-301):
            with pytest.raises(ValueError, match=r"h / \(k_B T\) is not finite"):
                SequenceConfig(temperature=temperature)
        seq = SequenceConfig(tau_step=100e-9, tau_max=2e-6, temperature=1.8e-301)
        assert np.isfinite(constants.PLANCK / (constants.KBOLTZ * seq.temperature))
        echo = hahn_echo_trace(ModelParams().at_detuning(2e-3), single_proton(), seq).intensity
        assert np.all(np.isfinite(echo))


class TestPropagate:
    """Delay evolution, in the engine and in the dense reference."""

    def test_tau_zero_is_identity(self):
        # with vanishing delays the two pulses compose into one rotation
        p = ModelParams().at_detuning(10e-3)
        seq = SequenceConfig(tau_step=1e-21, tau_max=1e-21)
        for a, b in ((0.3, 1.1), (np.pi / 2, np.pi)):
            echo = pinned_echo(p, single_proton(), seq, a, b)
            single = pinned_echo(p, single_proton(), seq, a + b, 0.0)
            assert abs(echo[0] - single[0]) < 1e-14

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


def expm_reference_echo(params, bath, seq, phi_half, phi_pi):
    """The dense reference's echo with its thermal state ``expm(-beta (H - f_0))``
    and its pulses ``expm(i phi {Sx,Sy}/2)`` taken on the full space, the
    same eigenbasis delays and readout."""
    _, _, sz, ac = spin1_generators()
    h = reference_hamiltonian(params, bath)
    nb = h.shape[0] // 3
    f, v = np.linalg.eigh(h)
    rho = expm(-constants.PLANCK / (constants.KBOLTZ * seq.temperature)
               * (h - f[0] * np.eye(h.shape[0])))
    rho /= np.trace(rho).real
    p_half, p_pi = (np.kron(expm(0.5j * phi * ac), np.eye(nb)) for phi in (phi_half, phi_pi))
    rho1 = v.conj().T @ p_half @ rho @ p_half.conj().T @ v
    pulse = v.conj().T @ p_pi @ v
    obs_t = (v.conj().T @ np.kron(sz, np.eye(nb)) @ v).T
    echo = []
    for t in seq.tau_grid():
        u = np.exp(-2j * np.pi * f * t)
        delay = np.outer(u, u.conj())
        echo.append(np.sum(delay * (pulse @ (delay * rho1) @ pulse.conj().T) * obs_t).real)
    return np.array(echo)


class TestDenseReference:
    @pytest.mark.parametrize("temperature", [5.0, 1e-3, 10e-6])
    def test_matches_the_expm_construction(self, temperature):
        # The eigenbasis weights and the 3 x 3 pulse eigendecomposition against
        # expm on six random N = 1-3 baths at random angles over 20 us, within
        # the numerical floor 1e-11 + 4 pi eps max|f| tau (README).  Measured at
        # most 5.8e-16 at 5 K, 3.2e-13 at 1 mK and 5.1e-12 at 10 uK, 7% of
        # the floor.
        rng = np.random.default_rng(2024)
        seq = SequenceConfig(tau_step=100e-9, tau_max=20e-6, temperature=temperature)
        eps = np.finfo(float).eps
        for _ in range(6):
            spec = BathSpec(n_nuclei=int(rng.integers(1, 4)), n_realizations=1,
                            seed=int(rng.integers(2**32)))
            bath = sample_bath(spec, 0)
            p = ModelParams().at_detuning(rng.uniform(-5e-3, 5e-3))
            phi_half, phi_pi = rng.uniform(0.0, np.pi, 2)
            f_max = np.max(np.abs(np.linalg.eigvalsh(reference_hamiltonian(p, bath))))
            floor = 1e-11 + 4 * np.pi * eps * f_max * seq.tau_grid()
            dev = np.abs(reference_echo(p, bath, seq, phi_half, phi_pi)
                         - expm_reference_echo(p, bath, seq, phi_half, phi_pi))
            assert np.all(dev <= floor)


PM = [0, 2]     # the +-1 doublet in the (+1, 0, -1) basis


class TestPulseOperator:
    # against the expm oracle: exp[i phi {Sx,Sy}/2] is _doublet_pulse(phi) on
    # the doublet and leaves m_S = 0 alone
    def test_zero_angle_is_identity(self):
        assert np.array_equal(_doublet_pulse(0.0), np.eye(2))

    def test_unitary(self):
        u = _doublet_pulse(0.7)
        assert u.dtype == float
        assert np.linalg.norm(u.T @ u - np.eye(2)) < 1e-15

    def test_one_parameter_group(self):
        a, b = 0.3, 1.1
        lhs = _doublet_pulse(a) @ _doublet_pulse(b)
        assert np.max(np.abs(lhs - _doublet_pulse(a + b))) < 1e-15

    def test_matches_matrix_exponential(self):
        for phi in (0.2, np.pi / 2, np.pi, 2.5):
            oracle = electron_pulse(phi)
            assert np.max(np.abs(oracle[np.ix_(PM, PM)] - _doublet_pulse(phi))) < 1e-12
            assert np.max(np.abs(oracle[1] - [0, 1, 0])) < 1e-15
            assert np.max(np.abs(oracle[:, 1] - [0, 1, 0])) < 1e-15

    def test_ct_subspace_rotation(self):
        # on the CT doublet (|+>, |->) the pulse acts as exp(-i phi sigma_y / 2):
        # a Bloch rotation by phi about y
        basis = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        sigma_y = np.array([[0, -1j], [1j, 0]])
        for phi in (0.4, np.pi / 2, np.pi):
            block = basis.T @ _doublet_pulse(phi) @ basis
            oracle = expm(-1j * phi * sigma_y / 2)
            assert np.max(np.abs(block - oracle)) < 1e-12


def transfer_3x3(p, phi):
    """Population moved by the expm pulse between the two lowest eigenstates
    of the oracle's 3 x 3 H_S: the refusal rule that the doublet's closed form
    replaced."""
    _, vecs = eigensolve(reference_hamiltonian(p, None))
    return abs(vecs[:, 1].conj() @ electron_pulse(phi) @ vecs[:, 0]) ** 2


class TestCalibratePulses:
    @settings(deadline=None)
    @example(d=45e9, e_ratio=0.1, gamma_e=70e9, reach=0.0)        # the defaults
    @example(d=45e9, e_ratio=-0.1, gamma_e=70e9, reach=2e-3 / 0.6396)
    @given(d=st.floats(1e9, 1e11), e_ratio=st.floats(-0.99, 0.99),
           gamma_e=st.floats(1e10, 2e11), reach=st.floats(-0.999, 0.999))
    def test_ct_angles_match_rabi_oracle(self, d, e_ratio, gamma_e, reach):
        # transfer(phi) = sin^2(phi/2) at every reachable field, whatever the
        # sign of the +-1 coupling E, so the angles are the same constants
        # everywhere: phi_pi = pi, and phi_half 5.0e-7 above pi/2, where the
        # root search that once set it stopped.  reach is the detuning as a
        # fraction of the reachable one, sqrt(D^2 - E^2) / gamma_e.
        e = e_ratio * d
        detuning = reach * np.sqrt(d**2 - e**2) / gamma_e
        params = ModelParams(D=-d, E=e, gamma_e=gamma_e).at_detuning(detuning)
        assert calibrate_pulses(params) == (dynamics._PHI_HALF, np.pi)
        assert dynamics._PHI_HALF - np.pi / 2 == 4.999996072729829e-07

    def test_phi_half_is_the_brentq_root(self):
        # the population imbalance after P(phi) is sin^2(phi/2) - cos^2(phi/2)
        # = -cos(phi) at every field; Brent's method with xtol = 1e-4 on
        # [1e-6, pi], the search that the constant replaced, stops on it
        root = brentq(lambda phi: -np.cos(phi), 1e-6, np.pi, xtol=1e-4)
        assert dynamics._PHI_HALF == root

    def test_transfer_is_complete_at_phi_pi(self):
        p = ModelParams().at_detuning(3e-3)
        _, phi_pi = calibrate_pulses(p)
        assert transfer_3x3(p, phi_pi) == pytest.approx(1.0, abs=1e-8)

    def test_unreachable_transition_raises(self):
        # the echo pulse cannot drive population into or out of m_S = 0:
        # past 639.63 mT it is the second eigenstate, and for D > 0 the ground state
        for params in (ModelParams().at_detuning(0.7), ModelParams(D=45e9)):
            with pytest.raises(CalibrationError):
                calibrate_pulses(params)

    def test_reachability_boundary_at_the_defaults(self):
        # sqrt(E^2 + (gamma_e dB)^2) < -D up to dB = sqrt(D^2 - E^2) / gamma_e,
        # 639.635 mT
        p = ModelParams()
        assert np.sqrt(p.D**2 - p.E**2) / p.gamma_e == pytest.approx(0.639635, abs=1e-6)
        assert calibrate_pulses(p.at_detuning(0.6396))[1] == np.pi
        with pytest.raises(CalibrationError, match=r"m_S = 0 level \(30 GHz\) is not above"):
            calibrate_pulses(p.at_detuning(0.6397))

    @settings(deadline=None)
    @given(sign=st.sampled_from([-1.0, 1.0]), d=st.floats(1e9, 1e11),
           e_ratio=st.floats(-0.99, 0.99), gamma_e=st.floats(1e10, 2e11),
           detuning=st.floats(-1.0, 1.0))
    def test_pi_maximizes_transfer(self, sign, d, e_ratio, gamma_e, detuning):
        # the two lowest states are both in the +-1 doublet (transfer
        # sin^2(phi/2)) or one is m_S = 0 (transfer 0): pi is a maximum either
        # way, and the closed-form rule refuses exactly the second case, away
        # from the band where the m_S = 0 level meets the doublet's upper level
        params = ModelParams(D=sign * d, E=e_ratio * d, gamma_e=gamma_e).at_detuning(detuning)
        h = reference_hamiltonian(params, None)
        upper = np.linalg.eigvalsh(h[np.ix_(PM, PM)])[1]
        assume(abs(h[1, 1].real - upper) > 1e-9 * d)
        at_pi = transfer_3x3(params, np.pi)
        assert all(transfer_3x3(params, phi) <= at_pi + 1e-12
                   for phi in np.linspace(0, np.pi, 65)[1:])
        if at_pi < 0.5:
            with pytest.raises(CalibrationError):
                calibrate_pulses(params)
        else:
            assert calibrate_pulses(params)[1] == np.pi


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

    @pytest.mark.parametrize("temperature, n_underflow", [(1e-3, 0), (10e-6, 8)])
    def test_low_temperature_within_numerical_floor(self, temperature, n_underflow):
        # At 10 uK the weights of 8 of the 16 block levels underflow to exactly
        # 0, so L^T is rank-deficient: its QR factor still holds, where a
        # Cholesky factor of L L^T would break down.  The reference's thermal
        # state must stay finite at both temperatures.
        seq = SequenceConfig(temperature=temperature)
        beta_h = constants.PLANCK / (constants.KBOLTZ * temperature)
        eps = np.finfo(float).eps
        bath = sample_bath(BathSpec(n_nuclei=3), 0)
        for db in (-5e-3, 0.0, 2e-3):
            p = ModelParams().at_detuning(db)
            f2 = np.linalg.eigvalsh(hamiltonian.block_hamiltonians(p, bath)[0])
            assert np.count_nonzero(np.exp(-beta_h * (f2 - f2.min())) == 0.0) == n_underflow
            blk = hahn_echo_trace(p, bath, seq)
            full = replayed_reference(p, bath, seq, blk)
            f_max = np.max(np.abs(np.linalg.eigvalsh(reference_hamiltonian(p, bath))))
            floor = 1e-11 + 4 * np.pi * eps * f_max * blk.tau
            assert np.all(np.abs(blk.intensity - full) <= floor), db

    @pytest.mark.parametrize("detuning", [-2e-3, 2e-3])
    def test_two_row_blocks_within_numerical_floor(self, detuning):
        # N = 6 (d = 128) is the smallest bath whose triangular factor the
        # kernel multiplies in more than one row block
        assert 2 * 2**6 > dynamics._ROW_BLOCK
        seq = SequenceConfig()
        p = ModelParams().at_detuning(detuning)
        bath = sample_bath(BathSpec(n_nuclei=6), 0)
        blk = hahn_echo_trace(p, bath, seq)
        full = replayed_reference(p, bath, seq, blk)
        f_max = np.max(np.abs(np.linalg.eigvalsh(reference_hamiltonian(p, bath))))
        floor = 1e-11 + 4 * np.pi * np.finfo(float).eps * f_max * blk.tau
        assert np.all(np.abs(blk.intensity - full) <= floor)

    @pytest.mark.parametrize("detuning", [-5e-3, -1e-3, 0.0, 2e-3, 5e-3, 20e-3])
    def test_bare_electron_matches_closed_form(self, detuning):
        # With no bath the +-1 block is (D/3) 1 + g sz + E sx, g = gamma_e dB,
        # sz and sx the Pauli matrices.  Up to a global phase its delay
        # propagator is cos(2 pi W tau) - i sin(2 pi W tau) n.s, with
        # W = sqrt(E^2 + g^2) and n.s = (E sx + g sz) / W.  Its thermal state is
        # (cosh(a W) - sinh(a W) n.s) / (2 cosh(a W) + exp(a D)), a = h / k_B T,
        # the m_S = 0 level at -2D/3 in the normalization.  The pulses are real
        # rotations about y.  No eigensolver is involved.
        p = ModelParams().at_detuning(detuning)
        seq = SequenceConfig()
        trace = hahn_echo_trace(p, None, seq)
        g = p.gamma_e * p.detuning
        w = np.hypot(p.E, g)
        n_s = np.array([[g, p.E], [p.E, -g]]) / w
        a = constants.PLANCK / (constants.KBOLTZ * seq.temperature)
        rho = (np.cosh(a * w) * np.eye(2) - np.sinh(a * w) * n_s) / (
            2 * np.cosh(a * w) + np.exp(a * p.D))

        def pulse(phi):
            c, s = np.cos(phi / 2), np.sin(phi / 2)
            return np.array([[c, s], [-s, c]])

        angles = trace.meta["sequence"]
        x = 2 * np.pi * w * trace.tau[:, None, None]
        u = np.cos(x) * np.eye(2) - 1j * np.sin(x) * n_s
        m = u @ pulse(angles["phi_pi_rad"]) @ u @ pulse(angles["phi_half_rad"])
        r = m @ rho @ m.conj().transpose(0, 2, 1)
        oracle = (r[:, 0, 0] - r[:, 1, 1]).real
        f_max = max(abs(p.D) / 3 + w, 2 * abs(p.D) / 3)
        floor = 1e-11 + 4 * np.pi * np.finfo(float).eps * f_max * trace.tau
        assert np.all(np.abs(trace.intensity - oracle) <= floor)

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

    @settings(max_examples=12, deadline=None)
    @given(bath=drawn_baths(), detuning=st.floats(-20e-3, 20e-3), shift=st.floats(-50e9, 50e9))
    def test_constant_shift_gives_the_same_echo(self, bath, detuning, shift):
        # a constant added to both blocks is a global phase of each delay and
        # leaves the normalized weights as they are: the echo agrees to the
        # whole-window floor of the shifted block (the D/3 frame relies on it)
        build = hamiltonian.block_hamiltonians

        def shifted(params, bath):
            h2, h0 = build(params, bath)
            return h2 + shift * np.eye(len(h2)), h0 + shift * np.eye(len(h0))

        p = ModelParams().at_detuning(detuning)
        seq = SequenceConfig()
        blk = hahn_echo_trace(p, bath, seq)
        with mock.patch.object(hamiltonian, "block_hamiltonians", shifted):
            moved = hahn_echo_trace(p, bath, seq)
        f_max = np.max(np.abs(np.linalg.eigvalsh(shifted(p, bath)[0])))
        floor = 1e-11 + 4 * np.pi * np.finfo(float).eps * f_max * blk.tau
        assert np.all(np.abs(blk.intensity - moved.intensity) <= floor)

    @settings(max_examples=12, deadline=None)
    @given(bath=drawn_baths(max_nuclei=3), detuning=st.floats(-5e-3, 5e-3),
           alpha=st.floats(0.0, 2 * np.pi, exclude_max=True))
    def test_nuclear_z_rotation_gives_the_same_echo(self, bath, detuning, alpha):
        # turning every nuclear frame by alpha about z, 1 (x) exp(-i alpha
        # sum_k Iz^k), commutes with the pulses and Sz: the dense reference on
        # the turned H_tot agrees with the engine to the whole-window floor
        lab = validate.reference_hamiltonian
        iz = spin_half_generators()[2]
        m_z = sum(np.diag(validate._site(iz, k, bath.n_nuclei)).real
                  for k in range(bath.n_nuclei))
        phase = np.tile(np.exp(-1j * alpha * m_z), 3)

        def turned(params, bath):
            return phase[:, None] * lab(params, bath) * phase.conj()

        p = ModelParams().at_detuning(detuning)
        seq = SequenceConfig()
        blk = hahn_echo_trace(p, bath, seq)
        with mock.patch.object(validate, "reference_hamiltonian", turned):
            full = replayed_reference(p, bath, seq, blk)
        f_max = np.max(np.abs(np.linalg.eigvalsh(lab(p, bath))))
        floor = 1e-11 + 4 * np.pi * np.finfo(float).eps * f_max * blk.tau
        assert np.all(np.abs(blk.intensity - full) <= floor)

    def test_trace_metadata(self):
        seq = SequenceConfig(tau_step=100e-9, tau_max=5e-6)
        trace = hahn_echo_trace(ModelParams(), single_proton(), seq)
        assert trace.meta["n_nuclei"] == 1
        assert trace.meta["sequence"]["phi_pi_rad"] == pytest.approx(np.pi, abs=1e-3)
        assert trace.tau[0] == pytest.approx(100e-9)
        assert trace.tau.size == 50

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
        # the laboratory-frame +-1 block of the dense reference, turned, is the
        # block shifted back by D/3, within 2 ulps of its largest entry
        nb = 2**bath.n_nuclei
        pm = np.r_[0:nb, 2 * nb:3 * nb]
        turned = real_frame(reference_hamiltonian(p, bath)[np.ix_(pm, pm)], bath.n_nuclei)
        eps = np.finfo(float).eps
        assert (np.max(np.abs(h2 + p.D / 3 * np.eye(2 * nb) - turned))
                <= 2 * eps * np.max(np.abs(turned)))
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
        with dynamics._single_threaded_blas():     # as every sweep runs the kernel
            ruled = pinned_echo(p, bath, seq, np.pi / 2, np.pi)
            for chunk in (3, 16):
                monkeypatch.setattr(dynamics, "_tau_chunk", lambda d: chunk)
                fixed = pinned_echo(p, bath, seq, np.pi / 2, np.pi)
                assert np.array_equal(ruled, fixed), chunk

    def test_one_row_block_gives_the_same_echo(self, monkeypatch):
        # the triangular factor by TRMM, in the ruled row blocks that skip its
        # zero half, and in one (d x d) GEMM, zeros included, at N = 6 and 7
        # (d = 128 and 256, 2 and 4 blocks): the three agree to the floor
        p = ModelParams().at_detuning(2e-3)
        seq = SequenceConfig()
        eps = np.finfo(float).eps
        for n in (6, 7):
            bath = sample_bath(BathSpec(n_nuclei=n), 0)
            with monkeypatch.context() as m:
                echoes = [pinned_echo(p, bath, seq, np.pi / 2, np.pi)]
                m.setattr(dynamics, "_openblas_trmm", lambda: None)
                echoes.append(pinned_echo(p, bath, seq, np.pi / 2, np.pi))
                m.setattr(dynamics, "_ROW_BLOCK", 2 * 2**n)
                echoes.append(pinned_echo(p, bath, seq, np.pi / 2, np.pi))
            f_max = np.max(np.abs(np.linalg.eigvalsh(reference_hamiltonian(p, bath))))
            floor = 1e-11 + 4 * np.pi * eps * f_max * seq.tau_grid()
            for a, b in ((0, 1), (0, 2), (1, 2)):
                assert np.all(np.abs(echoes[a] - echoes[b]) <= floor), (n, a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_trmm_lookup_only_above_one_row_block(self, monkeypatch, n):
        # d <= 64 is one GEMM: the engine never looks TRMM up, so the echo
        # keeps its bits where none is found; a larger block looks it up once
        # per trace and, finding none, runs the row blocks
        p = ModelParams().at_detuning(2e-3)
        bath = sample_bath(BathSpec(n_nuclei=n), 0)
        seq = SequenceConfig(tau_max=100e-6 if n <= 5 else 6.5e-6)
        with dynamics._single_threaded_blas():
            found = pinned_echo(p, bath, seq, np.pi / 2, np.pi)
            lookups = []
            monkeypatch.setattr(dynamics, "_openblas_trmm", lambda: lookups.append(n))
            missing = pinned_echo(p, bath, seq, np.pi / 2, np.pi)
        d = 2 * 2**n
        assert lookups == ([n] if d > dynamics._ROW_BLOCK else [])
        if d <= dynamics._ROW_BLOCK:
            assert np.array_equal(found, missing)

    def test_trmm_found_wherever_an_openblas_is(self):
        # numpy's OpenBLAS wheels export cblas_dtrmm: a lookup that misses it
        # would silently leave N >= 6 on the slower row blocks
        if not dynamics._openblas_thread_controls():
            pytest.skip("no OpenBLAS is loaded")
        assert dynamics._openblas_trmm() is not None

    def test_trmm_binding(self):
        trmm = dynamics._openblas_trmm()
        if trmm is None:
            pytest.skip("no OpenBLAS exports cblas_dtrmm")
        rng = np.random.default_rng(3)
        t = rng.normal(size=(5, 5))
        x = rng.normal(size=(5, 6))
        want = np.triu(t) @ x       # the lower triangle of t is never read
        trmm(t, x)
        assert np.allclose(x, want, rtol=0, atol=1e-12)
        read_only = x.copy()
        read_only.flags.writeable = False
        refused = [
            (t, x[:, ::2]),                         # not contiguous
            (t, np.asfortranarray(x)),
            (t[:, ::-1], x),
            (t, x.astype(np.float32)),              # not float64
            (t, x.astype(complex)),
            (t.astype(np.float32), x),
            (t, x[:4]),                             # mis-shaped
            (t[:4], x[:4]),
            (t, x[:, 0].copy()),
            (t[None], x),
            (t, read_only),
            (t.tolist(), x),
        ]
        for a, b in refused:
            before = np.array(b, copy=True)
            with pytest.raises(ValueError):
                trmm(a, b)
            assert np.array_equal(np.asarray(b), before)
    def test_kernel_working_set(self):
        # At N = 6 (d = 128) the engine peaks in its chunk loop.  In d^2
        # complex entries (16 d^2 bytes) it then holds:
        # - 1.5 of factors: the real p_pi_t and t_half (0.5 each) and v_up_t,
        #   d x d/2 complex (0.5); v2 is freed before the loop;
        # - 2 of chunk operands, a chunk holding 2 tau points: the two buffers
        #   that the trace allocates once and every chunk reuses (1 each;
        #   GEMM 1 writes through out=, TRMM multiplies by t_half in place);
        # - 0.5 while the phases multiply an operand: numpy's 8192-entry
        #   buffer for the broadcast phase vector;
        # - about 0.1 for the vectors and small arrays (4.11 in all, measured).
        # The eigensolve of h2 peaks lower, at 2.56 (TestEigensolve bounds
        # it).  One more complex d x d matrix kept alive in the loop exceeds
        # the bound of 4.25.
        n = 6
        d = 2 * 2**n
        p = ModelParams().at_detuning(2e-3)
        bath = sample_bath(BathSpec(n_nuclei=n), 0)
        seq = SequenceConfig(tau_max=10e-6)
        tracemalloc.start()
        try:
            with dynamics._single_threaded_blas():
                pinned_echo(p, bath, seq, np.pi / 2, np.pi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (1.75 + 2 + 0.5) * d * d * 16


_FAULT_SCRIPT = """
import json, resource, sys
from clockspin import dynamics
from clockspin.bath import BathSpec, sample_bath
from clockspin.dynamics import SequenceConfig, hahn_echo_trace
from clockspin.hamiltonian import ModelParams

spec, seq, p = BathSpec(n_nuclei=3), SequenceConfig(), ModelParams().at_detuning(2e-3)
with dynamics._single_threaded_blas():
    hahn_echo_trace(p, sample_bath(spec, 50), seq)      # the first trace grows the heap
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k in range(50):
        hahn_echo_trace(p, sample_bath(spec, k), seq)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(["numpy.random" in sys.modules, faults / 50]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the bound is glibc malloc's: its mmap and trim thresholds decide "
                           "whether an operand freed per chunk returns its pages to the kernel")
def test_traces_reuse_their_pages():
    # A sweep worker runs one trace after another without numpy.random.  At
    # N = 3 a chunk operand is about 135 KiB, at glibc's mmap and trim
    # thresholds: allocated per chunk, every chunk faulted fresh pages in
    # (about 950 minor faults per trace); the per-trace buffers take about none.
    env = {**os.environ, "PYTHONPATH": str(Path(clockspin.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    random_loaded, faults_per_trace = json.loads(proc.stdout.splitlines()[-1])
    assert not random_loaded
    assert faults_per_trace < 100


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

    def test_sweep_traces_carry_the_angles_a_direct_trace_calibrates(self):
        spec = BathSpec(n_nuclei=1, n_realizations=3, seed=5)
        seq = SequenceConfig(tau_step=200e-9, tau_max=2e-6)
        grid = [-1e-3, 0.0, 1e-3]
        swept = field_sweep(ModelParams(), spec, seq, grid, jobs=1)
        for db, avg in zip(grid, swept):
            direct = hahn_echo_trace(ModelParams().at_detuning(db), sample_bath(spec, 0), seq)
            assert avg.meta["sequence"] == direct.meta["sequence"]
            assert avg.meta["sequence"]["phi_pi_rad"] == np.pi
