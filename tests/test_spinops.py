import numpy as np
import pytest

from clockspin.bath import BathRealization
from clockspin.dynamics import (
    SequenceConfig,
    _block_pulse,
    _echo_block_engine,
    hahn_echo_trace,
)
from clockspin.hamiltonian import ModelParams, block_hamiltonians
from clockspin.spinops import is_hermitian, spin1_generators, spin_half_generators
from clockspin.validate import _site, reference_echo, reference_hamiltonian
from support import electron_pulse

SX, SY, SZ, AC = spin1_generators()
# Spin-1 ladder operators in the m_S = {+1, 0, -1} basis, written out here as
# an oracle independent of the library's generators.
SP = np.array([[0, np.sqrt(2), 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
SM = SP.conj().T
IX, IY, IZ = spin_half_generators()


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def two_protons():
    return BathRealization(
        a_sc=np.array([1e6, 1.3e6]), a_psc=np.array([0.5e6, 0.65e6]),
        theta=np.array([[0.0, 0.4], [0.4, 0.0]]), d_pair=10e3,
    )


def bath_trace(op, nb):
    """Partial trace over the bath factor of an ``(k * nb) x (k * nb)`` operator."""
    k = op.shape[0] // nb
    return np.einsum("ikjk->ij", op.reshape(k, nb, k, nb))


class TestSpin1Generators:
    def test_sz_diagonal(self):
        assert np.array_equal(np.diag(SZ).real, [1.0, 0.0, -1.0])

    def test_commutator_algebra(self):
        # [J_a, J_b] = i eps_abc J_c for every cyclic triple
        for a, b, c in [(SX, SY, SZ), (SY, SZ, SX), (SZ, SX, SY)]:
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-14

    def test_anticommutator_from_ladder_oracle(self):
        # direct matrix arithmetic on (Sx +- i Sy)^2: {Sx,Sy} = (S+^2 - S-^2)/2i
        oracle = (SP @ SP - SM @ SM) / 2j
        assert np.max(np.abs(AC - oracle)) < 1e-15

    def test_ladder_consistency(self):
        assert np.allclose(SX, (SP + SM) / 2)
        assert np.allclose(SY, (SP - SM) / 2j)

    def test_casimir(self):
        assert np.allclose(SX @ SX + SY @ SY + SZ @ SZ, 2 * np.eye(3))


class TestSpinHalfGenerators:
    def test_iz_diagonal(self):
        assert np.array_equal(np.diag(IZ).real, [0.5, -0.5])

    def test_casimir(self):
        assert np.allclose(IX @ IX + IY @ IY + IZ @ IZ, 0.75 * np.eye(2))

    def test_commutator(self):
        assert np.max(np.abs(IX @ IY - IY @ IX - 1j * IZ)) < 1e-14


class TestEmbed:
    def test_electron_embedding_dimension_and_trace(self):
        # the engine's pi pulse is a traceless electron rotation embedded as
        # op (x) 1_bath on the {up, down} (x) bath block
        full = _block_pulse(np.pi, 4)
        assert full.shape == (8, 8)
        assert abs(np.trace(full)) < 1e-14

    # _site embeds a proton operator for the dense oracle, which checks the
    # library's bit-built bath operators

    def test_disjoint_factors_commute(self):
        a = _site(IZ, 0, 2)
        b = _site(IX, 1, 2)
        assert np.max(np.abs(a @ b - b @ a)) < 1e-14

    def test_identity_embeds_to_identity(self):
        for site in (0, 1):
            assert np.allclose(_site(np.eye(2), site, 2), np.eye(4))

    def test_algebra_homomorphism(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        lhs = _site(a @ b, 1, 2)
        rhs = _site(a, 1, 2) @ _site(b, 1, 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_embed_bath_matches_composite_layout(self):
        # nucleus 0 is the most significant factor
        assert np.allclose(_site(IZ, 0, 2), np.kron(IZ, np.eye(2)))
        assert np.allclose(_site(IZ, 1, 2), np.kron(np.eye(2), IZ))


class TestExpectation:
    """The Sz readout of the echo."""

    def test_maximally_mixed_sz_is_zero(self):
        seq = SequenceConfig(tau_step=1e-6, tau_max=5e-6, temperature=1e16)
        echo = reference_echo(ModelParams().at_detuning(2e-3), two_protons(), seq,
                              np.pi / 2, np.pi)
        assert np.max(np.abs(echo)) < 1e-14

    def test_polarized_electron(self):
        # near T = 0 the bare electron starts in the lower CT state; pi/2 and pi
        # pulses refocus its full polarization into a unit echo
        seq = SequenceConfig(tau_step=100e-9, tau_max=2e-6, temperature=0.01)
        echo = _echo_block_engine(ModelParams(), None, seq, seq.tau_grid(), np.pi / 2, np.pi)
        assert np.allclose(echo, 1.0, rtol=0.0, atol=1e-12)


class TestPartialTrace:
    """The block engine keeps the {m_S = +-1} (x) bath sector and the bath."""

    def test_product_state_recovers_electron_factor(self):
        # without couplings the thermal state is rho_e (x) rho_bath, and tracing
        # out the bath leaves the bare-electron echo
        free = BathRealization(a_sc=np.zeros(2), a_psc=np.zeros(2),
                               theta=np.zeros((2, 2)), d_pair=0.0)
        p = ModelParams().at_detuning(3e-3)
        seq = SequenceConfig(tau_step=100e-9, tau_max=20e-6)
        with_bath = hahn_echo_trace(p, free, seq).intensity
        bare = hahn_echo_trace(p, None, seq).intensity
        assert np.max(np.abs(with_bath - bare)) < 1e-13

    def test_trace_preserved(self):
        # each block carries the trace of its sector of the full H, less D/3
        # per state
        p = ModelParams().at_detuning(2e-3)
        h2, h0 = block_hamiltonians(p, two_protons())
        full = reference_hamiltonian(p, two_protons())
        assert np.trace(h2) + 8 * p.D / 3 == pytest.approx(
            np.trace(full[:4, :4]) + np.trace(full[8:, 8:]), rel=1e-12)
        assert np.trace(h0) + 4 * p.D / 3 == pytest.approx(np.trace(full[4:8, 4:8]), rel=1e-12)

    def test_expectation_identity_random_states(self):
        # the block Sz readout equals the full-space Tr(rho Sz) for states
        # prepared by random pulse angles
        rng = np.random.default_rng(7)
        p = ModelParams().at_detuning(2e-3)
        seq = SequenceConfig(tau_step=100e-9, tau_max=1e-6)
        for _ in range(5):
            phi_half, phi_pi = rng.uniform(0.0, np.pi, 2)
            blk = _echo_block_engine(p, two_protons(), seq, seq.tau_grid(), phi_half, phi_pi)
            full = reference_echo(p, two_protons(), seq, phi_half, phi_pi)
            assert np.max(np.abs(blk - full)) < 1e-12

    def test_partial_trace_of_embedded_electron_op(self):
        # hyperfine and bath terms are traceless over the bath, so tracing the
        # bath out of each block leaves 2**N times the matching sub-block of
        # the oracle's H_S, less D/3
        p = ModelParams().at_detuning(2e-3)
        h2, h0 = block_hamiltonians(p, two_protons())
        h_s = reference_hamiltonian(p, None)
        pm = [0, 2]
        shift = 4 * p.D / 3
        assert np.allclose(bath_trace(h2, 4) + shift * np.eye(2), 4 * h_s[np.ix_(pm, pm)],
                           rtol=1e-12, atol=0)
        assert np.allclose(bath_trace(h0, 4) + shift, 4 * h_s[1, 1], rtol=1e-12, atol=0)


class TestMatrixChecks:
    def test_hermitian_check(self):
        assert is_hermitian(SX)
        assert not is_hermitian(SP)

    def test_unitary_check(self):
        # the engine's pulse on the {up, down} (x) bath block is the +-1
        # sub-block of the electron pulse (by expm), and it is unitary
        nb = 4
        for phi in (0.3, np.pi / 2, np.pi):
            u = _block_pulse(phi, nb)
            assert np.linalg.norm(u.conj().T @ u - np.eye(2 * nb)) < 1e-12
            pm = [0, 2]
            sub = electron_pulse(phi)[np.ix_(pm, pm)]
            assert np.max(np.abs(u - np.kron(sub, np.eye(nb)))) < 1e-15
