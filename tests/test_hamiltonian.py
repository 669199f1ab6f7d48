import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clockspin.bath import BathRealization, BathSpec, sample_bath
from clockspin.hamiltonian import (
    ModelParams,
    bath_hamiltonian_matrix,
    block_hamiltonians,
    clock_frequency_curve,
    eigensolve,
    electronic_levels,
    project_fictitious,
)
from clockspin.spinops import is_hermitian, spin_half_generators
from clockspin.validate import _bath_hamiltonian, reference_hamiltonian
from support import analytic_doublet_gap, ct_curvature, drawn_baths, real_frame

GHZ = 1e9


def single_proton(a_sc=1e6, a_psc=0.5e6):
    return BathRealization(
        a_sc=np.array([a_sc]), a_psc=np.array([a_psc]),
        theta=np.zeros((1, 1)), d_pair=0.0,
    )


def hyperfine_part(bath):
    """Hyperfine term of the +-1 block.

    The block is H_tot - D/3, so with E = 0 and no field it is
    ``sigma_z (x) sum_m (A_sc Iz + sqrt(2) A_psc Ix)`` for one proton, in the
    builder's real frame.
    """
    h2, _ = block_hamiltonians(ModelParams(E=0.0, B0=0.0, B_min=0.0), bath)
    return h2


# Full-space index of (m_S, bath state): m_S in (+1, 0, -1) is the slow index.
def sector(m_index, nb):
    return slice(m_index * nb, (m_index + 1) * nb)


PM = [0, 2]     # the +-1 doublet in the (+1, 0, -1) basis
# Fields of the closed-form checks: the CT, the benchmark range, and just below
# the 639.63 mT where the m_S = 0 level meets the doublet at the defaults
CLOSED_FORM_DETUNINGS = [0.0, -2e-3, 2e-3, -5e-3, 5e-3, 0.6396]
ELECTRONIC_MODELS = [ModelParams(), ModelParams(D=45e9), ModelParams(E=-4.5e9)]


def h_s(p):
    """The dense oracle's laboratory-frame 3 x 3 H_S."""
    return reference_hamiltonian(p, None)


class TestModelParams:
    def test_defaults_match_headline_model(self):
        p = ModelParams()
        assert p.D == -45e9 and p.E == 4.5e9
        assert p.B_min == pytest.approx(23.5e-3)
        assert p.gamma_H == pytest.approx(42.577e6)

    def test_anisotropy_hierarchy_enforced(self):
        with pytest.raises(ValueError):
            ModelParams(D=-1e9, E=2e9)

    def test_gamma_h_positive(self):
        with pytest.raises(ValueError):
            ModelParams(gamma_H=-1.0)

    def test_detuning_helper(self):
        p = ModelParams().at_detuning(2e-3)
        assert p.detuning == pytest.approx(2e-3)
        assert p.B0 == pytest.approx(25.5e-3)


class TestElectronic:
    def test_ct_eigenvalues(self):
        vals, _ = eigensolve(h_s(ModelParams()))
        assert np.allclose(vals, [-19.5 * GHZ, -10.5 * GHZ, 30.0 * GHZ], rtol=1e-12)

    def test_traceless_and_hermitian(self):
        h = h_s(ModelParams().at_detuning(7e-3))
        assert abs(np.trace(h)) < 1e-3
        assert is_hermitian(h)

    @pytest.mark.parametrize("model", ELECTRONIC_MODELS, ids=["defaults", "D>0", "E<0"])
    @pytest.mark.parametrize("db", CLOSED_FORM_DETUNINGS)
    def test_closed_form_is_the_oracle_less_d_over_3(self, model, db):
        # the engine's doublet and m_S = 0 level against the oracle's spin-1
        # matrix products, shifted by D/3, within a few ulps of its largest entry
        p = model.at_detuning(db)
        doublet, level_0 = electronic_levels(p)
        shifted = h_s(p) - p.D / 3 * np.eye(3)
        ulp = np.finfo(float).eps * np.max(np.abs(h_s(p)))
        assert doublet.dtype == float
        assert np.max(np.abs(doublet - shifted[np.ix_(PM, PM)])) <= 4 * ulp
        assert abs(level_0 - shifted[1, 1]) <= 4 * ulp
        assert not np.any(shifted[1, PM]) and not np.any(shifted[PM, 1])

    def test_ct_eigenvectors_are_symmetric_combinations(self):
        _, vecs = eigensolve(h_s(ModelParams()))
        minus = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(minus, vecs[:, 0])) - 1.0) < 1e-12
        assert abs(abs(np.vdot(plus, vecs[:, 1])) - 1.0) < 1e-12
        assert np.max(np.abs(vecs[1, :2])) < 1e-12  # no |0> amplitude

    @pytest.mark.parametrize("db", sorted({-50e-3, 1e-3, 20e-3, 50e-3, *CLOSED_FORM_DETUNINGS}))
    def test_detuned_doublet_analytic(self, db):
        # E and Zeeman act only inside the {up, down} block: 2x2 oracle
        p = ModelParams().at_detuning(db)
        vals, _ = eigensolve(h_s(p))
        half_gap = np.sqrt(p.E**2 + (p.gamma_e * db) ** 2)
        expected = np.sort([-abs(p.D) / 3 - half_gap, -abs(p.D) / 3 + half_gap, 2 * abs(p.D) / 3])
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_e_sign_flip_only_relabels(self):
        p_plus = ModelParams()
        p_minus = ModelParams(E=-4.5e9)
        v1, _ = eigensolve(h_s(p_plus))
        v2, _ = eigensolve(h_s(p_minus))
        assert np.allclose(v1, v2, rtol=1e-12)


class TestHyperfine:
    def test_kronecker_oracle(self):
        # direct Kronecker arithmetic: on the +-1 block Sz -> sigma_z, so the
        # coupling is sigma_z (x) (A_sc Iz + A_psc (Ix+Iy)) in the laboratory
        # frame, turned into the builder's
        ix, iy, iz = spin_half_generators()
        oracle = real_frame(np.kron(np.diag([1.0, -1.0]), 1e6 * iz + 0.5e6 * (ix + iy)), 1)
        h = hyperfine_part(single_proton())
        assert np.max(np.abs(h - oracle)) < 1e-12

    def test_zero_couplings_give_zero(self):
        # with zero couplings H_tot is exactly H_S (x) 1 + 1 (x) H_I
        p = ModelParams().at_detuning(2e-3)
        bath = single_proton(a_sc=0.0, a_psc=0.0)
        h = reference_hamiltonian(p, bath)
        h_i = bath_hamiltonian_matrix(p, bath)
        assert np.max(np.abs(h - np.kron(h_s(p), np.eye(2))
                             - np.kron(np.eye(3), h_i))) == 0.0

    def test_ms0_sector_vanishes(self):
        # decoupling: the full H has exact zeros between m_S = 0 and the +-1
        # sectors, and the builder's blocks are the remaining sub-blocks less
        # D/3, the +-1 one turned into the real frame
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            bath = sample_bath(BathSpec(n_nuclei=n, n_realizations=1), 0)
            p = ModelParams().at_detuning(rng.uniform(-5e-3, 5e-3))
            h = reference_hamiltonian(p, bath)
            nb = 2**n
            up, zero, down = (sector(i, nb) for i in range(3))
            for pm in (up, down):
                assert np.max(np.abs(h[zero, pm])) == 0.0
                assert np.max(np.abs(h[pm, zero])) == 0.0
            pm_rows = np.r_[0:nb, 2 * nb:3 * nb]
            h2, h0 = block_hamiltonians(p, bath)
            scale = 1e-12 * np.linalg.norm(h)
            shift = p.D / 3 * np.eye(nb)
            assert np.max(np.abs(h2 + np.kron(np.eye(2), shift)
                                 - real_frame(h[np.ix_(pm_rows, pm_rows)], n))) < scale
            assert np.max(np.abs(h0 + shift - h[zero, zero])) < scale

    def test_commutes_with_sz_not_with_bath_transverse(self):
        h = hyperfine_part(single_proton())
        sz = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        ix = np.kron(np.eye(2), spin_half_generators()[0])
        assert np.max(np.abs(h @ sz - sz @ h)) < 1e-12
        assert np.max(np.abs(h @ ix - ix @ h)) > 1e5


class TestBathHamiltonian:
    def test_single_nucleus_pure_zeeman(self):
        p = ModelParams()
        h = bath_hamiltonian_matrix(p, single_proton())
        nu = p.gamma_H * p.B0
        assert np.allclose(np.linalg.eigvalsh(h), [-nu / 2, nu / 2])

    def test_magic_angle_kills_dipolar(self):
        magic = np.arccos(np.sqrt(1.0 / 3.0))
        bath = BathRealization(
            a_sc=np.array([1e6, 1e6]), a_psc=np.array([0.5e6, 0.5e6]),
            theta=np.array([[0.0, magic], [magic, 0.0]]), d_pair=10e3,
        )
        p = ModelParams(B0=0.0)
        h = bath_hamiltonian_matrix(p, bath)
        assert np.max(np.abs(h)) < 1e-6

    def test_aligned_pair_hand_eigenvalues(self):
        # theta=0, B0=0: H = -2 D [2 IzIz - IxIx - IyIy]; worked by hand on the
        # product basis the bracket has eigenvalues {1/2, 1/2, 0, -1}, so
        # H has {-D, -D, 0, +2D}.
        d = 10e3
        bath = BathRealization(
            a_sc=np.array([0.0, 0.0]), a_psc=np.array([0.0, 0.0]),
            theta=np.zeros((2, 2)), d_pair=d,
        )
        h = bath_hamiltonian_matrix(ModelParams(B0=0.0), bath)
        assert np.allclose(np.linalg.eigvalsh(h), [-d, -d, 0.0, 2 * d], atol=1e-9)

    def test_nuclear_zeeman_uses_full_field_not_detuning(self):
        # B0 = B_min must still produce a finite proton Zeeman splitting
        p = ModelParams()  # detuning zero
        h = bath_hamiltonian_matrix(p, single_proton())
        assert np.max(np.abs(h)) > 0.4e6

    @settings(max_examples=60, deadline=None)
    @given(bath=drawn_baths(), b0=st.floats(-0.1, 0.1))
    def test_bits_equal_kronecker_oracle(self, bath, b0):
        # the same floating-point operations on every entry as the oracle's
        # embedded Ix, Iy, Iz: equal to the bit, signs of zeros included
        p = ModelParams(B0=b0)
        assert np.array_equal(bath_hamiltonian_matrix(p, bath).view(np.uint64),
                              _bath_hamiltonian(p, bath).view(np.uint64))

    @pytest.mark.parametrize("index", range(10))
    def test_bits_equal_kronecker_oracle_n7(self, index):
        bath = sample_bath(BathSpec(), index)
        p = ModelParams().at_detuning(2e-3)
        assert np.array_equal(bath_hamiltonian_matrix(p, bath).view(np.uint64),
                              _bath_hamiltonian(p, bath).view(np.uint64))


class TestTotal:
    def test_n0_reduces_to_electronic(self):
        # the blocks are H_S - D/3: the closed-form doublet and m_S = 0 level
        p = ModelParams().at_detuning(3e-3)
        h2, h0 = block_hamiltonians(p, None)
        doublet, level_0 = electronic_levels(p)
        assert np.array_equal(h2, doublet) and np.array_equal(h0, [[level_0]])
        assert np.allclose(h2 + p.D / 3 * np.eye(2), h_s(p)[np.ix_(PM, PM)])
        assert np.allclose(h0 + p.D / 3, h_s(p)[1, 1])

    def test_hermitian_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            a_sc = rng.uniform(7e6, 9e6, n)
            theta = np.zeros((n, n))
            iu, ju = np.triu_indices(n, 1)
            ang = rng.uniform(0, np.pi, iu.size)
            theta[iu, ju] = ang
            theta[ju, iu] = ang
            bath = BathRealization(a_sc=a_sc, a_psc=a_sc / 2, theta=theta, d_pair=1e4)
            p = ModelParams().at_detuning(rng.uniform(-5e-3, 5e-3))
            h = reference_hamiltonian(p, bath)
            assert is_hermitian(h)
            assert h.shape == (3 * 2**n,) * 2
            h2, h0 = block_hamiltonians(p, bath)
            assert is_hermitian(h2) and is_hermitian(h0)
            assert h2.shape == (2 * 2**n,) * 2 and h0.shape == (2**n,) * 2

    def test_eigenvalue_count_and_realness(self):
        # the spectrum of the full H is the union of the two block spectra,
        # shifted by D/3
        p = ModelParams().at_detuning(2e-3)
        bath = single_proton()
        vals, _ = eigensolve(reference_hamiltonian(p, bath))
        assert vals.shape == (6,)
        assert np.all(np.isreal(vals))
        h2, h0 = block_hamiltonians(p, bath)
        blocks = np.sort(np.concatenate([np.linalg.eigvalsh(h2), np.linalg.eigvalsh(h0)]))
        assert np.allclose(vals, blocks + p.D / 3, rtol=1e-12, atol=0.0)


class TestEigensolve:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_identity(self):
        vals, vecs = eigensolve(np.eye(5))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(5))

    def test_reconstruction_residual_dim_384(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=(384, 384)) + 1j * rng.normal(size=(384, 384))
        h = (m + m.conj().T) * 1e9
        vals, vecs = eigensolve(h)
        resid = np.linalg.norm(h @ vecs - vecs * vals) / np.linalg.norm(h)
        assert resid < 1e-9
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(384)) < 1e-10

    def test_working_set(self):
        # Besides the N = 6 block h2 (d = 128) eigensolve holds one complex
        # d x d temporary at a time: is_hermitian's conj(h2) - h2^T (plus half
        # of one while numpy takes its norm), then eigh's vectors, which are
        # returned as eigh gives them (1.5 in d^2 complex entries, measured).
        # A copy of the vectors exceeds the bound.
        bath = sample_bath(BathSpec(n_nuclei=6), 0)
        h2, _ = block_hamiltonians(ModelParams().at_detuning(2e-3), bath)
        d = h2.shape[0]
        tracemalloc.start()
        try:
            eigensolve(h2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (1 + 0.5 + 0.5) * d * d * 16


class TestClockFrequencyCurve:
    def test_ct_frequency_and_zero_slope(self):
        p = ModelParams()
        grid = p.B_min + np.arange(-20, 21) * 0.25e-3
        spec = clock_frequency_curve(p, grid)
        i0 = np.argmin(spec.f)
        assert grid[i0] == pytest.approx(p.B_min)
        assert spec.f[i0] == pytest.approx(9.0e9, rel=1e-12)
        assert abs(spec.gamma_eff[i0]) < 1e-6 * 2 * p.gamma_e

    def test_f_even_gamma_odd(self):
        p = ModelParams()
        db = np.arange(-10, 11) * 0.5e-3
        spec = clock_frequency_curve(p, p.B_min + db)
        assert np.allclose(spec.f, spec.f[::-1], rtol=1e-12)
        inner = spec.gamma_eff[1:-1]
        assert np.allclose(inner, -inner[::-1], atol=1e-3)

    def test_gamma_eff_monotone_through_zero(self):
        p = ModelParams()
        db = np.arange(-10, 11) * 0.5e-3
        spec = clock_frequency_curve(p, p.B_min + db)
        assert np.all(np.diff(spec.gamma_eff[1:-1]) > 0)

    def test_far_field_asymptote_two_gamma(self):
        # limit of the analytic f(dB) = 2 sqrt(E^2 + (gamma dB)^2); stay below
        # the ~0.64 T crossing where the m_S = 0 level enters the gap
        p = ModelParams()
        db = 0.5
        grid = p.B_min + np.array([db - 1e-3, db, db + 1e-3])
        spec = clock_frequency_curve(p, grid)
        oracle = 2 * p.gamma_e * (p.gamma_e * db) / np.sqrt(p.E**2 + (p.gamma_e * db) ** 2)
        assert spec.gamma_eff[1] == pytest.approx(oracle, rel=1e-4)
        assert spec.gamma_eff[1] == pytest.approx(2 * p.gamma_e, rel=1e-2)

    def test_quadratic_coefficient_at_ct(self):
        # f ~ gap + (1/2) (4 gamma^2 / gap) dB^2 near the CT
        p = ModelParams()
        db = 0.1e-3
        f0 = analytic_doublet_gap(p, 0.0)
        f1 = analytic_doublet_gap(p, db)
        curv = 2 * (f1 - f0) / db**2
        assert curv == pytest.approx(ct_curvature(p), rel=1e-4)
        assert ct_curvature(p) == pytest.approx(4 * p.gamma_e**2 / (2 * p.E))

    def test_matches_full_eigensolve(self):
        # the closed-form levels against an eigh of the oracle's H_S at every
        # grid point, and the gap against its closed form where both lowest
        # levels are the doublet's
        db = np.concatenate([np.linspace(-50e-3, 50e-3, 11), CLOSED_FORM_DETUNINGS, [0.7]])
        for model in ELECTRONIC_MODELS:
            spec = clock_frequency_curve(model, model.B_min + db)
            for x, levels in zip(db, spec.energies):
                oracle = np.linalg.eigvalsh(h_s(model.at_detuning(x)))
                assert np.allclose(levels, oracle, rtol=1e-12, atol=0.0), (model, x)
            reachable = np.hypot(model.E, model.gamma_e * db) < -model.D
            oracle = np.array([analytic_doublet_gap(model, x) for x in db])
            assert np.allclose(spec.f[reachable], oracle[reachable], rtol=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            clock_frequency_curve(ModelParams(), [])

    def test_csv_roundtrip(self, tmp_path):
        p = ModelParams()
        spec = clock_frequency_curve(p, p.B_min + np.array([-1e-3, 0.0, 1e-3]))
        path = tmp_path / "spec.csv"
        spec.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "B0_T,E1_Hz,E2_Hz,E3_Hz,f_Hz,gamma_eff_Hz_per_T"
        assert len(rows) == 4
        assert float(rows[2].split(",")[4]) == pytest.approx(9.0e9)


class TestProjection:
    def test_all_mapping_rows(self):
        model = project_fictitious(ModelParams())
        for name in model.mapping:
            assert model.mapping_residual(name) < 1e-10, name

    def test_effective_eigenvalues_match_lower_doublet(self):
        p = ModelParams().at_detuning(10e-3)
        model = project_fictitious(p)
        eff = np.linalg.eigvalsh(model.h_eff)
        full, _ = eigensolve(h_s(p))
        shifted = full[:2] + abs(p.D) / 3.0
        assert np.allclose(eff, shifted, rtol=1e-12)

    def test_projection_exact_over_detuning_range(self):
        # |0> is uncoupled, so the 2x2 model reproduces the transition
        # frequency exactly over |dB| <= 50 mT
        p = ModelParams()
        for db in np.linspace(-50e-3, 50e-3, 21):
            pp = p.at_detuning(db)
            eff = np.linalg.eigvalsh(project_fictitious(pp).h_eff)
            vals, _ = eigensolve(h_s(pp))
            assert abs((eff[1] - eff[0]) - (vals[1] - vals[0])) <= 1e-10 * (vals[1] - vals[0])

    def test_anticommutator_block_is_minus_sigma_y(self):
        model = project_fictitious(ModelParams())
        sigma_y = np.array([[0, -1j], [1j, 0]])
        assert np.max(np.abs(model.mapping["anticomm_xy"] + sigma_y)) < 1e-14
