import numpy as np
import pytest

from clockspin import constants
from clockspin.bath import (
    BathSpec,
    dipolar_strength,
    ensemble_average,
    sample_bath,
)
from clockspin.echotrace import EchoTrace
from support import bath_from_json, bath_to_json


class TestSampleBath:
    def test_deterministic_for_seed_and_index(self):
        spec = BathSpec(seed=99)
        a = sample_bath(spec, 3)
        b = sample_bath(spec, 3)
        assert np.array_equal(a.a_sc, b.a_sc)
        assert np.array_equal(a.theta, b.theta)

    def test_indices_give_distinct_draws(self):
        spec = BathSpec(seed=99)
        draws = [sample_bath(spec, i).a_sc for i in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(draws[i], draws[j])

    def test_zero_halfwidth_pins_couplings(self):
        spec = BathSpec(a_halfwidth=0.0)
        r = sample_bath(spec, 0)
        assert np.allclose(r.a_sc, spec.a_mean)

    def test_couplings_within_range(self):
        spec = BathSpec()
        r = sample_bath(spec, 1)
        assert np.all(r.a_sc >= 7e6) and np.all(r.a_sc <= 9e6)

    def test_psc_ratio(self):
        r = sample_bath(BathSpec(), 2)
        assert np.allclose(r.a_psc, 0.5 * r.a_sc)

    def test_sample_mean_law_of_large_numbers(self):
        # mean of A_sc over 1e4 draws within 1% of the distribution mean
        spec = BathSpec(seed=7)
        total, count = 0.0, 0
        for i in range(1500):
            r = sample_bath(spec, i)
            total += r.a_sc.sum()
            count += r.a_sc.size
        assert count >= 10_000
        assert abs(total / count - spec.a_mean) < 0.01 * spec.a_mean

    def test_theta_symmetric_zero_diagonal(self):
        r = sample_bath(BathSpec(), 0)
        assert np.array_equal(r.theta, r.theta.T)
        assert np.all(np.diag(r.theta) == 0.0)

    def test_isotropic_cos_distribution(self):
        # cos(theta) uniform on [-1, 1]: mean ~ 0, var ~ 1/3
        spec = BathSpec(seed=11)
        cosines = []
        for i in range(400):
            r = sample_bath(spec, i)
            iu = np.triu_indices(spec.n_nuclei, 1)
            cosines.extend(np.cos(r.theta[iu]))
        cosines = np.array(cosines)
        assert abs(cosines.mean()) < 0.02
        assert abs(cosines.var() - 1.0 / 3.0) < 0.01

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BathSpec(n_nuclei=0)
        with pytest.raises(ValueError):
            BathSpec(n_nuclei=11)
        with pytest.raises(ValueError):
            BathSpec(a_halfwidth=-1.0)
        with pytest.raises(ValueError):
            sample_bath(BathSpec(), -1)

    def test_json_roundtrip(self):
        r = sample_bath(BathSpec(), 4)
        back = bath_from_json(bath_to_json(r))
        assert np.array_equal(back.a_sc, r.a_sc)
        assert np.array_equal(back.theta, r.theta)
        assert back.seed == r.seed and back.index == r.index


class TestDipolarStrength:
    def test_electron_nuclear_at_4_angstrom(self):
        # Ho moment g_J m_J mu_B = 5 mu_B against a proton at 4 A -> ~3 MHz
        val = dipolar_strength(4e-10, 5 * constants.MU_BOHR, constants.PROTON_MOMENT,
                               "electron-nuclear")
        assert val == pytest.approx(3e6, rel=0.05)

    def test_electron_nuclear_at_2p9_angstrom(self):
        val = dipolar_strength(2.9e-10, 5 * constants.MU_BOHR, constants.PROTON_MOMENT,
                               "electron-nuclear")
        assert val == pytest.approx(8e6, rel=0.05)

    def test_proton_pair_at_1p8_angstrom(self):
        mu = constants.PROTON_MOMENT_GAMMA_HBAR
        val = dipolar_strength(1.8e-10, mu, mu, "nuclear-pair")
        assert val == pytest.approx(10e3, rel=0.05)

    def test_inverse_cube_scaling(self):
        a = dipolar_strength(2e-10, 1e-26, 1e-26, "nuclear-pair")
        b = dipolar_strength(4e-10, 1e-26, 1e-26, "nuclear-pair")
        assert a / b == pytest.approx(8.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dipolar_strength(0.0, 1e-26, 1e-26, "nuclear-pair")
        with pytest.raises(ValueError):
            dipolar_strength(1e-10, 1e-26, 1e-26, "sideways")


def make_trace(values, seed=0, index=0):
    tau = 1e-7 * np.arange(1, len(values) + 1)
    return EchoTrace(tau=tau, intensity=np.asarray(values, dtype=float),
                     meta={"bath_seed": seed, "bath_index": index})


class TestEnsembleAverage:
    def test_single_trace_identity(self):
        t = make_trace([1.0, 2.0, 3.0])
        avg = ensemble_average([t])
        assert np.array_equal(avg.intensity, t.intensity)

    def test_two_trace_mean(self):
        avg = ensemble_average([make_trace([1.0, 0.0]), make_trace([3.0, 2.0])])
        assert np.array_equal(avg.intensity, [2.0, 1.0])

    def test_constant_traces_exact(self):
        traces = [make_trace([0.25] * 8, index=i) for i in range(10)]
        avg = ensemble_average(traces)
        assert np.all(avg.intensity == 0.25)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        traces = [make_trace(rng.normal(size=16), index=i) for i in range(6)]
        fwd = ensemble_average(traces)
        rev = ensemble_average(traces[::-1])
        assert np.array_equal(fwd.intensity, rev.intensity)

    def test_grid_mismatch_rejected(self):
        a = make_trace([1.0, 2.0])
        b = EchoTrace(tau=np.array([1e-7, 3e-7]), intensity=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ensemble_average([a, b])

    def test_metadata_records_members(self):
        traces = [make_trace([1.0], seed=5, index=i) for i in range(3)]
        avg = ensemble_average(traces)
        assert avg.meta["n_realizations"] == 3
        assert [m["index"] for m in avg.meta["ensemble"]] == [0, 1, 2]

    def test_average_keeps_no_member_bath(self):
        traces = [make_trace([float(i)], seed=5, index=i) for i in range(3)]
        for t in traces:
            t.meta["a_sc_hz"] = [7e6 + t.meta["bath_index"]]
        avg = ensemble_average(traces)
        assert "bath_index" not in avg.meta and "a_sc_hz" not in avg.meta
        assert avg.meta["bath_seed"] == 5
        members = sorted(avg.meta["ensemble"], key=lambda m: m["index"])
        assert members == [{"seed": 5, "index": i} for i in range(3)]
