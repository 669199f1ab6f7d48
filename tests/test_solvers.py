"""The numpy fitter against the scipy routine it ports."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from clockspin import analysis, solvers
from clockspin.analysis import fit_decay
from clockspin.dynamics import SequenceConfig
from clockspin.echotrace import EchoTrace
from clockspin.errors import FitError
from clockspin.hamiltonian import ModelParams

# The fitter keeps scipy 1.17's operation order; the bit-for-bit comparison was
# checked against scipy 1.17.1 only.
SCIPY_1_17 = tuple(int(v) for v in scipy.__version__.split(".")[:2]) >= (1, 17)


def _modulated_decay(i0, t_m, x, baseline, depth, nu, n=1000, tau_step=100e-9):
    """A stretched decay against t = 2 tau with ESEEM modulation at ``nu``."""
    tau = tau_step * np.arange(1, n + 1)
    envelope = i0 * np.exp(-((2 * tau / t_m) ** x))
    return EchoTrace(tau=tau, intensity=baseline + envelope * (1 - depth * np.sin(np.pi * nu * tau) ** 2))


def _fit_problems(trace, fit_baseline, nu):
    """The least-squares problems ``fit_decay`` hands the solver, and its result."""
    problems = []

    def record(fun, x0, lb, ub, max_nfev):
        problems.append((fun, x0, lb, ub, max_nfev))
        return solvers.least_squares_bounded(fun, x0, lb, ub, max_nfev)

    with mock.patch.object(analysis, "least_squares_bounded", record):
        fit = fit_decay(trace, baseline=fit_baseline, smooth_hz=nu)
    return problems, fit


def _check_against_scipy(problem, rtol):
    """Solve ``problem`` as scipy's trf does: bit for bit with scipy's SVD, and
    to a sum of squares at most ``1 + rtol`` times scipy's with numpy's."""
    fun, x0, lb, ub, max_nfev = problem
    ref = scipy.optimize.least_squares(fun, x0, bounds=(lb, ub), method="trf", max_nfev=max_nfev)
    ours = solvers.least_squares_bounded(fun, x0, lb, ub, max_nfev)
    assert ours.cost <= ref.cost * (1 + rtol)
    if SCIPY_1_17:
        with mock.patch.object(solvers, "svd", scipy.linalg.svd):
            same_svd = solvers.least_squares_bounded(fun, x0, lb, ub, max_nfev)
        assert np.array_equal(same_svd.x, ref.x)
        assert same_svd.cost == ref.cost


class TestLeastSquaresBounded:
    @settings(deadline=None, max_examples=60)
    @given(i0=st.floats(0.05, 1.0), t_m=st.floats(10e-6, 60e-6), x=st.floats(0.6, 4.0),
           offset=st.floats(-0.5, 0.5), depth=st.floats(0.05, 0.5), nu=st.floats(0.5e6, 3e6),
           fit_baseline=st.booleans())
    def test_fit_matches_scipy_trf(self, i0, t_m, x, offset, depth, nu, fit_baseline):
        # Decays the 200 us fit window resolves: T_m is at least five smoothing
        # widths (one period of nu each) and at most 0.3 of the window.  Without
        # a baseline the model decays to zero, and so does the trace.
        trace = _modulated_decay(i0, t_m, x, offset if fit_baseline else 0.0, depth, nu)
        problems, _ = _fit_problems(trace, fit_baseline, nu)
        for problem in problems:
            _check_against_scipy(problem, rtol=1e-9)

    @pytest.mark.parametrize("t_m, x, offset, fit_baseline", [
        (20e-6, 4.0, 0.2, True), (30e-6, 3.5, 0.0, False), (12e-6, 3.2, -0.1, True),
    ])
    def test_fit_at_the_exponent_bound_matches_scipy_trf(self, t_m, x, offset, fit_baseline):
        trace = _modulated_decay(0.6, t_m, x, offset, 0.3, 1.5e6)
        problems, fit = _fit_problems(trace, fit_baseline, 1.5e6)
        assert fit.exponent == pytest.approx(3.0, abs=1e-5)
        _check_against_scipy(problems[0], rtol=1e-9)

    def test_workload_fields_meet_the_sum_of_squares_gate(self):
        # every field of the benchmark's n3-many and n7-serial workloads: the
        # fit with numpy's SVD ends at most 1e-9 above scipy's sum of squares
        reference = Path(__file__).parents[1] / "benchmarks" / "reference" / "seed1234.npz"
        if not reference.exists():
            pytest.skip("no benchmark reference in this tree")
        tau = SequenceConfig().tau_grid()
        params = ModelParams()
        with np.load(reference) as data:
            traces = {k: data[k] for k in data.files if "/trace/" in k}
        assert len(traces) == 43
        for key, intensity in traces.items():
            nu_h = params.at_detuning(float(key.rsplit("/", 1)[1][:-2]) * 1e-3).proton_larmor()
            problems, _ = _fit_problems(EchoTrace(tau=tau, intensity=intensity), True, nu_h)
            _check_against_scipy(problems[0], rtol=1e-9)

    def test_evaluation_budget_exhausted_is_fit_error(self):
        trace = _modulated_decay(0.6, 20e-6, 1.5, 0.2, 0.3, 1.5e6)
        ((fun, x0, lb, ub, _),), _ = _fit_problems(trace, True, 1.5e6)
        result = solvers.least_squares_bounded(fun, x0, lb, ub, max_nfev=2)
        assert result.status == 0
        ref = scipy.optimize.least_squares(fun, x0, bounds=(lb, ub), method="trf", max_nfev=2)
        assert ref.status == 0
        with pytest.raises(FitError, match="decay fit did not converge"):
            analysis._converged(result)

    def test_non_finite_trace_is_value_error(self):
        trace = _modulated_decay(0.6, 20e-6, 1.5, 0.2, 0.3, 1.5e6)
        for bad in (np.nan, np.inf):
            trace.intensity[500] = bad
            with pytest.raises(ValueError, match="infinite or NaN"):
                fit_decay(trace, baseline=True)
