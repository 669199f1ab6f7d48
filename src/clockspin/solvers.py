"""The bounded nonlinear least-squares fit clockspin needs, in numpy.

``least_squares_bounded`` is the path that ``scipy.optimize.curve_fit(...,
bounds=..., maxfev=...)`` takes through ``least_squares``: the bounded
trust-region-reflective method of Branch, Coleman & Li (SIAM J. Sci. Comput.
21, 1 (1999)) with an exact, SVD-based trust-region solver (More 1978), a
forward-difference Jacobian and ``ftol = xtol = gtol = 1e-8``.  Only the
branches that call takes are kept, and every floating-point operation is kept
in scipy's order, so its result differs from scipy's only by what the two
builds of LAPACK's gesdd give.

It is a port of scipy 1.17 (``scipy/optimize/_lsq/trf.py``,
``_lsq/common.py``, ``_numdiff.py``), used under scipy's BSD-3-Clause license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from math import copysign
from typing import NamedTuple

import numpy as np
from numpy.linalg import norm, svd

_EPS = np.finfo(float).eps
_FD_STEP = _EPS**0.5             # relative forward-difference step
_TOL = 1e-8                     # ftol, xtol and gtol


class LeastSquaresResult(NamedTuple):
    x: np.ndarray               # the solution
    cost: float                 # half the sum of squared residuals at x
    jac: np.ndarray             # forward-difference Jacobian at x
    status: int                 # 0: max_nfev reached; 1-4: gtol, ftol, xtol, ftol and xtol met


def least_squares_bounded(fun, x0, lb, ub, max_nfev: int) -> LeastSquaresResult:
    """Minimize ``0.5 * ||fun(x)||^2`` over ``lb <= x <= ub`` (module docstring).

    ``max_nfev`` counts the evaluations of ``fun`` outside the Jacobian.
    """
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    x = _strictly_feasible(np.asarray(x0, dtype=float), lb, ub, rstep=1e-10)
    f = fun(x)
    nfev = 1
    J = _jacobian(fun, x, f, lb, ub)
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, dv = _scaling_vector(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0
    status = None
    while True:
        v, dv = _scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < _TOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        # The trust-region problem in the scaled ("hat") variables.
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, V = svd(J_augmented, full_matrices=False)
        V = V.T
        uf = U.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)     # step back from the bounds
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)
            x_new = _strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_radius(Delta, actual_reduction, predicted_reduction,
                                              step_h_norm, step_h_norm > 0.95 * Delta)
            status = _termination(actual_reduction, cost, norm(step), norm(x), ratio)
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)
    return LeastSquaresResult(x=x, cost=cost, jac=J, status=0 if status is None else status)


def _strictly_feasible(x, lb, ub, rstep):
    """``x`` moved off any bound it is on: by ``rstep`` relative, or by one ulp
    where ``rstep`` is 0."""
    x_new = x.copy()
    if rstep == 0:
        upper = x >= ub
        lower = (x <= lb) & ~upper
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
        return x_new
    lower_dist, upper_dist = x - lb, ub - x
    upper = np.isfinite(ub) & (upper_dist <= np.minimum(lower_dist, rstep * np.maximum(1, np.abs(ub))))
    lower = (np.isfinite(lb) & (lower_dist <= np.minimum(upper_dist, rstep * np.maximum(1, np.abs(lb))))
             & ~upper)
    x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
    x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    return x_new


def _jacobian(fun, x, f, lb, ub):
    """Forward differences, each step turned back where it would leave the
    bounds.  (A step that fits on neither side, in bounds narrower than about
    1.5e-8 relative, is not handled.)"""
    h = _FD_STEP * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    x_step = x + h
    h[(x_step < lb) | (x_step > ub)] *= -1
    J_transposed = np.empty((x.size, f.size))
    for i in range(x.size):
        x1 = np.copy(x)
        x1[i] = x[i] + h[i]
        J_transposed[i] = (fun(x1) - f) / ((x[i] + h[i]) - x[i])
    return J_transposed.T


def _scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling: the distance to the bound the anti-gradient points at."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _solve_trust_region(n, m, uf, s, V, Delta, alpha):
    """``(p, alpha)``: the regularized least-squares step of norm at most
    ``Delta``, by More's iteration on the Levenberg-Marquardt parameter."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / norm(p)
    return p, alpha


def _step_to_bound(x, s, lb, ub):
    """The step along ``s`` to the first bound, and which bounds it hits."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of the model ``0.5 u^T (J^T J + diag) u + g^T u`` along
    ``u = s0 + t s``: ``a t^2 + b t (+ c)``; at ``t = 1`` and no ``s0``,
    ``a + b`` is its value at ``s``."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lb, ub, c=0):
    """``(t, value)`` minimizing ``a t^2 + b t + c`` over ``[lb, ub]``."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region step (cut back into the bounds), its
    reflection at the first bound hit, and the projected-gradient step."""
    x_p = x + p
    if np.all((x_p >= lb) & (x_p <= ub)):
        return p, p_h, -sum(_quadratic_1d(J_h, g_h, p_h, diag_h))
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    # The reflected direction leaves the trust region at the larger root of
    # ||p_h + t r_h|| = Delta.
    a, b = np.dot(r_h, r_h), np.dot(p_h, r_h)
    c = np.dot(p_h, p_h) - Delta**2
    q = -(b + copysign(np.sqrt(b*b - a*c), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    p *= theta
    p_h *= theta
    p_value = sum(_quadratic_1d(J_h, g_h, p_h, diag_h))
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _update_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """The next trust radius and the ratio of actual to predicted reduction."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _termination(dF, F, dx_norm, x_norm, ratio):
    """2 when ftol is met, 3 when xtol is, 4 when both are, else None."""
    ftol_met = dF < _TOL * F and ratio > 0.25
    xtol_met = dx_norm < _TOL * (_TOL + x_norm)
    if ftol_met and xtol_met:
        return 4
    if ftol_met:
        return 2
    if xtol_met:
        return 3
    return None
