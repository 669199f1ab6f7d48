"""Test-only helpers: closed-form oracles, the real frame of the +-1 block, a
modulation-depth measure, a text round trip for bath realizations and a
hypothesis strategy for baths."""

import json

import numpy as np
from hypothesis import strategies as st

from clockspin.analysis import DecayFit
from clockspin.bath import BathRealization
from clockspin.echotrace import EchoTrace
from clockspin.hamiltonian import ModelParams


def bath_to_json(r: BathRealization) -> str:
    """A realization as JSON, with every float in round-trip precision."""
    payload = {
        "a_sc_hz": [f"{v:.17g}" for v in r.a_sc],
        "a_psc_hz": [f"{v:.17g}" for v in r.a_psc],
        "theta_rad": [[f"{v:.17g}" for v in row] for row in r.theta],
        "d_pair_hz": f"{r.d_pair:.17g}",
        "seed": r.seed,
        "index": r.index,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def bath_from_json(text: str) -> BathRealization:
    d = json.loads(text)
    return BathRealization(
        a_sc=np.array([float(v) for v in d["a_sc_hz"]]),
        a_psc=np.array([float(v) for v in d["a_psc_hz"]]),
        theta=np.array([[float(v) for v in row] for row in d["theta_rad"]]),
        d_pair=float(d["d_pair_hz"]),
        seed=int(d["seed"]),
        index=int(d["index"]),
    )


_COUPLING = st.floats(-10e6, 10e6, allow_subnormal=False)


@st.composite
def drawn_baths(draw):
    """A bath of 1 to 4 protons with arbitrary couplings and pair angles."""
    n = draw(st.integers(1, 4))
    theta = np.zeros((n, n))
    for m in range(n):
        for k in range(m + 1, n):
            theta[m, k] = theta[k, m] = draw(st.floats(0.0, np.pi))
    return BathRealization(a_sc=np.array(draw(st.lists(_COUPLING, min_size=n, max_size=n))),
                           a_psc=np.array(draw(st.lists(_COUPLING, min_size=n, max_size=n))),
                           theta=theta, d_pair=draw(st.floats(0.0, 100e3)))


def analytic_doublet_gap(p: ModelParams, delta_b=None) -> float:
    """Closed-form clock frequency ``2 sqrt(E^2 + (gamma_e dB)^2)``.

    The E and Zeeman terms act only inside the {|up>, |down>} block, so the
    lower doublet is an exact 2x2 problem.
    """
    db = p.detuning if delta_b is None else delta_b
    return 2.0 * np.sqrt(p.E**2 + (p.gamma_e * db) ** 2)


def ct_curvature(p: ModelParams) -> float:
    """Curvature d^2 f/dB0^2 at the clock transition.

    Equals ``4 gamma_e^2 / gap`` with the clock-transition gap ``2|E|`` in
    terms of the bare model gamma_e, i.e. ``(2 gamma_e)^2 / gap`` in terms of
    the far-field slope 2*gamma_e.
    """
    return 4.0 * p.gamma_e**2 / (2.0 * abs(p.E))


def real_frame(h: np.ndarray, n: int) -> np.ndarray:
    """``R^dag h R`` for ``R = 1 (x) exp(-i pi/4 sum_k Iz^k)`` on the
    ``(up, down) (x) bath`` block of ``n`` nuclei, the frame of
    ``hamiltonian.block_hamiltonians``.

    Entry (j, k) is turned by ``exp(i pi/4 s) = (1 + i s) sqrt(1/2)``, with
    ``s = m_j - m_k`` the change of the bath's total Iz.  No term of H_tot
    changes it by more than one.  The product is taken in real arithmetic, so
    that a pseudosecular entry ``a (1 - i s)/2`` comes out exactly real.
    """
    m = np.zeros(1)
    for _ in range(n):
        m = np.add.outer(m, [0.5, -0.5]).ravel()
    s = np.subtract.outer(np.tile(m, 2), np.tile(m, 2))
    assert not np.any(h[np.abs(s) > 1])
    p, q = h.real, h.imag
    return np.where(s == 0, h, np.sqrt(0.5) * ((p - s * q) + 1j * (q + s * p)))


def modulation_depth(residual: EchoTrace, window, fit: DecayFit) -> float:
    """Peak-to-peak residual over a time window, relative to the background.

    ``window`` is ``(t_lo, t_hi)`` in the physical time variable t = 2 tau.
    """
    t_lo, t_hi = window
    t = residual.times
    mask = (t >= t_lo) & (t <= t_hi)
    if not np.any(mask):
        raise ValueError("window contains no samples")
    seg = residual.intensity[mask]
    background = abs(fit.evaluate(0.5 * (t_lo + t_hi)))
    if background == 0.0:
        raise ValueError("background vanishes at the window midpoint")
    return float((seg.max() - seg.min()) / background)
