"""The swap ladder in closed form, and the ceilings that bound every row.

A Bell-diagonal state (a, b, c, d) is a distribution on the Klein
four-group, and one ideal swap is its self-convolution.  Its characters are

    l0 = a + b + c + d,   lZ = a + b - c - d,
    lX = a - b + c - d,   lY = a - b - c + d,

so after log2 N swap levels each character is raised to the N-th power and
the state is their inverse Walsh-Hadamard transform (Duer, Briegel, Cirac
and Zoller, PRA 59, 169 (1999)).  The reference forms below use only
``math``: nothing from ``bell_algebra``, whose loop they check.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeaterlab.bell_algebra import BellDiagonal, swap_ideal
from repeaterlab.codes import code_catalog
from repeaterlab.core import HardwareParams, gate_error_prob, memory_error_prob
from repeaterlab.pipeline import ProtocolConfig, _chain, timing

REPETITION = [c for c in code_catalog() if c.family == "repetition"]
CSS = [c for c in code_catalog() if c.family == "css"]


def ladder(state, levels):
    """(a, b, c, d) after ``levels`` ideal swaps: the inverse Walsh-Hadamard form."""
    a, b, c, d = state
    n = 2**levels
    l0, lz, lx, ly = (a + b + c + d) ** n, (a + b - c - d) ** n, (a - b + c - d) ** n, (a - b - c + d) ** n
    return (
        0.25 * (l0 + lz + lx + ly),
        0.25 * (l0 + lz - lx - ly),
        0.25 * (l0 - lz + lx - ly),
        0.25 * (l0 - lz - lx + ly),
    )


def pump(state, rounds):
    """(a, b, c, d) after ``rounds`` ideal purification rounds (Deutsch et al., PRL 77, 2818)."""
    a, b, c, d = state
    for _ in range(rounds):
        p = (a + d) ** 2 + (b + c) ** 2
        a, b, c, d = (a * a + d * d) / p, 2.0 * a * d / p, (b * b + c * c) / p, 2.0 * b * c / p
    return a, b, c, d


def block_failure(n, d, q):
    """Q_n: probability that (d + 1)/2 or more of n qubits err, each with probability q."""
    return sum(math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range((d + 1) // 2, n + 1))


def config(code, rounds, levels, segment_km, tau_c, one_minus_t, f):
    hw = HardwareParams(local_transmission=1.0 - one_minus_t, memory_coherence_s=tau_c)
    return ProtocolConfig(segment_km * 2**levels, segment_km, code, rounds, hw, fidelity=f)


# a normalized or sub-normalized state: four weights scaled to a total in (0, 1]
_STATES = st.tuples(
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.0),
    st.floats(1e-3, 1.0),
).map(lambda wt: tuple(x * wt[1] / sum(wt[0]) for x in wt[0]))
# raw fidelity, pump rounds, swap levels, L0, tau_c and 1 - T over the sweep's ranges and beyond
_POINTS = st.tuples(
    st.floats(0.5, 1.0, exclude_min=True),
    st.integers(0, 3),
    st.integers(1, 6),
    st.sampled_from([10.0, 20.0, 40.0]),
    st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    st.floats(-6.0, -1.5).map(lambda e: 10.0**e),
)


@settings(max_examples=300, deadline=None)
@given(_STATES, st.integers(1, 10))
def test_swap_loop_is_the_walsh_hadamard_form(state, levels):
    s = BellDiagonal(*state)
    for _ in range(levels):
        s = swap_ideal(s)
    assert s.as_tuple() == pytest.approx(ladder(state, levels), rel=0.0, abs=1e-13)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REPETITION), _POINTS)
def test_repetition_chain_is_gate_charge_times_the_ladder(code, point):
    f, k, levels, segment_km, tau_c, one_minus_t = point
    cfg = config(code, k, levels, segment_km, tau_c, one_minus_t, f)
    n_seg = 2**levels
    # the stored pair: memory flips over half the pump window, decoded per block
    q_block = block_failure(code.n, code.d, memory_error_prob(timing(cfg).t_purify_s / 2.0, tau_c))
    p = (1.0 - q_block) ** 2 + q_block**2
    pumped = pump((p * f, (1.0 - p) * f, p * (1.0 - f), (1.0 - p) * (1.0 - f)), k)
    a, b, c, d = pumped
    chain_term = 0.25 * (1.0 + (a + b - c - d) ** n_seg + (a - b + c - d) ** n_seg + (a - b - c + d) ** n_seg)
    gates = (1.0 - gate_error_prob(1.0 - one_minus_t)) ** (2 * code.n * (n_seg - 1 + 2 * (2**k - 1)))
    f_final, _p_k = _chain(cfg, timing(cfg))(f)
    assert f_final == pytest.approx(gates * chain_term, rel=0.0, abs=1e-13)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REPETITION), _POINTS)
def test_repetition_f_final_never_beats_the_gate_charge(code, point):
    f, k, levels, segment_km, tau_c, one_minus_t = point
    cfg = config(code, k, levels, segment_km, tau_c, one_minus_t, f)
    gates = (1.0 - gate_error_prob(1.0 - one_minus_t)) ** (2 * code.n * (2**levels - 1 + 2 * (2**k - 1)))
    price = _chain(cfg, timing(cfg))
    # the raw fidelity drawn, and the ends of the solver's window; the swapped
    # state's leading coefficient is at most 1 up to a few ulps of rounding
    for raw in (f, 0.5 + 1e-6, 1.0 - 1e-9, 1.0):
        assert price(raw)[0] <= gates * (1.0 + 1e-15)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CSS), _POINTS)
def test_css_f_final_never_beats_its_gate_and_memory_budget(code, point):
    # F_k <= 1 and Q_n rises with q, so the pump's infidelity only lowers F_final
    f, k, levels, segment_km, tau_c, one_minus_t = point
    cfg = config(code, k, levels, segment_km, tau_c, one_minus_t, f)
    q_m = memory_error_prob(timing(cfg).t_half_s / 2.0, tau_c)
    q_floor = min(1.0, 3.0 * q_m + 2.0 * gate_error_prob(1.0 - one_minus_t))
    ceiling = (1.0 - block_failure(code.n, code.d, q_floor)) ** (2 * 2**levels)
    price = _chain(cfg, timing(cfg))
    for raw in (f, 0.5 + 1e-6, 1.0 - 1e-9, 1.0):
        assert price(raw)[0] <= ceiling * (1.0 + 1e-12)
