"""End-to-end fidelity, rate, and operating-point checks."""

import collections
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeaterlab import pipeline
from repeaterlab.bell_algebra import BellDiagonal, PurifyOutcome, purify_ideal, purify_imperfect_exact, swap_ideal
from repeaterlab.codes import (
    code_catalog,
    css_effective_qubit_error,
    effective_coefficients,
    logical_error_prob,
    pair_no_error_prob,
)
from repeaterlab.core import (
    ChannelParams,
    HardwareParams,
    gate_error_prob,
    initial_fidelity,
    memory_error_prob,
    success_probability,
    transmittance,
)
from repeaterlab.pipeline import (
    _F_HI,
    _F_LO,
    _F_TOL,
    MAX_ROUNDS,
    ProtocolConfig,
    evaluate,
    final_fidelity,
    heralding_probability,
    operating_point,
    pump_success_probability,
    rate_purified,
    rate_unpurified,
    sweep,
    timing,
    with_fidelity,
)
from reference import charge_exponent

CODES = {c.label: c for c in code_catalog()}


def make_cfg(label="[3,1,3]", rounds=2, tau_c=0.1, one_minus_t=1e-3, fidelity=0.95, **kw):
    hw = HardwareParams(local_transmission=1.0 - one_minus_t, memory_coherence_s=tau_c)
    return ProtocolConfig(
        kw.pop("total", 1280.0),
        kw.pop("segment", 20.0),
        CODES[label],
        rounds,
        hw,
        fidelity=fidelity,
        **kw,
    )


# (tau_c, 1 - T, L, L0, F): N = 64, 8, 2 and 16 (the last with perfect hardware)
GRID_POINTS = [
    (0.1, 1e-3, 1280.0, 20.0, 0.95),
    (0.01, 1e-4, 80.0, 10.0, 0.9),
    (1.0, 1e-2, 40.0, 20.0, 0.99),
    (math.inf, 0.0, 320.0, 20.0, 0.97),
]
# (L0, alpha, theta): qubus raw fidelity; the last one saturates at F = 1/2
CHANNELS = [(20.0, 20.0, 0.01), (10.0, 200.0, 0.01)]
SATURATED_CHANNEL = (20.0, 1e6, 1.0)
ROW_FIELDS = (
    "code_label", "family", "rounds", "tau_c_s", "one_minus_t", "total_distance_km",
    "segment_km", "f", "f_final", "p0", "p_k", "rate_per_memory_hz", "error",
)


def catalog_grid():
    """Every catalog code at k = 0..3 over GRID_POINTS, plus channel-route,
    errored (F = 1/2 has no P0) and underflowing (k = 40) rows."""
    cfgs = []
    for code in code_catalog():
        for k in range(4):
            for tau_c, omt, total, seg, f in GRID_POINTS:
                hw = HardwareParams(1.0 - omt, tau_c)
                cfgs.append(ProtocolConfig(total, seg, code, k, hw, fidelity=f))
        for k in (0, 2):
            for seg, alpha, theta in CHANNELS:
                ch = ChannelParams(seg, alpha, theta)
                cfgs.append(ProtocolConfig(4 * seg, seg, code, k, HardwareParams(0.999, 0.1), channel=ch))
    for label, k in (("[3,1,3]", 1), ("[7,1,3]", 1)):
        ch = ChannelParams(*SATURATED_CHANNEL)
        cfgs.append(ProtocolConfig(80.0, 20.0, CODES[label], k, HardwareParams(0.999, 0.1), channel=ch))
    for label in ("[3,1,3]", "[23,1,7]"):
        cfgs.append(make_cfg(label, rounds=40))
    return cfgs


class TestConfig:
    def test_power_of_two_segments(self):
        assert make_cfg().num_segments() == 64

    def test_max_rounds_priced_for_every_code(self):
        # n 2^k and the gate-factor exponents stay finite floats up to MAX_ROUNDS
        for label in CODES:
            assert evaluate(make_cfg(label, rounds=MAX_ROUNDS)).error is None

    def test_channel_route(self):
        # the channel is the probe; the config's default fiber gives eta
        ch = ChannelParams(20.0, 20.0, 0.01)
        hw = HardwareParams(0.999, 0.1)
        cfg = ProtocolConfig(1280.0, 20.0, CODES["[3,1,3]"], 2, hw, channel=ch)
        assert cfg.segment_transmittance() == transmittance(20.0, 25.5)
        assert cfg.raw_fidelity() == initial_fidelity(20.0, 0.01, transmittance(20.0, 25.5))

    def test_with_fidelity_keeps_attenuation(self):
        # the channel prices F over the config's attenuation length, and the
        # pinned copy keeps that length for P0
        ch = ChannelParams(20.0, 20.0, 0.01)
        hw = HardwareParams(0.999, 0.1)
        cfg = ProtocolConfig(1280.0, 20.0, CODES["[3,1,3]"], 2, hw, channel=ch, attenuation_km=30.0)
        eta = transmittance(20.0, 30.0)
        assert cfg.segment_transmittance() == eta
        assert cfg.raw_fidelity() == initial_fidelity(20.0, 0.01, eta)
        pinned = with_fidelity(cfg, 0.9)
        assert pinned.fidelity == 0.9
        assert pinned.channel is None
        assert pinned.attenuation_km == 30.0
        assert pinned.segment_transmittance() == eta


class TestTiming:
    def test_windows(self):
        tm = timing(make_cfg(rounds=2))
        assert tm.t0_s == pytest.approx(2e-4, rel=1e-12)
        assert tm.t_purify_s == pytest.approx(4e-4, rel=1e-12)
        assert tm.t_half_s == pytest.approx(3e-4, rel=1e-12)
        assert tm._fields == ("t0_s", "t_purify_s", "t_half_s")

    def test_k0(self):
        tm = timing(make_cfg(rounds=0))
        assert tm.t_purify_s == pytest.approx(tm.t0_s, rel=1e-12)
        assert tm.t_half_s == pytest.approx(tm.t0_s / 2.0, rel=1e-12)

    def test_segment_count_is_num_segments(self):
        # L / L0 = 64.0000000005 is within the constructor's 1e-9 of 64
        for cfg in [*catalog_grid(), make_cfg(total=1280.0 + 1e-8), make_cfg(total=0.6, segment=0.3)]:
            n = cfg.num_segments()
            assert type(n) is int and n >= 2 and n & (n - 1) == 0
            assert n == pytest.approx(cfg.total_distance_km / cfg.segment_km, rel=1e-9)


# the CLI's default point, and the qubus channel that TestConfig uses
_DEFAULT_POINT = dict(
    total_distance_km=1280.0, segment_km=20.0, attenuation_km=25.5, fidelity=0.95, local_transmission=0.999,
    memory_coherence_s=0.1, fiber_speed_m_per_s=2e8, qubus_strength=20.0, interaction_angle_rad=0.01,
    code="[3,1,3]", rounds=2,
)
# ProtocolConfig's float fields, the fiber speed among them, and those of its
# hardware and channel, each over its own range as st.floats draws it,
# subnormals and the float maximum included, or at its default
_FIELD_FLOATS = {
    "segment_km": st.floats(0.0, exclude_min=True),
    "attenuation_km": st.floats(0.0, exclude_min=True),
    "fidelity": st.floats(0.5, 1.0, exclude_min=True),
    "local_transmission": st.floats(0.0, 1.0, exclude_min=True),
    "memory_coherence_s": st.floats(0.0, exclude_min=True),
    "fiber_speed_m_per_s": st.floats(0.0, exclude_min=True),
    "qubus_strength": st.floats(0.0),
    "interaction_angle_rad": st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
}
# the names a constructor error may cite
_FIELD_NAMES = {*ProtocolConfig._fields, *HardwareParams._fields, *ChannelParams._fields}


@st.composite
def _points(draw):
    """One config's arguments; total_distance_km is segment_km times a power
    of two, and at most one float field is drawn from every float instead."""
    point = {name: draw(floats | st.just(_DEFAULT_POINT[name])) for name, floats in _FIELD_FLOATS.items()}
    point["total_distance_km"] = point["segment_km"] * draw(st.sampled_from([2, 4, 64, 2**40]))
    point.update(code=draw(st.sampled_from(sorted(CODES))), rounds=draw(st.integers(0, 3) | st.just(MAX_ROUNDS)))
    point["qubus_strength" if draw(st.booleans()) else "fidelity"] = None
    wild = draw(st.none() | st.sampled_from([k for k, v in point.items() if type(v) is float]))
    if wild is not None:
        point[wild] = draw(st.floats())
    return point


def _point(**changes):
    """The default point with a direct fidelity, with ``changes``."""
    return {**_DEFAULT_POINT, "qubus_strength": None, **changes}


def _channel_point(**changes):
    """The default point on the qubus channel, with ``changes``."""
    return {**_DEFAULT_POINT, "fidelity": None, **changes}


class TestAcceptedDomain:
    @settings(max_examples=300, deadline=None)
    @given(_points())
    # a subnormal T0 once gave an infinite rate, and T0 = 0 an error row
    # that named no field
    @example(_point(code="[1,1,1]", rounds=0, segment_km=1e-4, total_distance_km=2e-4, fiber_speed_m_per_s=1e308))
    @example(_point(rounds=1, segment_km=1e-6, total_distance_km=2e-6, fiber_speed_m_per_s=1.7e308))
    @example(_point(segment_km=1e-320, total_distance_km=2e-320, attenuation_km=1e-320))
    # a transmittance of 1 or 0, a saturated gate error and an infinite
    # probe once gave error rows that named no field
    @example(_point(segment_km=1e-15, total_distance_km=2e-15))
    @example(_point(segment_km=20000.0, total_distance_km=40000.0))
    @example(_channel_point(attenuation_km=1e-300))
    @example(_point(local_transmission=1e-3))
    @example(_channel_point(qubus_strength=math.inf))
    # a NaN attenuation length on either route (tests/test_refusals.py
    # pins its message, attenuation_km must be > 0, got nan)
    @example(_channel_point(attenuation_km=math.nan))
    @example(_point(attenuation_km=math.nan))
    # an overflowing pump window, which the rate rule alone rejects
    @example(_point(rounds=0, fiber_speed_m_per_s=1e-308))
    @example(_point(rounds=MAX_ROUNDS, fiber_speed_m_per_s=1e-308))
    # a speed that is not finite and > 0, which the clock rule alone refuses
    @example(_point(fiber_speed_m_per_s=0.0))
    @example(_channel_point(fiber_speed_m_per_s=math.inf))
    @example(_point(rounds=MAX_ROUNDS, fiber_speed_m_per_s=math.nan))
    def test_config_ends_in_a_named_error_an_error_row_or_finite_numbers(self, point):
        point = dict(point, code=CODES[point["code"]])
        hardware = [point.pop(name) for name in HardwareParams._fields]
        qubus = point.pop("qubus_strength"), point.pop("interaction_angle_rad")
        try:
            if point["fidelity"] is None:
                point["channel"] = ChannelParams(point["segment_km"], *qubus)
            cfg = ProtocolConfig(hardware=HardwareParams(*hardware), **point)
        except ValueError as exc:
            assert any(name in str(exc) for name in _FIELD_NAMES), str(exc)
            return
        # accepted: positive, finite windows, and a row that never raises nor
        # blames the transmittance or the gate error, both checked above
        tm = timing(cfg)
        assert 0.0 < tm.t0_s <= tm.t_purify_s < math.inf
        assert 0.0 < tm.t_half_s < math.inf
        assert 0.0 < cfg.segment_transmittance() < 1.0
        assert gate_error_prob(cfg.hardware.local_transmission) < 0.5
        row = evaluate(cfg)
        assert not (row.error or "").startswith(("eta", "q_g")), row.error
        if row.error is None:
            numbers = (row.f, row.f_final, row.p0, row.p_k, row.rate_per_memory_hz)
            assert all(map(math.isfinite, numbers)), row


# 10^e across the float range, the largest float, the smallest subnormal and
# the smallest normal
_DECADES = [10.0**e for e in range(-323, 309, 10)] + [sys.float_info.max, 5e-324, sys.float_info.min]
# one catalog code per block size n
_CODES_BY_N = list({code.n: code for code in CODES.values()}.values())
_CLOCK_ERROR = "segment_km / fiber_speed_m_per_s must give a finite storage window and rate"


def test_one_clock_rule_rejects_every_overflowing_window():
    # the constructor checks only the largest rate; wherever the pump window
    # t_k or the css window t'_k overflows, that rule must reject the config,
    # and it must reject nothing else that has finite windows and a finite,
    # positive largest rate
    overflowing, hardware = 0, HardwareParams(0.999, 0.1)
    for fiber_speed in _DECADES:
        for segment_km in _DECADES:
            if 2.0 * segment_km == math.inf:  # no power-of-two line is finite
                continue
            t0 = 2.0 * segment_km * 1e3 / fiber_speed
            for k in (0, 1, 2, MAX_ROUNDS):
                t_k, t_half = (k / 2.0 + 1.0) * t0, (k + 1.0) * t0 / 2.0
                for code in _CODES_BY_N:
                    try:  # the largest rate, at P0 P_k = 1 + 1e-12
                        top = (1.0 + 1e-12) / (code.n * 2.0**k * (k / 2.0 + 1.0) * t0)
                    except ZeroDivisionError:
                        top = math.inf
                    window_overflows = math.inf in (t_k, t_half)
                    overflowing += window_overflows
                    try:
                        ProtocolConfig(
                            2.0 * segment_km, segment_km, code, k, hardware, fidelity=0.95,
                            fiber_speed_m_per_s=fiber_speed,
                        )
                    except ValueError as exc:
                        if str(exc).startswith(_CLOCK_ERROR):
                            assert window_overflows or not 0.0 < top < math.inf
                            continue
                        assert str(exc).startswith("segment_km / attenuation_km"), str(exc)
                    assert not window_overflows and 0.0 < top < math.inf
    assert overflowing > 10_000


class TestFinalFidelity:
    def test_perfect_hardware_is_lossless(self):
        cfg = make_cfg(tau_c=math.inf, one_minus_t=0.0, fidelity=1.0)
        assert final_fidelity(cfg) == pytest.approx(1.0, abs=1e-12)

    def test_gate_loss_exponent(self):
        # pure gate loss at n=3, N=64, k=2: exponent 2*3*(63 + 6) = 414
        cfg = make_cfg(tau_c=math.inf, one_minus_t=1e-3, fidelity=1.0, rounds=2)
        q_g = gate_error_prob(cfg.hardware.local_transmission)
        assert final_fidelity(cfg) == pytest.approx((1.0 - q_g) ** 414, rel=1e-12)

    def test_unencoded_k0_is_pure_swap_degradation(self):
        # with perfect hardware the pipeline is the bare swap recursion
        for f in (0.7, 0.85, 0.95, 0.999):
            cfg = make_cfg("[1,1,1]", rounds=0, tau_c=math.inf, one_minus_t=0.0, fidelity=f)
            state = BellDiagonal(f, 1.0 - f, 0.0, 0.0)
            for _ in range(6):  # log2(64)
                state = swap_ideal(state)
            assert final_fidelity(cfg) == pytest.approx(state.a, rel=1e-12)

    def test_pump_rounds_use_ideal_recursion(self):
        cfg = make_cfg(rounds=2, tau_c=math.inf, one_minus_t=0.0, fidelity=0.9)
        state = BellDiagonal(0.9, 0.0, 0.1, 0.0)  # P_n = 1 at q_eff = 0
        for _ in range(2):
            state = purify_ideal(state).state
        for _ in range(6):
            state = swap_ideal(state)
        assert final_fidelity(cfg) == pytest.approx(state.a, rel=1e-12)

    def test_monotone_in_raw_fidelity(self):
        for label in ("[3,1,3]", "[7,1,3]"):
            cfg = make_cfg(label)
            grid = np.linspace(0.55, 1.0 - 1e-9, 40)
            vals = [final_fidelity(with_fidelity(cfg, float(f))) for f in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        code=st.sampled_from(code_catalog()),
        k=st.sampled_from([0, 1, 2, 3, 5]),
        tau_c=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
        one_minus_t=st.floats(-6.0, -1.0).map(lambda e: 10.0**e),
        f=st.floats(_F_LO, 1.0),
        step=st.floats(-15.0, -1.0).map(lambda e: 10.0**e),
    )
    def test_no_step_down_in_raw_fidelity(self, code, k, tau_c, one_minus_t, f, step):
        # the solver's bisection rests on this; rounding may step down by
        # about 1e-14, so the strict test above keeps to a coarse grid
        cfg = make_cfg(code.label, k, tau_c, one_minus_t, fidelity=f)
        up = min(max(f + step, math.nextafter(f, 2.0)), 1.0)
        assert final_fidelity(with_fidelity(cfg, up)) >= final_fidelity(cfg) - 1e-13

    @pytest.mark.parametrize("axis", ["tau_c", "one_minus_t"])
    def test_monotone_in_hardware(self, axis):
        # F_final and the rate never fall with tau_c and never rise with 1 - T,
        # up to rounding: an ulp-level step of the rate is not a rise
        sweeps = {
            "tau_c": [10.0 ** (e / 4.0) for e in range(-12, 9)],        # 1e-3 .. 100 s
            "one_minus_t": [10.0 ** (-e / 4.0) for e in range(24, 3, -1)],  # 1e-6 .. 0.1
        }
        others = {"tau_c": (1e-5, 1e-3), "one_minus_t": (0.01, 1.0)}
        other_axis = "one_minus_t" if axis == "tau_c" else "tau_c"
        for code in code_catalog():
            for k in range(4):
                for f in (0.7, 0.9, 0.99):
                    for other in others[axis]:
                        rows = [
                            evaluate(make_cfg(code.label, k, fidelity=f, **{axis: x, other_axis: other}))
                            for x in sweeps[axis]
                        ]
                        assert all(r.error is None for r in rows)
                        if axis == "one_minus_t":
                            rows.reverse()  # so that the hardware gets better along the list
                        for worse, better in zip(rows, rows[1:]):
                            for name in ("f_final", "rate_per_memory_hz"):
                                low = getattr(worse, name)
                                assert getattr(better, name) >= low * (1.0 - 1e-12), (code.label, k, f, other, name)

    def test_css_point(self):
        # frozen: Steane code end-to-end at the default hardware point
        cfg = make_cfg("[7,1,3]", rounds=2, tau_c=0.1, one_minus_t=1e-3, fidelity=1.0 - 1e-9)
        assert final_fidelity(cfg) == pytest.approx(0.9260109135912726, rel=1e-9)


REPETITION = [c for c in code_catalog() if c.family == "repetition"]
# (code, k) -> log2 of the first N whose row errors at F = 0.9, tau_c = 0.1 s,
# T = 0.999 and L0 = 20 km; None: no row errors up to N = 2^63
FIRST_ERRORED_LEVEL = {
    ("[1,1,1]", 0): 14,
    ("[1,1,1]", 2): 13,
    ("[3,1,3]", 0): 15,
    ("[3,1,3]", 2): 15,
    ("[7,1,7]", 0): None,
    ("[7,1,7]", 2): 12,
    ("[51,1,51]", 0): 17,
    ("[51,1,51]", 2): 16,
}


def kernel_chain(cfg):
    """(F_final, P_k) of a repetition row, composed one public kernel call per step."""
    code, k, tm = cfg.code, cfg.rounds, timing(cfg)
    q_g = gate_error_prob(cfg.hardware.local_transmission)
    q_m = memory_error_prob(tm.t_purify_s / 2.0, cfg.hardware.memory_coherence_s)
    state = effective_coefficients(cfg.fidelity, pair_no_error_prob(logical_error_prob(code, q_m)))
    p_chain = 1.0
    for _ in range(k):
        step = purify_ideal(state)
        state, p_chain = step.state, p_chain * step.success_prob
    p_k = PurifyOutcome(state, p_chain * (1.0 - q_g) ** charge_exponent(code.n, k, 0)).success_prob
    for _ in range(cfg.num_segments().bit_length() - 1):
        state = swap_ideal(state)
    return state.a * (1.0 - q_g) ** charge_exponent(code.n, k, cfg.num_segments() - 1), p_k


class TestRepetitionChain:
    @settings(max_examples=300, deadline=None)
    @given(
        code=st.sampled_from(REPETITION),
        k=st.integers(0, 3),
        levels=st.integers(1, 20),
        segment=st.sampled_from([10.0, 20.0, 40.0]),
        tau_c=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
        one_minus_t=st.one_of(st.just(0.0), st.floats(-6.0, -1.0).map(lambda e: 10.0**e)),
        f=st.floats(0.5, 1.0, exclude_min=True),
    )
    def test_chain_is_the_public_kernels_step_by_step(self, code, k, levels, segment, tau_c, one_minus_t, f):
        cfg = make_cfg(code.label, k, tau_c, one_minus_t, fidelity=f, total=segment * 2**levels, segment=segment)
        row = evaluate(cfg)
        try:
            want = kernel_chain(cfg)
        except (ValueError, ArithmeticError) as exc:
            assert row.error == str(exc)
            for fn in (final_fidelity, pump_success_probability):
                with pytest.raises(type(exc)) as info:
                    fn(cfg)
                assert str(info.value) == str(exc)
            return
        want = tuple(v.hex() for v in want)
        assert row.error is None
        assert (row.f_final.hex(), row.p_k.hex()) == want
        assert (final_fidelity(cfg).hex(), pump_success_probability(cfg).hex()) == want

    def test_deep_ladder_error_row(self):
        row = evaluate(make_cfg("[3,1,3]", 2, 0.1, 1e-3, fidelity=0.9, total=20.0 * 2**15))
        assert row.error == "coefficients must sum to <= 1, got 1.0000000000010947"

    @pytest.mark.parametrize("label, k", list(FIRST_ERRORED_LEVEL))
    def test_first_errored_ladder_depth(self, label, k):
        # the swap ladder roughly doubles the rounding in the coefficient sum
        # per level; each level is checked, so every deeper row stops at the
        # same level with the same message
        cfgs = [make_cfg(label, k, 0.1, 1e-3, fidelity=0.9, total=20.0 * 2**lv) for lv in range(1, 64)]
        errors = [evaluate(cfg).error for cfg in cfgs]
        first = next((lv for lv, error in enumerate(errors, 1) if error is not None), None)
        assert first == FIRST_ERRORED_LEVEL[label, k]
        if first is not None:
            assert set(errors[first - 1:]) == {errors[first - 1]}
            assert errors[first - 1].startswith("coefficients must sum to <= 1, got 1.00000000000")


CSS = [c for c in code_catalog() if c.family == "css"]


def css_kernel_chain(cfg):
    """(F_final, P_k) of a css row, composed one public kernel call per step."""
    code, k, tm = cfg.code, cfg.rounds, timing(cfg)
    q_g = gate_error_prob(cfg.hardware.local_transmission)
    q_m = memory_error_prob(tm.t_half_s / 2.0, cfg.hardware.memory_coherence_s)
    state = BellDiagonal(cfg.fidelity, 1.0 - cfg.fidelity, 0.0, 0.0)
    p_chain = 1.0
    for _ in range(k):
        step = purify_imperfect_exact(state, q_g)
        state, p_chain = step.state, p_chain * step.success_prob
    q_eff, _clamped = css_effective_qubit_error(q_m, q_g, state.a)
    return (1.0 - logical_error_prob(code, q_eff)) ** (2 * cfg.num_segments()), p_chain


class TestCssChain:
    @settings(max_examples=300, deadline=None)
    @given(
        code=st.sampled_from(CSS),
        k=st.integers(0, 3),
        levels=st.integers(1, 12),
        segment=st.sampled_from([10.0, 20.0, 40.0]),
        tau_c=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
        one_minus_t=st.one_of(st.just(0.0), st.floats(-6.0, -1.0).map(lambda e: 10.0**e)),
        f=st.floats(0.5, 1.0, exclude_min=True),
    )
    # 3 q_m + 2 q_g + (1 - F_1) = 1.031: q_eff is clamped to 1
    @example(code=CSS[0], k=1, levels=1, segment=40.0, tau_c=1e-3, one_minus_t=0.1, f=0.51)
    def test_chain_is_the_public_kernels_step_by_step(self, code, k, levels, segment, tau_c, one_minus_t, f):
        cfg = make_cfg(code.label, k, tau_c, one_minus_t, fidelity=f, total=segment * 2**levels, segment=segment)
        row = evaluate(cfg)
        try:
            want = css_kernel_chain(cfg)
        except (ValueError, ArithmeticError) as exc:
            assert row.error == str(exc)
            for fn in (final_fidelity, pump_success_probability):
                with pytest.raises(type(exc)) as info:
                    fn(cfg)
                assert str(info.value) == str(exc)
            return
        want = tuple(v.hex() for v in want)
        assert row.error is None
        assert (row.f_final.hex(), row.p_k.hex()) == want
        assert (final_fidelity(cfg).hex(), pump_success_probability(cfg).hex()) == want

    @pytest.mark.parametrize("f_k", [1.0000000000000002, -1e-300, math.nan])
    def test_an_f_k_out_of_range_raises_the_public_message(self, monkeypatch, f_k):
        # no accepted config pumps F_k out of [0, 1], so the pump is replaced
        # by one that returns f_k; the price raises css_effective_qubit_error's message
        cfg = make_cfg("[7,1,3]", 2)
        tm = timing(cfg)
        q_m = memory_error_prob(tm.t_half_s / 2.0, cfg.hardware.memory_coherence_s)
        with pytest.raises(ValueError) as want:
            css_effective_qubit_error(q_m, gate_error_prob(cfg.hardware.local_transmission), f_k)
        monkeypatch.setattr(pipeline, "_pump_noisy", lambda *args: (f_k, 0.0, 0.0, 0.0, 1.0))
        for fn in (final_fidelity, pump_success_probability):
            with pytest.raises(ValueError) as got:
                fn(cfg)
            assert str(got.value) == str(want.value) == f"f_k must lie in [0, 1], got {f_k}"
        assert evaluate(cfg).error == str(want.value)

    @pytest.mark.parametrize("label", list(CODES))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_saturated_gate_error_is_refused_at_every_k(self, label, k):
        # T = 1e-3 (1 - T = 0.999) rounds q_g to 1/2, which HardwareParams
        # refuses, so no chain sees it; at 1 - T = 0.998, q_g is within 1e-15
        # of 1/2, and both families price a row at every k
        assert gate_error_prob(1.0 - 0.999) == 0.5
        with pytest.raises(
            ValueError, match=r"^local_transmission must give a gate error below 1/2, got 0\.0010000000000000009$"
        ):
            make_cfg(label, k, one_minus_t=0.999)
        cfg = make_cfg(label, k, one_minus_t=0.998)
        assert 0.5 - 1e-15 < gate_error_prob(cfg.hardware.local_transmission) < 0.5
        row = evaluate(cfg)
        assert row.error is None and 0.0 <= row.f_final < 1.0 and 0.0 < row.rate_per_memory_hz < math.inf


class TestRates:
    def test_unpurified_paper_point(self):
        cfg = make_cfg(rounds=0)
        assert heralding_probability(cfg) == pytest.approx(0.08467045913848248, rel=1e-12)
        assert rate_unpurified(cfg) == pytest.approx(141.1174318974708, rel=1e-12)
        # quoted: 0.08468 / (3 * 2e-4) = 141.1 Hz
        assert rate_unpurified(cfg) == pytest.approx(141.1, abs=0.1)

    def test_purified_denominator(self):
        # k=2, n=3: denominator n 2^k (k/2+1) T0 = 4.8e-3 s
        cfg = make_cfg(rounds=2)
        expected = heralding_probability(cfg) * pump_success_probability(cfg) / 4.8e-3
        assert rate_purified(cfg) == pytest.approx(expected, rel=1e-12)

    def test_pump_tree_discount(self):
        # R_pur <= R_raw / (2^k (k/2 + 1)) since P_k <= 1
        for label in ("[3,1,3]", "[7,1,3]", "[23,1,7]"):
            for k in (1, 2, 3):
                cfg = make_cfg(label, rounds=k)
                bound = rate_unpurified(cfg) / (2**k * (k / 2.0 + 1.0))
                assert rate_purified(cfg) <= bound + 1e-15

    def test_pump_probability_k0(self):
        assert pump_success_probability(make_cfg(rounds=0)) == 1.0


class TestOperatingPoint:
    def test_repetition_three(self):
        op = operating_point(make_cfg("[3,1,3]", tau_c=0.01, one_minus_t=1e-4), 0.95)
        assert op.feasible
        assert op.operating_fidelity == pytest.approx(0.9147950914555665, abs=2e-4)
        assert op.result.rate_per_memory_hz == pytest.approx(24.99706520396988, rel=1e-3)
        # the found point overshoots the target by < bisection resolution
        assert 0.95 <= op.result.f_final < 0.9502

    def test_golay(self):
        op = operating_point(make_cfg("[23,1,7]", tau_c=0.1, one_minus_t=1e-3), 0.95)
        assert op.feasible
        assert op.result.rate_per_memory_hz == pytest.approx(6.009450172268023, rel=1e-3)

    def test_steane(self):
        op = operating_point(make_cfg("[7,1,3]", tau_c=1.0, one_minus_t=1e-3), 0.95)
        assert op.feasible
        assert op.result.rate_per_memory_hz == pytest.approx(14.276364565979504, rel=1e-3)

    def test_infeasible_reports_max(self):
        op = operating_point(make_cfg("[1,1,1]", rounds=0), 0.9)
        assert not op.feasible
        assert op.operating_fidelity is None
        assert op.max_f_final == pytest.approx(0.8513565623926452, rel=1e-9)


# the operating-point map: every catalog code at k = 0..3 solved for
# F_final >= 0.95 in each (tau_c, 1 - T) cell, L = 1280 km, L0 = 20 km
MAP_TAU_C = (0.01, 0.1, 1.0, 10.0)
MAP_ONE_MINUS_T = (1e-5, 1e-4, 1e-3, 1e-2)
MAP_TARGET = 0.95
# rate-maximising (code, k) of each cell; None where no solve is feasible
MAP_WINNERS = {
    (0.01, 1e-5): ("[1,1,1]", 3),
    (0.01, 1e-4): ("[1,1,1]", 3),
    (0.01, 1e-3): ("[23,1,7]", 0),
    (0.01, 1e-2): None,
    (0.1, 1e-5): ("[1,1,1]", 2),
    (0.1, 1e-4): ("[1,1,1]", 2),
    (0.1, 1e-3): ("[23,1,7]", 1),
    (0.1, 1e-2): None,
    (1.0, 1e-5): ("[1,1,1]", 2),
    (1.0, 1e-4): ("[1,1,1]", 2),
    (1.0, 1e-3): ("[7,1,3]", 2),
    (1.0, 1e-2): None,
    (10.0, 1e-5): ("[1,1,1]", 2),
    (10.0, 1e-4): ("[1,1,1]", 2),
    (10.0, 1e-3): ("[7,1,3]", 2),
    (10.0, 1e-2): None,
}
# (L0, alpha, theta, attenuation, code, k, target): channel-route solves
CHANNEL_SOLVES = [
    (20.0, 20.0, 0.01, 25.5, "[3,1,3]", 2, 0.95),
    (20.0, 20.0, 0.01, 30.0, "[7,1,3]", 2, 0.9),
    (10.0, 200.0, 0.01, 25.5, "[23,1,7]", 1, 0.95),
    (10.0, 200.0, 0.01, 25.5, "[1,1,1]", 0, 0.99),
    (40.0, 5.0, 0.05, 20.0, "[25,1,5]", 3, 0.8),
]


# (config, target): a solve whose lower bracket already meets the target
# (hi = lo), and a feasible solve at L0 = 1e-14 km, the shortest decade whose
# transmittance stays below 1, where P0 rounds to 1
EDGE_SOLVES = [
    (make_cfg("[1,1,1]", 0, 1.0, 1e-5, total=40.0), 0.3),
    (ProtocolConfig(2e-14, 1e-14, CODES["[3,1,3]"], 1, HardwareParams(0.999, 0.1), fidelity=0.9), 0.9),
]


def map_configs():
    """{(tau_c, 1 - T): [(code label, k, ProtocolConfig), ...]} over the map."""
    return {
        (tau_c, omt): [
            (code.label, k, make_cfg(code.label, k, tau_c, omt)) for code in code_catalog() for k in range(4)
        ]
        for tau_c in MAP_TAU_C
        for omt in MAP_ONE_MINUS_T
    }


def solve_map():
    """{(tau_c, 1 - T): [(code label, k, OperatingPoint), ...]} over the map."""
    return {
        cell: [(label, k, operating_point(cfg, MAP_TARGET)) for label, k, cfg in cfgs]
        for cell, cfgs in map_configs().items()
    }


def channel_solve_cfg(seg, alpha, theta, att, label, k):
    """A CHANNEL_SOLVES config: N = 8, the qubus channel over the config's attenuation length."""
    ch = ChannelParams(seg, alpha, theta)
    return ProtocolConfig(8 * seg, seg, CODES[label], k, HardwareParams(0.999, 0.1), channel=ch, attenuation_km=att)


class TestOperatingPointMap:
    def test_map_frozen(self):
        # SUITES["map"] pins every solve bit for bit
        cells = solve_map()
        assert sum(len(s) for s in cells.values()) == 448
        assert sum(op.feasible for s in cells.values() for _, _, op in s) == 189

    def test_one_chain_per_solve(self, monkeypatch):
        # the returned row comes from the bisection's chain: no second chain,
        # no evaluate and no with_fidelity copy of the config per solve
        calls = collections.Counter()

        def counted(name):
            fn = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("_chain", "evaluate", "with_fidelity"):
            monkeypatch.setattr(pipeline, name, counted(name))
        solves = sum(len(s) for s in solve_map().values())
        assert (calls["_chain"], calls["evaluate"], calls["with_fidelity"]) == (solves, 0, 0)

    def test_solutions_are_tight(self):
        # F* - _F_TOL misses the target, unless F* is the lower bracket
        checked = 0
        for (tau_c, omt), solves in solve_map().items():
            for label, k, op in solves:
                if not op.feasible or op.operating_fidelity == _F_LO:
                    continue
                below = max(op.operating_fidelity - _F_TOL, _F_LO)
                cfg = make_cfg(label, k, tau_c, omt, fidelity=below)
                assert final_fidelity(cfg) < MAP_TARGET, (tau_c, omt, label, k)
                checked += 1
        assert checked > 0

    def test_rate_winner_per_cell(self):
        winners = {}
        for cell, solves in solve_map().items():
            feasible = [(op.result.rate_per_memory_hz, label, k) for label, k, op in solves if op.feasible]
            # max keeps the first of equal rates: catalog order, then k
            best = max(feasible, key=lambda t: t[0], default=None)
            winners[cell] = None if best is None else best[1:]
        assert winners == MAP_WINNERS

    @pytest.mark.parametrize("seg, alpha, theta, att, label, k, target", CHANNEL_SOLVES)
    def test_channel_solve_matches_fidelity_twin(self, seg, alpha, theta, att, label, k, target):
        cfg = channel_solve_cfg(seg, alpha, theta, att, label, k)
        twin = with_fidelity(cfg, cfg.raw_fidelity())
        assert operating_point(cfg, target) == operating_point(twin, target)

    @pytest.mark.parametrize("seg, alpha, theta, att, label, k, target", CHANNEL_SOLVES)
    def test_channel_f_and_p0_read_one_transmittance(self, seg, alpha, theta, att, label, k, target):
        # bit for bit: the channel's F and the row's P0 both read the
        # config's segment_transmittance
        cfg = channel_solve_cfg(seg, alpha, theta, att, label, k)
        eta = cfg.segment_transmittance()
        assert eta == transmittance(seg, att)
        assert cfg.raw_fidelity() == initial_fidelity(alpha, theta, eta)
        row = evaluate(cfg)
        assert row.error is None, row.error
        assert row.f == cfg.raw_fidelity()
        assert row.p0 == success_probability(row.f, eta)

    def test_edge_solves(self):
        (lower, lower_target), (short, short_target) = EDGE_SOLVES
        assert operating_point(lower, lower_target).operating_fidelity == _F_LO
        op = operating_point(short, short_target)
        assert op.feasible
        assert op.operating_fidelity == pytest.approx(0.8204959638, abs=1e-10)
        assert (op.result.error, op.result.p0) == (None, 1.0)
        assert math.isfinite(op.result.rate_per_memory_hz)
        # ten times shorter, the transmittance rounds to 1, where P0 is
        # undefined: the config is refused before any solve
        with pytest.raises(
            ValueError,
            match=r"^segment_km / attenuation_km must give a transmittance in \(0, 1\), "
            r"got segment_km=1e-15, attenuation_km=25\.5$",
        ):
            short._replace(total_distance_km=2e-15, segment_km=1e-15)

    def test_row_is_evaluate_at_the_solution(self):
        # each returned row, of the map and of the channel and edge solves,
        # is a fresh evaluate at F*, or at the upper bracket when infeasible.
        # The config's checks leave P0 and the rate nothing to fail on at an f
        # in (1/2, 1), so no returned row is an error row, and none holds a NaN
        solves = [(cfg, MAP_TARGET) for cfgs in map_configs().values() for _, _, cfg in cfgs]
        solves += [(channel_solve_cfg(*case[:-1]), case[-1]) for case in CHANNEL_SOLVES]
        for cfg, target in solves + EDGE_SOLVES:
            op = operating_point(cfg, target)
            f = op.operating_fidelity if op.feasible else _F_HI
            assert op.result.error is None, (cfg, target)
            assert op.result == evaluate(with_fidelity(cfg, f)), (cfg, target)


class TestSweep:
    def test_rows_in_order(self):
        cfgs = [c for c in catalog_grid() if c.fidelity is not None]
        rows = sweep(cfgs)
        assert [(r.code_label, r.rounds) for r in rows] == [(c.code.label, c.rounds) for c in cfgs]
        assert all(r.error is None for r in rows)
        for cfg, row in zip(cfgs, rows):
            rate = rate_purified(cfg) if cfg.rounds > 0 else rate_unpurified(cfg)
            assert row.f_final == final_fidelity(cfg)
            assert row.p_k == pump_success_probability(cfg)
            assert row.rate_per_memory_hz == rate

    def test_catalog_grid_frozen(self):
        # SUITES["catalog"] pins every reported number and window bit for
        # bit; errored rows keep their messages
        rows = sweep(catalog_grid())
        assert len(rows) == 144
        assert [r.error for r in rows if r.error is not None] == [
            "fidelity must lie in (1/2, 1], got 0.5"
        ] * 2

    def test_empty(self):
        assert sweep([]) == []

    def test_row_fields(self):
        row = evaluate(make_cfg("[23,1,7]"))
        assert row.family == "css"
        assert row.rounds == 2
        assert row.tau_c_s == 0.1
        assert row.one_minus_t == pytest.approx(1e-3, rel=1e-9)
        # the row holds no window (13 fields): timing owns them, and a css
        # code stores over t'_k, a repetition code over t_k
        assert row._fields == ROW_FIELDS
        assert timing(make_cfg("[23,1,7]")).t_half_s == pytest.approx(3e-4, rel=1e-12)
        assert timing(make_cfg("[3,1,3]")).t_purify_s == pytest.approx(4e-4, rel=1e-12)
