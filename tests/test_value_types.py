"""The value types: repr, validation messages, immutability, value semantics.

BellDiagonal, PurifyOutcome, Code, ChannelParams, HardwareParams,
ProtocolConfig, OperatingPoint and the numpy-side DensityMatrix,
VariantReport, McConfig and QubusPlan are NamedTuples.  They print, compare
and hash by value, refuse assignment, take keywords with their defaults,
and fail every rule their constructor enforces with one exact message, in
``_replace`` and ``_make`` too.  Those whose fields cannot be hashed (an
ndarray, a dict) are left out of the hash tests.
"""

import ast
import inspect
import math

import numpy as np
import pytest

from repeaterlab.bell_algebra import BellDiagonal, PurifyOutcome
from repeaterlab.codes import Code
from repeaterlab.core import (
    ATTENUATION_LENGTH_KM,
    FIBER_SPEED_M_PER_S,
    ChannelParams,
    HardwareParams,
)
from repeaterlab.montecarlo import McConfig
from repeaterlab.oracle import DensityMatrix, GateErrorVariant, VariantReport
from repeaterlab.pipeline import OperatingPoint, ProtocolConfig, SweepResult, operating_point, with_fidelity
from repeaterlab.qubus import QubusPlan
from test_imports import trees

STATE = (0.9, 0.05, 0.03, 0.02)
REP = (3, 3, "repetition")
HW = (0.999, 0.1)
CHANNEL = (20.0, 0.001, 0.01)
MC = (0.5, 4096, 2, 200)
ROWS = ((GateErrorVariant.ZZ_BEFORE, 0.25), (GateErrorVariant.ZCXT_AFTER, 0.0))
LEDGER = {"00": 0.0, "01": 0.1, "10": -0.1, "11": 0.0}


def _cfg(**kw):
    args = dict(
        total_distance_km=1280.0, segment_km=20.0, code=Code(*REP), rounds=2,
        hardware=HardwareParams(*HW), fidelity=0.95,
    )
    return ProtocolConfig(**{**args, **kw})


def _channel_cfg(**kw):
    return _cfg(code=Code(7, 3, "css"), rounds=1, fidelity=None, channel=ChannelParams(*CHANNEL), **kw)


def _solve():
    # a feasible solve: [3,1,3] at k = 2 reaches 0.9 from F* = 0.8436
    return operating_point(_cfg(hardware=HardwareParams(0.9999, 1.0)), 0.9)


# one typical instance of each type, built fresh per call
INSTANCES = {
    "BellDiagonal": lambda: BellDiagonal(*STATE),
    "PurifyOutcome": lambda: PurifyOutcome(BellDiagonal(*STATE), 0.8528),
    "Code": lambda: Code(*REP),
    "ChannelParams": lambda: ChannelParams(*CHANNEL),
    "HardwareParams": lambda: HardwareParams(*HW),
    "ProtocolConfig": _cfg,
    "ProtocolConfig-channel": _channel_cfg,
    "OperatingPoint": _solve,
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2.0),
    "VariantReport": lambda: VariantReport(ROWS),
    "McConfig": lambda: McConfig(*MC, seed=5),
    "QubusPlan": lambda: QubusPlan(2, 0.1, (dict(LEDGER),)),
    "QubusPlan-chained": lambda: QubusPlan(3, 0.1, (dict(LEDGER), dict(LEDGER))),
}
# an ndarray or a dict field makes the value unhashable
UNHASHABLE = {"DensityMatrix", "QubusPlan", "QubusPlan-chained"}

REPRS = {
    "BellDiagonal": "BellDiagonal(a=0.9, b=0.05, c=0.03, d=0.02)",
    "PurifyOutcome": "PurifyOutcome(state=BellDiagonal(a=0.9, b=0.05, c=0.03, d=0.02), success_prob=0.8528)",
    "Code": "Code(n=3, d=3, family='repetition')",
    "ChannelParams": "ChannelParams(segment_length_km=20.0, qubus_strength=0.001, interaction_angle_rad=0.01)",
    "HardwareParams": (
        "HardwareParams(local_transmission=0.999, memory_coherence_s=0.1, fiber_speed_m_per_s=200000000.0)"
    ),
    "ProtocolConfig": (
        "ProtocolConfig(total_distance_km=1280.0, segment_km=20.0, "
        "code=Code(n=3, d=3, family='repetition'), rounds=2, "
        "hardware=HardwareParams(local_transmission=0.999, memory_coherence_s=0.1, "
        "fiber_speed_m_per_s=200000000.0), channel=None, fidelity=0.95, attenuation_km=25.5)"
    ),
    "ProtocolConfig-channel": (
        "ProtocolConfig(total_distance_km=1280.0, segment_km=20.0, "
        "code=Code(n=7, d=3, family='css'), rounds=1, "
        "hardware=HardwareParams(local_transmission=0.999, memory_coherence_s=0.1, "
        "fiber_speed_m_per_s=200000000.0), "
        "channel=ChannelParams(segment_length_km=20.0, qubus_strength=0.001, "
        "interaction_angle_rad=0.01), fidelity=None, attenuation_km=25.5)"
    ),
    "DensityMatrix": "DensityMatrix(matrix=array([[0.5+0.j, 0. +0.j],\n       [0. +0.j, 0.5+0.j]]))",
    "VariantReport": (
        "VariantReport(rows=((<GateErrorVariant.ZZ_BEFORE: 'zz_before'>, 0.25), "
        "(<GateErrorVariant.ZCXT_AFTER: 'z_control_x_target_after'>, 0.0)))"
    ),
    "McConfig": "McConfig(p0=0.5, blocks=4096, rounds=2, trials=200, seed=5)",
    "QubusPlan": "QubusPlan(n=2, theta_rad=0.1, ledgers=({'00': 0.0, '01': 0.1, '10': -0.1, '11': 0.0},))",
    "QubusPlan-chained": (
        "QubusPlan(n=3, theta_rad=0.1, ledgers=("
        "{'00': 0.0, '01': 0.1, '10': -0.1, '11': 0.0}, {'00': 0.0, '01': 0.1, '10': -0.1, '11': 0.0}))"
    ),
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr(name):
    assert repr(INSTANCES[name]()) == REPRS[name]


def test_operating_point_repr():
    op = _solve()
    assert repr(op) == (
        f"OperatingPoint(feasible=True, operating_fidelity={op.operating_fidelity!r}, "
        f"result={op.result!r}, max_f_final={op.max_f_final!r})"
    )
    assert repr(op.result).startswith("SweepResult(code_label='[3,1,3]', family='repetition', rounds=2, ")
    assert op.operating_fidelity == pytest.approx(0.8436, abs=1e-4)


# (constructor call, its exact message), one per rule the constructor enforces
MESSAGES = [
    pytest.param(lambda: BellDiagonal(-0.1, 0.5, 0.3, 0.1), "coefficient a must be >= 0, got -0.1", id="bell-a"),
    pytest.param(lambda: BellDiagonal(0.5, -0.1, 0.3, 0.1), "coefficient b must be >= 0, got -0.1", id="bell-b"),
    pytest.param(lambda: BellDiagonal(0.5, 0.3, -0.1, 0.1), "coefficient c must be >= 0, got -0.1", id="bell-c"),
    pytest.param(lambda: BellDiagonal(0.5, 0.3, 0.1, -0.1), "coefficient d must be >= 0, got -0.1", id="bell-d"),
    pytest.param(lambda: BellDiagonal(0.5, math.nan, 0.0, 0.0), "coefficient b must be >= 0, got nan", id="bell-nan"),
    # the first failing coefficient names itself
    pytest.param(lambda: BellDiagonal(0.5, -1e-13, -0.2, -0.3), "coefficient c must be >= 0, got -0.2", id="bell-first"),
    pytest.param(lambda: BellDiagonal(0.5, 0.5, 0.5, 0.0), "coefficients must sum to <= 1, got 1.5", id="bell-sum"),
    pytest.param(lambda: BellDiagonal(math.inf, 0.0, 0.0, 0.0), "coefficients must sum to <= 1, got inf", id="bell-inf"),
    pytest.param(
        lambda: PurifyOutcome(BellDiagonal(*STATE), 1.5), "success_prob must lie in [0, 1], got 1.5", id="outcome-high"
    ),
    pytest.param(
        lambda: PurifyOutcome(BellDiagonal(*STATE), -0.1), "success_prob must lie in [0, 1], got -0.1", id="outcome-low"
    ),
    pytest.param(
        lambda: PurifyOutcome(BellDiagonal(*STATE), math.nan),
        "success_prob must lie in [0, 1], got nan",
        id="outcome-nan",
    ),
    pytest.param(lambda: Code(3, 5, "css"), "need 1 <= d <= n, got n=3, d=5", id="code-d-high"),
    pytest.param(lambda: Code(3, 0, "css"), "need 1 <= d <= n, got n=3, d=0", id="code-d-low"),
    pytest.param(lambda: Code(4, 2, "css"), "majority decoding needs odd d, got d=2", id="code-even-d"),
    pytest.param(lambda: Code(7, 3, "surface"), "unknown code family 'surface'", id="code-family"),
    pytest.param(
        lambda: Code(7, 3, "repetition"), "repetition codes have d = n, got n=7, d=3", id="code-repetition-d"
    ),
    pytest.param(lambda: Code(7.5, 3, "css"), "code parameter n must be an integer, got 7.5", id="code-n-float"),
    pytest.param(lambda: Code(7, 3.0, "css"), "code parameter d must be an integer, got 3.0", id="code-d-float"),
    pytest.param(
        lambda: Code(True, True, "repetition"), "code parameter n must be an integer, got True", id="code-n-bool"
    ),
    pytest.param(lambda: Code("7", 3, "css"), "code parameter n must be an integer, got '7'", id="code-n-str"),
    # every tail holds C(n, ceil(n/2)), which has no float from n = 1030; a
    # huge n is refused without building one
    pytest.param(lambda: Code(1030, 1029, "css"), "code length n must be at most 1029, got n=1030", id="code-n-1030"),
    pytest.param(
        lambda: Code(1031, 1031, "repetition"), "code length n must be at most 1029, got n=1031", id="code-n-1031"
    ),
    pytest.param(
        lambda: Code(10**100, 1, "css"), f"code length n must be at most 1029, got n={10**100}", id="code-n-huge"
    ),
    # the integer rule runs before the range rules
    pytest.param(lambda: Code(1031, 3.5, "css"), "code parameter d must be an integer, got 3.5", id="code-type-first"),
    pytest.param(
        lambda: ChannelParams(0.0, 0.001, 0.01), "segment_length_km must be > 0, got 0.0", id="channel-segment"
    ),
    pytest.param(
        lambda: ChannelParams(math.nan, 0.001, 0.01), "segment_length_km must be > 0, got nan", id="channel-segment-nan"
    ),
    pytest.param(
        lambda: ChannelParams(20.0, -1.0, 0.01), "qubus_strength must be finite and >= 0, got -1.0",
        id="channel-strength",
    ),
    pytest.param(
        lambda: ChannelParams(20.0, math.inf, 0.01), "qubus_strength must be finite and >= 0, got inf",
        id="channel-strength-inf",
    ),
    pytest.param(
        lambda: ChannelParams(20.0, 0.001, 0.0), "interaction_angle_rad must lie in (0, pi), got 0.0", id="channel-angle-0"
    ),
    pytest.param(
        lambda: ChannelParams(20.0, 0.001, math.pi),
        "interaction_angle_rad must lie in (0, pi), got 3.141592653589793",
        id="channel-angle-pi",
    ),
    pytest.param(
        lambda: ChannelParams(20.0, 0.001, math.nan),
        "interaction_angle_rad must lie in (0, pi), got nan",
        id="channel-angle-nan",
    ),
    pytest.param(
        lambda: HardwareParams(0.0, 0.1), "local_transmission must lie in (0, 1], got 0.0", id="hardware-t-0"
    ),
    pytest.param(
        lambda: HardwareParams(1.5, 0.1), "local_transmission must lie in (0, 1], got 1.5", id="hardware-t-high"
    ),
    # T = 1e-3 rounds the gate error q_g to 1/2
    pytest.param(
        lambda: HardwareParams(1e-3, 0.1), "local_transmission must give a gate error below 1/2, got 0.001",
        id="hardware-gate-error",
    ),
    pytest.param(lambda: HardwareParams(0.999, 0.0), "memory_coherence_s must be > 0, got 0.0", id="hardware-tau"),
    pytest.param(
        lambda: HardwareParams(0.999, 0.1, math.inf),
        "fiber_speed_m_per_s must be finite and > 0, got inf",
        id="hardware-speed-inf",
    ),
    pytest.param(
        lambda: HardwareParams(0.999, 0.1, 0.0),
        "fiber_speed_m_per_s must be finite and > 0, got 0.0",
        id="hardware-speed-0",
    ),
    pytest.param(lambda: _cfg(total_distance_km=0.0), "total_distance_km must be > 0, got 0.0", id="cfg-total"),
    # the first rule broken is the one reported
    pytest.param(
        lambda: _cfg(total_distance_km=-1.0, segment_km=0.0), "total_distance_km must be > 0, got -1.0", id="cfg-first"
    ),
    pytest.param(lambda: _cfg(segment_km=0.0), "segment_km must be > 0, got 0.0", id="cfg-segment"),
    pytest.param(lambda: _cfg(attenuation_km=0.0), "attenuation_km must be > 0, got 0.0", id="cfg-attenuation"),
    pytest.param(lambda: _cfg(attenuation_km=math.nan), "attenuation_km must be > 0, got nan", id="cfg-attenuation-nan"),
    pytest.param(lambda: _cfg(rounds=-1), "rounds must be an integer in [0, 1000], got -1", id="cfg-rounds-low"),
    pytest.param(lambda: _cfg(rounds=1001), "rounds must be an integer in [0, 1000], got 1001", id="cfg-rounds-high"),
    pytest.param(lambda: _cfg(rounds=2.0), "rounds must be an integer in [0, 1000], got 2.0", id="cfg-rounds-float"),
    pytest.param(lambda: _cfg(rounds=True), "rounds must be an integer in [0, 1000], got True", id="cfg-rounds-bool"),
    pytest.param(lambda: _cfg(fidelity=None), "give exactly one of channel= or fidelity=", id="cfg-no-source"),
    pytest.param(
        lambda: _cfg(channel=ChannelParams(*CHANNEL)), "give exactly one of channel= or fidelity=", id="cfg-two-sources"
    ),
    pytest.param(lambda: _cfg(fidelity=0.5), "fidelity must lie in (1/2, 1], got 0.5", id="cfg-fidelity-half"),
    pytest.param(lambda: _cfg(fidelity=1.5), "fidelity must lie in (1/2, 1], got 1.5", id="cfg-fidelity-high"),
    pytest.param(
        lambda: _channel_cfg(segment_km=10.0, total_distance_km=640.0),
        "channel.segment_length_km must equal segment_km, got 20.0 and 10.0",
        id="cfg-channel-segment",
    ),
    # the config owns the one attenuation length, NaN included
    pytest.param(
        lambda: _channel_cfg(attenuation_km=math.nan),
        "attenuation_km must be > 0, got nan",
        id="cfg-channel-attenuation",
    ),
    pytest.param(
        lambda: _cfg(total_distance_km=60.0),
        "total_distance_km / segment_km must be a power of two >= 2, got 3.0",
        id="cfg-ratio-3",
    ),
    pytest.param(
        lambda: _cfg(total_distance_km=20.0),
        "total_distance_km / segment_km must be a power of two >= 2, got 1.0",
        id="cfg-ratio-1",
    ),
    pytest.param(
        lambda: _cfg(total_distance_km=1e308, segment_km=1e-308),
        "total_distance_km / segment_km must be a power of two >= 2, got inf",
        id="cfg-ratio-inf",
    ),
    # after the ratio, one clock rule: the pump window t_k = (k/2 + 1) 2 L0 / c
    # overflows here, and so does the rate's denominator, which the rule checks
    pytest.param(
        lambda: _cfg(hardware=HardwareParams(0.999, 0.1, 1e-308)),
        "segment_km / fiber_speed_m_per_s must give a finite storage window and rate, "
        "got segment_km=20.0, fiber_speed_m_per_s=1e-308",
        id="cfg-pump-window-inf",
    ),
    # t_k = 1.6e308 s is finite; the css window 3 T0 / 2 and the rate's
    # denominator n 2^k (k/2 + 1) T0 are not
    pytest.param(
        lambda: _cfg(code=Code(7, 3, "css"), hardware=HardwareParams(0.999, 0.1, 5e-304)),
        "segment_km / fiber_speed_m_per_s must give a finite storage window and rate, "
        "got segment_km=20.0, fiber_speed_m_per_s=5e-304",
        id="cfg-storage-window-inf",
    ),
    # at k = 0 only the rate's denominator 3 T0 overflows
    pytest.param(
        lambda: _cfg(rounds=0, hardware=HardwareParams(0.999, 0.1, 5e-304)),
        "segment_km / fiber_speed_m_per_s must give a finite storage window and rate, "
        "got segment_km=20.0, fiber_speed_m_per_s=5e-304",
        id="cfg-rate-inf",
    ),
    # the last rule: the transmittance exp(-L0 / L_att) must lie in (0, 1),
    # where P0 is defined; it rounds to 1 at L0 = 1e-15 km and to 0 at 20000 km
    pytest.param(
        lambda: _cfg(total_distance_km=2e-15, segment_km=1e-15),
        "segment_km / attenuation_km must give a transmittance in (0, 1), got segment_km=1e-15, attenuation_km=25.5",
        id="cfg-transmittance-1",
    ),
    pytest.param(
        lambda: _cfg(total_distance_km=40000.0, segment_km=20000.0),
        "segment_km / attenuation_km must give a transmittance in (0, 1), got segment_km=20000.0, attenuation_km=25.5",
        id="cfg-transmittance-0",
    ),
    pytest.param(
        lambda: _cfg(attenuation_km=math.inf),
        "segment_km / attenuation_km must give a transmittance in (0, 1), got segment_km=20.0, attenuation_km=inf",
        id="cfg-transmittance-inf-attenuation",
    ),
    pytest.param(lambda: DensityMatrix(np.ones(3)), "matrix must be square, got shape (3,)", id="density-shape"),
    pytest.param(lambda: DensityMatrix(np.eye(3) / 3.0), "dimension must be 2^m with m <= 4, got 3", id="density-dim"),
    pytest.param(
        lambda: DensityMatrix([[0.5, 0.1], [0.0, 0.5]]), "matrix is not Hermitian", id="density-hermitian"
    ),
    pytest.param(
        lambda: DensityMatrix([[0.5, math.nan], [math.nan, 0.5]]), "matrix is not Hermitian", id="density-nan"
    ),
    pytest.param(lambda: DensityMatrix(np.eye(2)), "trace must be 1, got (2+0j)", id="density-trace"),
    pytest.param(
        lambda: DensityMatrix(np.diag([1.2, -0.2])), "negative eigenvalue below floor: -0.2", id="density-negative"
    ),
    pytest.param(lambda: McConfig(0.0, 1, 0, 1), "p0 must lie in (0, 1], got 0.0", id="mc-p0"),
    pytest.param(lambda: McConfig(math.nan, 1, 0, 1), "p0 must lie in (0, 1], got nan", id="mc-p0-nan"),
    pytest.param(lambda: McConfig(0.5, 0, 0, 1), "blocks must be an integer >= 1, got 0", id="mc-blocks"),
    pytest.param(lambda: McConfig(0.5, 2.5, 0, 1), "blocks must be an integer >= 1, got 2.5", id="mc-blocks-float"),
    pytest.param(lambda: McConfig(0.5, True, 0, 1), "blocks must be an integer >= 1, got True", id="mc-blocks-bool"),
    pytest.param(lambda: McConfig(0.5, 1, -1, 1), "rounds must be an integer >= 0, got -1", id="mc-rounds"),
    pytest.param(lambda: McConfig(0.5, 1, 0, 0), "trials must be an integer >= 1, got 0", id="mc-trials"),
    pytest.param(lambda: McConfig(0.5, 1, 0, 1, seed=-1), "seed must be an integer >= 0, got -1", id="mc-seed"),
    pytest.param(lambda: McConfig(0.5, 1, 0, 1, seed=1.5), "seed must be an integer >= 0, got 1.5", id="mc-seed-float"),
    # the first rule broken is the one reported
    pytest.param(lambda: McConfig(0.5, 0, -1, 0), "blocks must be an integer >= 1, got 0", id="mc-first"),
    pytest.param(
        lambda: QubusPlan(2, 0.1, ({**LEDGER, "00": 0.1},)), "ledgers[0]: codeword 00 must carry phase 0, got 0.1",
        id="qubus-00",
    ),
    pytest.param(
        lambda: QubusPlan(2, 0.1, ({**LEDGER, "11": -0.1},)), "ledgers[0]: codeword 11 must carry phase 0, got -0.1",
        id="qubus-11",
    ),
    pytest.param(
        lambda: QubusPlan(3, 0.1, ({"000": 0.0, "011": 0.1, "100": -0.1, "111": 0.2},)),
        "ledgers[0]: codeword 111 must carry phase 0, got 0.2",
        id="qubus-111",
    ),
    pytest.param(
        lambda: QubusPlan(3, 0.1, (dict(LEDGER), {**LEDGER, "11": 0.2})),
        "ledgers[1]: codeword 11 must carry phase 0, got 0.2",
        id="qubus-chained",
    ),
]


@pytest.mark.parametrize("build, message", MESSAGES)
def test_constructor_message(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


class TestBellDiagonalClamp:
    def test_rounding_dust_reads_as_zero(self):
        s = BellDiagonal(1.0, -1e-13, -1e-12, 0.0)
        assert (s.a, s.b, s.c, s.d) == (1.0, 0.0, 0.0, 0.0)
        assert math.copysign(1.0, s.b) == math.copysign(1.0, s.c) == 1.0
        assert repr(s) == "BellDiagonal(a=1.0, b=0.0, c=0.0, d=0.0)"

    def test_negative_zero_is_kept(self):
        assert math.copysign(1.0, BellDiagonal(1.0, -0.0, 0.0, 0.0).b) == -1.0

    def test_sum_within_tolerance_is_kept(self):
        s = BellDiagonal(0.5, 0.5 + 5e-13, 0.0, 0.0)
        assert s.b == 0.5 + 5e-13
        assert s.total() == 1.0 + 5e-13

    def test_sum_is_checked_after_the_clamp(self):
        # 1 + 1.5e-12 alone breaks the tolerance; the dust is not credited
        with pytest.raises(ValueError) as excinfo:
            BellDiagonal(1.0 + 1.5e-12, -1e-12, 0.0, 0.0)
        assert str(excinfo.value) == f"coefficients must sum to <= 1, got {1.0 + 1.5e-12}"


FIELDS = {
    "BellDiagonal": ("a", "b", "c", "d"),
    "PurifyOutcome": ("state", "success_prob"),
    "Code": ("n", "k", "d", "family"),
    "ChannelParams": ("segment_length_km", "qubus_strength", "interaction_angle_rad"),
    "HardwareParams": ("local_transmission", "memory_coherence_s", "fiber_speed_m_per_s"),
    "ProtocolConfig": (
        "total_distance_km", "segment_km", "code", "rounds", "hardware", "channel", "fidelity", "attenuation_km",
    ),
    "OperatingPoint": ("feasible", "operating_fidelity", "result", "max_f_final"),
    "DensityMatrix": ("matrix",),
    "VariantReport": ("rows",),
    "McConfig": ("p0", "blocks", "rounds", "trials", "seed"),
    "QubusPlan": ("n", "theta_rad", "ledgers"),
}
FIELDS["ProtocolConfig-channel"] = FIELDS["ProtocolConfig"]
FIELDS["QubusPlan-chained"] = FIELDS["QubusPlan"]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_fields_refuse_assignment(name):
    value = INSTANCES[name]()
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.no_such_field = 1.0
    # repr, not ==: a DensityMatrix's == compares arrays elementwise
    assert repr(value) == repr(INSTANCES[name]())


@pytest.mark.parametrize("name", sorted(INSTANCES.keys() - UNHASHABLE))
def test_equal_and_hashed_by_value(name):
    one, two = INSTANCES[name](), INSTANCES[name]()
    assert one is not two
    assert one == two
    assert not one != two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1


def test_unequal_values_differ():
    assert BellDiagonal(*STATE) != BellDiagonal(0.9, 0.05, 0.02, 0.03)
    assert Code(*REP) != Code(7, 7, "repetition")
    assert HardwareParams(*HW) != HardwareParams(0.999, 0.1, 1e8)
    assert _cfg() != _cfg(rounds=1)
    assert _cfg() != _cfg(fidelity=0.96)
    assert PurifyOutcome(BellDiagonal(*STATE), 0.5) != PurifyOutcome(BellDiagonal(*STATE), 0.6)


class TestKeywordConstruction:
    def test_bell_diagonal(self):
        assert BellDiagonal(a=0.9, b=0.05, c=0.03, d=0.02) == BellDiagonal(*STATE)
        assert BellDiagonal(0.9, 0.05, d=0.02, c=0.03) == BellDiagonal(*STATE)

    def test_purify_outcome(self):
        state = BellDiagonal(*STATE)
        assert PurifyOutcome(success_prob=0.5, state=state) == PurifyOutcome(state, 0.5)

    def test_code(self):
        assert Code(family="css", d=3, n=7) == Code(7, 3, "css")

    def test_channel_has_no_defaults(self):
        # the attenuation length, and its default, are the config's
        ch = ChannelParams(interaction_angle_rad=0.01, segment_length_km=20.0, qubus_strength=0.001)
        assert ch == ChannelParams(*CHANNEL)
        assert ChannelParams._field_defaults == {}
        with pytest.raises(TypeError):
            ChannelParams(*CHANNEL, attenuation_length_km=25.5)

    def test_hardware_default_speed(self):
        hw = HardwareParams(memory_coherence_s=0.1, local_transmission=0.999)
        assert hw.fiber_speed_m_per_s == FIBER_SPEED_M_PER_S == 2.0e8
        assert hw == HardwareParams(0.999, 0.1, 2.0e8)

    def test_protocol_config_defaults(self):
        cfg = ProtocolConfig(
            total_distance_km=1280.0, segment_km=20.0, code=Code(*REP), rounds=2,
            hardware=HardwareParams(*HW), fidelity=0.95,
        )
        assert cfg.channel is None
        assert cfg.attenuation_km == ATTENUATION_LENGTH_KM
        assert cfg == ProtocolConfig(1280.0, 20.0, Code(*REP), 2, HardwareParams(*HW), None, 0.95, 25.5)
        ch = ChannelParams(*CHANNEL)
        by_channel = ProtocolConfig(1280.0, 20.0, Code(*REP), 2, HardwareParams(*HW), channel=ch)
        assert by_channel.fidelity is None
        assert by_channel.channel is ch

    @pytest.mark.parametrize("cls", [ChannelParams, HardwareParams, ProtocolConfig, McConfig])
    def test_checked_defaults_are_the_stored_defaults(self, cls):
        # __init__ checks what namedtuple's __new__ stored, so both must default alike
        params = inspect.signature(cls.__init__).parameters.values()
        assert {p.name: p.default for p in params if p.default is not p.empty} == cls._field_defaults

    def test_operating_point(self):
        op = _solve()
        rebuilt = OperatingPoint(
            max_f_final=op.max_f_final, result=op.result, operating_fidelity=op.operating_fidelity, feasible=True
        )
        assert rebuilt == op
        assert isinstance(op.result, SweepResult)


class TestTuples:
    """The value types are tuples: they unpack and compare like their fields."""

    def test_compare_equal_to_a_plain_tuple(self):
        assert BellDiagonal(*STATE) == STATE
        assert tuple(BellDiagonal(*STATE)) == STATE
        assert Code(*REP) == REP
        assert HardwareParams(*HW) == (*HW, FIBER_SPEED_M_PER_S)
        assert hash(Code(*REP)) == hash(REP)
        assert McConfig(*MC) == (*MC, 0)
        assert hash(McConfig(*MC)) == hash((*MC, 0))
        assert VariantReport(ROWS) == (ROWS,)
        assert QubusPlan(2, 0.1, (dict(LEDGER),)) == (2, 0.1, (LEDGER,))

    def test_unpack(self):
        a, b, c, d = BellDiagonal(*STATE)
        assert (a, b, c, d) == STATE
        state, p = PurifyOutcome(BellDiagonal(*STATE), 0.5)
        assert state == BellDiagonal(*STATE) and p == 0.5
        p0, blocks, rounds, trials, seed = McConfig(*MC, seed=5)
        assert (p0, blocks, rounds, trials, seed) == (*MC, 5)
        (matrix,) = DensityMatrix([[0.5, 0.0], [0.0, 0.5]])
        assert matrix.dtype == complex and (matrix == np.eye(2) / 2.0).all()
        n, theta_rad, ledgers = QubusPlan(2, 0.1, (dict(LEDGER),))
        assert (n, theta_rad, ledgers) == (2, 0.1, (LEDGER,))


# (instance, a _replace that breaks one rule, the constructor's message)
REPLACE_MESSAGES = [
    pytest.param(_cfg, {"fidelity": 0.3}, "fidelity must lie in (1/2, 1], got 0.3", id="ProtocolConfig"),
    pytest.param(
        lambda: BellDiagonal(*STATE), {"a": -0.1}, "coefficient a must be >= 0, got -0.1", id="BellDiagonal"
    ),
    pytest.param(
        lambda: HardwareParams(*HW), {"local_transmission": 0.0}, "local_transmission must lie in (0, 1], got 0.0",
        id="HardwareParams",
    ),
    pytest.param(
        lambda: PurifyOutcome(BellDiagonal(*STATE), 0.5), {"success_prob": 2.0},
        "success_prob must lie in [0, 1], got 2.0", id="PurifyOutcome",
    ),
    pytest.param(lambda: Code(*REP), {"d": 1}, "repetition codes have d = n, got n=3, d=1", id="Code"),
    pytest.param(lambda: Code(*REP), {"n": 3.0}, "code parameter n must be an integer, got 3.0", id="Code-float"),
    pytest.param(
        lambda: ChannelParams(*CHANNEL), {"interaction_angle_rad": 4.0},
        "interaction_angle_rad must lie in (0, pi), got 4.0", id="ChannelParams",
    ),
    pytest.param(
        _channel_cfg, {"channel": None}, "give exactly one of channel= or fidelity=", id="ProtocolConfig-channel"
    ),
    pytest.param(
        INSTANCES["DensityMatrix"], {"matrix": np.eye(2)}, "trace must be 1, got (2+0j)", id="DensityMatrix"
    ),
    pytest.param(INSTANCES["McConfig"], {"p0": 0.0}, "p0 must lie in (0, 1], got 0.0", id="McConfig"),
    pytest.param(INSTANCES["McConfig"], {"seed": True}, "seed must be an integer >= 0, got True", id="McConfig-seed"),
    pytest.param(
        INSTANCES["QubusPlan"], {"ledgers": ({**LEDGER, "11": 0.3},)},
        "ledgers[0]: codeword 11 must carry phase 0, got 0.3", id="QubusPlan",
    ),
    pytest.param(
        INSTANCES["QubusPlan-chained"], {"ledgers": (dict(LEDGER), {**LEDGER, "00": 0.3})},
        "ledgers[1]: codeword 00 must carry phase 0, got 0.3", id="QubusPlan-chained",
    ),
]


class TestReplace:
    @pytest.mark.parametrize("build, change, message", REPLACE_MESSAGES)
    def test_replace_validates(self, build, change, message):
        with pytest.raises(ValueError) as excinfo:
            build()._replace(**change)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("build, change, message", REPLACE_MESSAGES)
    def test_make_validates(self, build, change, message):
        value = build()
        fields = [change.get(name, getattr(value, name)) for name in value._fields]
        with pytest.raises(ValueError) as excinfo:
            type(value)._make(fields)
        assert str(excinfo.value) == message

    def test_replace_clamps_like_the_constructor(self):
        s = BellDiagonal(1.0, 0.0, 0.0, 0.0)._replace(a=0.5, b=0.5, c=-1e-13)
        assert type(s) is BellDiagonal
        assert s == BellDiagonal(0.5, 0.5, 0.0, 0.0)

    def test_valid_replace_builds_the_same_value(self):
        cfg = _cfg()._replace(rounds=1, fidelity=0.97)
        assert type(cfg) is ProtocolConfig
        assert cfg == _cfg(rounds=1, fidelity=0.97)
        assert HardwareParams(*HW)._replace(memory_coherence_s=1.0) == HardwareParams(0.999, 1.0)
        mc = McConfig(*MC)._replace(seed=3)
        assert type(mc) is McConfig and mc == McConfig(*MC, seed=3)
        rho = DensityMatrix(np.eye(2) / 2.0)._replace(matrix=[[1.0, 0.0], [0.0, 0.0]])
        assert type(rho) is DensityMatrix and rho.matrix.dtype == complex

    def test_replace_still_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="Got unexpected field names: \\['rate'\\]"):
            _cfg()._replace(rate=1.0)

    def test_make_still_rejects_a_short_iterable(self):
        with pytest.raises(TypeError):
            Code._make((3, 3))


def test_checked_types_build_on_checked_tuple():
    # every class with its own checks builds on checked_tuple(...), whose one
    # _make (OWNERS' checked-make) builds through the constructor, and so _replace
    checked = {
        node.name: [b.func.id for b in node.bases if isinstance(b, ast.Call) and isinstance(b.func, ast.Name)]
        for tree in trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body)
    }
    assert checked == {
        name: ["checked_tuple"]
        for name in (
            "BellDiagonal", "PurifyOutcome", "Code", "ChannelParams", "HardwareParams", "ProtocolConfig",
            "McConfig", "DensityMatrix", "QubusPlan",
        )
    }


def test_with_fidelity_validates_the_copy():
    with pytest.raises(ValueError) as excinfo:
        with_fidelity(_cfg(), 0.5)
    assert str(excinfo.value) == "fidelity must lie in (1/2, 1], got 0.5"
    with pytest.raises(ValueError) as excinfo:
        with_fidelity(_channel_cfg(), 0.5)
    assert str(excinfo.value) == "fidelity must lie in (1/2, 1], got 0.5"
    assert with_fidelity(_channel_cfg(), 0.9) == _cfg(code=Code(7, 3, "css"), rounds=1, fidelity=0.9)


def test_bell_diagonal_init_sees_the_constructor_arguments(monkeypatch):
    # a span tracer wraps a class's __init__ and forwards the constructor's
    # arguments; the checks live there, so the wrapped span times them
    seen = []
    original = BellDiagonal.__init__

    def wrapped(self, *args, **kwargs):
        seen.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BellDiagonal, "__init__", wrapped)
    assert BellDiagonal(*STATE) == STATE
    assert BellDiagonal(1.0, -1e-13, 0.0, 0.0) == (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="coefficient a must be >= 0, got -0.1"):
        BellDiagonal(-0.1, 0.5, 0.3, 0.1)
    assert seen == [STATE, (1.0, -1e-13, 0.0, 0.0), (-0.1, 0.5, 0.3, 0.1)]
