"""The value types: repr, immutability, value semantics, checked copies.

BellDiagonal, PurifyOutcome, Code, ChannelParams, HardwareParams,
ProtocolConfig, OperatingPoint and the numpy-side DensityMatrix,
VariantReport, McConfig and QubusPlan are NamedTuples.  They print, compare
and hash by value, refuse assignment, take keywords with their defaults,
and run their constructor's checks in ``_replace`` and ``_make`` too.  Each
rule a constructor enforces is a row of ``REFUSALS`` in
tests/test_refusals.py, with its exact message.  Those whose fields cannot
be hashed (an ndarray, a dict) are left out of the hash tests.
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
        with pytest.raises(ValueError, match=r"^Got unexpected field names: \['rate'\]$"):
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
    with pytest.raises(ValueError, match=r"^coefficient a must be >= 0, got -0\.1$"):
        BellDiagonal(-0.1, 0.5, 0.3, 0.1)
    assert seen == [STATE, (1.0, -1e-13, 0.0, 0.0), (-0.1, 0.5, 0.3, 0.1)]
