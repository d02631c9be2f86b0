"""The one registry of frozen values: every output the tests pin bit for bit,
apart from the perfbench batch-0 summaries, which keep perfbench's own encoding.

``SUITES`` maps a suite's name to the generator of its rows and the SHA-256
digest of their values.  A row is a value or a dict of named values, and
``_digest`` hashes every value as one line: a float as ``float.hex(x)``, so
every bit is pinned, the sign of zero included; a bool, int, str or None as
``str(x)``.  A printout or a written file is split with
``splitlines(keepends=True)``, so its CRLF and LF bytes stay pinned.

The suites cover the pipeline's catalog grid and operating-point map, the
brute-force oracles, the Monte Carlo estimators, the qubus verdicts, the
``parse_config`` corpus and the frozen CLI runs.  An engine rewrite must
keep every digest; a physics change that moves one says why in CHANGES.md,
and ``tests/frozen_diff.py`` shows which value moved and by how much.
"""

import contextlib
import hashlib
import io
import math
import random
import tempfile
from pathlib import Path

import pytest

from repeaterlab.bell_algebra import BellDiagonal
from repeaterlab.cli import _KEYS, ConfigError, emit_gnuplot, main, parse_config, to_protocol_config
from repeaterlab.codes import Code, code_catalog
from repeaterlab.core import ChannelParams, HardwareParams
from repeaterlab.montecarlo import McConfig, finite_window_estimate, simulate_rate
from repeaterlab.oracle import (
    GateErrorVariant,
    enumerate_logical_error,
    match_gate_variant,
    simulate_purification_round,
    simulate_swapping,
)
from repeaterlab.pipeline import ProtocolConfig, evaluate, sweep, timing
from repeaterlab.qubus import phases_distinct
from test_cli import FROZEN_GRID, render_config
from test_pipeline import catalog_grid, solve_map

SEED = 20111105


def _line(x) -> str:
    assert x is None or isinstance(x, (bool, int, float, str)), f"no frozen encoding for {x!r}"
    return float.hex(x) if isinstance(x, float) else str(x)


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        for x in row.values() if isinstance(row, dict) else (row,):
            h.update(_line(x).encode() + b"\n")
    return h.hexdigest()


def _catalog_rows():
    """One row per catalog-grid config: its sweep row and its three timing windows."""
    cfgs = catalog_grid()
    for row, cfg in zip(sweep(cfgs), cfgs, strict=True):
        windows = {f"timing.{name}": value for name, value in timing(cfg)._asdict().items()}
        yield {**row._asdict(), **windows}


def _map_rows():
    """One row per operating-point solve of the map, with its returned row."""
    for (tau_c, one_minus_t), cell in solve_map().items():
        for label, k, op in cell:
            result = {f"result.{name}": value for name, value in op.result._asdict().items()}
            yield {
                "tau_c": tau_c, "one_minus_t": one_minus_t, "code": label, "k": k, "feasible": op.feasible,
                "operating_fidelity": op.operating_fidelity, "max_f_final": op.max_f_final, **result,
            }


def _states(rng, count):
    """Seeded normalized states, plus hand-picked ones with exact zeros."""
    states = [
        BellDiagonal(1.0, 0.0, 0.0, 0.0),
        BellDiagonal(0.9, 0.1, 0.0, 0.0),
        BellDiagonal(0.95, 0.0, 0.05, 0.0),
        BellDiagonal(0.25, 0.25, 0.25, 0.25),
    ]
    for _ in range(count):
        w = [rng.random() ** 3 for _ in range(4)]
        states.append(BellDiagonal(*(x / sum(w) for x in w)))
    return states


def _gate_samples(rng, count):
    gates = [0.0, 1e-4, 0.3, 0.49]
    return [
        (s, gates[i] if i < len(gates) else 10 ** rng.uniform(-4.0, math.log10(0.45)))
        for i, s in enumerate(_states(rng, count))
    ]


def _purification_outputs():
    for s, q_g in _gate_samples(random.Random(SEED), 16):
        for variant in GateErrorVariant:
            out = simulate_purification_round(s, q_g, variant)
            yield from out.state.as_tuple()
            yield out.success_prob


def _variant_rows():
    rng = random.Random(SEED + 1)
    for size in (1, 2, 5):
        for _ in range(3):
            for variant, dev in match_gate_variant(_gate_samples(rng, size)[-size:]).rows:
                yield variant.value
                yield dev
    for variant, dev in match_gate_variant().rows:
        yield variant.value
        yield dev


def _swap_outputs():
    for s in _states(random.Random(SEED + 2), 24):
        yield from simulate_swapping(s).as_tuple()


def _codes():
    """Every valid [n, 1, d] code with n <= 10, and the extreme d for n up to 15."""
    for n in range(1, 16):
        if n % 2:
            yield Code(n, n, "repetition")
        ds = range(1, n + 1, 2)
        for d in ds if n <= 10 else (ds[0], ds[-1]):
            yield Code(n, d, "css")


def _enumeration_outputs():
    rng = random.Random(SEED + 3)
    qs = [0.0, 1.0, 0.5, 1e-300, 1e-3, 0.05, 0.3, 1.0 - 1e-12]
    for code in _codes():
        for q in qs + [rng.random() for _ in range(2)] if code.n <= 10 else qs[4:7]:
            yield enumerate_logical_error(code, q)


def _thetas(n, rng):
    cut = math.pi / (2 ** (n - 1) - 1)
    # below, at and just past the 1e-9 bucket width
    thetas = [1e-12, 1e-10, 4.9e-10, 5e-10, 9.99e-10, 1e-9, 1.01e-9, 2e-9, 3e-9]
    # the branch cut and its float neighbours
    thetas += [0.5 * cut, math.nextafter(cut, 0.0), cut, math.nextafter(cut, math.inf), 1.001 * cut]
    # 2 pi / k folds two coefficients k apart onto one bucket
    thetas += [2.0 * math.pi * p / k for k in (3, 5, 7, 11, 2**n - 1, 2**n + 1) for p in (1, 2)]
    thetas += [2.0 * math.pi / (2 ** (n - 1) - 1) * (1.0 + eps) for eps in (-1e-12, 1e-12)]
    thetas += [10 ** rng.uniform(-12.0, 1.0) for _ in range(4)]
    return thetas


def _qubus_verdicts():
    rng = random.Random(SEED + 4)
    for n in range(2, 17):
        for theta in _thetas(n, rng) if n <= 12 else _thetas(n, rng)[::6]:
            yield f"{n} {float.hex(theta)}"
            yield phases_distinct(n, theta)


def _montecarlo_outputs():
    """Rate and standard error of both estimators, every catalog code at k = 0..3."""
    rng = random.Random(SEED + 5)
    for code in code_catalog():
        for k in range(4):
            hw = HardwareParams(1.0 - 10 ** rng.uniform(-5.0, -3.0), 10 ** rng.uniform(-2.0, 0.0))
            segment_km = rng.choice([10.0, 20.0, 40.0])
            if rng.random() < 0.3:  # the channel route: F comes from the qubus probe
                channel = ChannelParams(segment_km, rng.uniform(5.0, 50.0), rng.uniform(0.005, 0.05))
                cfg = ProtocolConfig(64 * segment_km, segment_km, code, k, hw, channel=channel)
                f = cfg.raw_fidelity()
            else:
                f = rng.uniform(0.8, 0.999)
                cfg = ProtocolConfig(64 * segment_km, segment_km, code, k, hw, fidelity=f)
            mc = McConfig(0.5, 4096, k, 500, seed=rng.randrange(2**32))
            for estimate in (simulate_rate(cfg, f, mc), finite_window_estimate(cfg, f, mc)):
                yield estimate.rate_per_memory_hz
                yield estimate.std_error_hz


# a seeded corpus of config texts and --set lists: known and unknown keys,
# none in any case, good and bad values, lines without "=" or starting with
# it, named, unnamed and unterminated headers, comments, blank lines and
# whitespace padding; each text draws its own share of bad lines
_CORPUS_GOOD = {
    str: ["[3,1,3]", "23,1,7", "[7, 1, 3]", "x", "", "none"],
    int: ["0", "1", "2", "3", "-1", "1_0", "٣", "1001", "+2"],
    float: ["0.95", "0.9", "1e-3", "20", "1280", "1e308", "inf", "nan", "-0.0", "5e-324", "1_0.5"],
}
_CORPUS_NONES = ["none", "NONE", "None", "nOnE"]
_CORPUS_BAD_VALUES = ["x", "", "1e", "3 # note", "0x10", "2.5", "a=b", "1,5", "--1", "none"]
_CORPUS_BAD_KEYS = ["bogus", "Code", "tau c_s", "", "#rounds", "[case a"]
_CORPUS_LINES = ["", "# shared", "#rounds = 3", "[case]", "[case a]", "[ case  b c ]", "[case a=b]"]
_CORPUS_BAD_LINES = [
    "[grid]", "[ ]", "[]", "[case=]", "[case x", "[case y]]", "just words", "code", "=", "= 3", "==", "rounds",
]
_CORPUS_PADS = ["", "", " ", "  ", "\t", "\xa0", "　"]


def _corpus_assignment(rng, bad):
    key = rng.choice(_CORPUS_BAD_KEYS) if rng.random() < bad else rng.choice(list(_KEYS))
    spec = _KEYS.get(key)
    if spec is None or rng.random() < bad:
        return key, rng.choice(_CORPUS_BAD_VALUES)
    if spec.nullable and rng.random() < 0.3:
        return key, rng.choice(_CORPUS_NONES)
    return key, rng.choice(_CORPUS_GOOD[spec.kind])


def _config_corpus():
    rng = random.Random(SEED)

    def pad():
        return rng.choice(_CORPUS_PADS)

    for _ in range(2000):
        bad = rng.choice([0.0, 0.0, 0.03, 0.1, 0.3])
        lines = []
        for _ in range(rng.randrange(12)):
            if rng.random() < 0.7:
                key, value = _corpus_assignment(rng, bad)
                lines.append(f"{pad()}{key}{pad()}={pad()}{value}{pad()}")
            else:
                lines.append(pad() + rng.choice(_CORPUS_BAD_LINES if rng.random() < bad else _CORPUS_LINES) + pad())
        overrides = []
        for _ in range(rng.choice([0, 0, 1, 2])):
            key, value = _corpus_assignment(rng, bad)
            overrides.append(f"{pad()}{key}{'' if rng.random() < bad else rng.choice(['=', ' = '])}{value}")
        yield rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"]), overrides


def _parse_outcomes():
    """Each corpus text and --set list with its cases or its exact error; about half parse."""
    for text, overrides in _config_corpus():
        try:
            outcome = repr(parse_config(text, overrides))
        except ConfigError as exc:
            outcome = f"ConfigError: {exc}"
        yield {"text": text, "overrides": repr(overrides), "outcome": outcome}


def _lines(part, text):
    for line in text.splitlines(keepends=True):
        yield {"part": part, "line": line}


def _cli_runs(*runs):
    """Each run's exit code, then each line of its stdout, stderr and --out file.

    The runs share a scratch directory that holds FROZEN_GRID's ``grid.cfg``;
    argvs and printouts name it ``{tmp}``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "grid.cfg").write_text(render_config(FROZEN_GRID), encoding="utf-8")
        for run in runs:
            argv = [arg.format(tmp=tmp) for arg in run]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            yield {"part": "exit code", "line": rc}
            yield from _lines("stdout", out.getvalue().replace(tmp, "{tmp}"))
            yield from _lines("stderr", err.getvalue().replace(tmp, "{tmp}"))
            if "--out" in argv:
                yield from _lines("file", Path(argv[argv.index("--out") + 1]).read_bytes().decode())


def _gnuplot_lines():
    """The gnuplot table of FROZEN_GRID's rows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "grid.dat")
        emit_gnuplot([evaluate(to_protocol_config(case)) for case in FROZEN_GRID], str(path))
        yield from _lines("file", path.read_bytes().decode())


# one case of each family, a feasible and an infeasible operating point, and an errored row
_POINT_RUNS = (
    ["fidelity", "--code", "[3,1,3]", "--rounds", "2", "--fidelity", "0.95"],
    ["fidelity", "--code", "[23,1,7]", "--rounds", "1", "--tau-c", "1", "--fidelity", "0.9"],
    ["fidelity", "--code", "[7,1,3]", "--alpha", "20", "--theta-rad", "0.01"],
    ["fidelity", "--code", "[7,1,3]", "--alpha", "1e6", "--theta-rad", "0.01"],
    ["operating-point", "--code", "[25,1,5]", "--tau-c", "1", "--target", "0.9"],
    ["operating-point", "--code", "[1,1,1]", "--rounds", "0", "--target", "0.9"],
)
# both ledgers with both figures; the chained ledgers alone above n = 16; the
# textbook collision at theta = pi, which exits 1
_QUBUS_RUNS = (
    ["qubus-check", "--n", "3", "--theta-rad", "0.01", "--show-plan", "--beta", "90000", "--target-error", "1e-5"],
    ["qubus-check", "--n", "17", "--theta-rad", "1e-6", "--show-plan"],
    ["qubus-check", "--n", "2", "--theta-rad", "3.141592653589793"],
)

# each suite's generator and the digest of its values; tests/frozen_diff.py
# runs the same generators under two source trees and compares them value by value
SUITES = {
    "catalog": (_catalog_rows, "a866b2e9ca3a46ec2d192d17066d6ca794a8019821459000e289ef8b1b2a6283"),
    "map": (_map_rows, "035a04bb14a99aa47fbd8494ac851895b4ad97a16a77bd8f5771cea8622c0ed8"),
    "purification": (_purification_outputs, "aef346b0a3654e026dc1fd732ec575df70c5aede6f5cc6e79fa3565726888554"),
    "variant_rows": (_variant_rows, "ae98534cc96eaaa2ade4cecc1fe1ddb07b9b7a901e1399d3eddab412401d9d24"),
    "swapping": (_swap_outputs, "0a290a4a1027c8011d1944d019418c398a276b29cfde1ad8d38212aeecee03a1"),
    "enumeration": (_enumeration_outputs, "e8aa95455445a59d3238661db7bbf174b4d3bf6b171c0e6bdf97857e8b78d0e8"),
    "montecarlo": (_montecarlo_outputs, "0613504ddd1f61adf9e4e873c7874da0dcefe89e40b2d42223e0447f445f9165"),
    "phases_distinct": (_qubus_verdicts, "1357ded75a2fa9f10d9f86076530b2ad35cf99d2c8676a4301a0670e019a4134"),
    "parse_config": (_parse_outcomes, "cb9ad8c0f062ae769891ebbb160cc95349c667c09963cae595f566f0dd180308"),
    "cli_report": (lambda: _cli_runs(["report"]), "a6bd7c84c964438bea11169523a64205d9df9cbd9ffc09455a019ab7e0550579"),
    "cli_points": (lambda: _cli_runs(*_POINT_RUNS), "0c452aa21bde1ea8626162255686e8d970fe887ea5868a176d7c2a79b1cd4a7e"),
    "cli_qubus_check": (
        lambda: _cli_runs(*_QUBUS_RUNS), "d0ddfa0af018b05d91c91e4d1a9ffb5c9f0b2e83f54a2e9f5a969083dd1a31cf"
    ),
    "cli_oracle_verify": (
        lambda: _cli_runs(["oracle-verify"]), "cdf00bb53df12291e6bf5cd6acf271122530f742fb455aa7732dc39cc04b13b9"
    ),
    "cli_montecarlo": (
        lambda: _cli_runs(["montecarlo", "--out", "{tmp}/mc.csv"]),
        "d4f64c36c1cd29e6929ad05d6f5bae9cdb23954be5cd7232fdb5411c835fbfcc",
    ),
    "cli_gnuplot": (_gnuplot_lines, "14707eed7fc3dfcd8f07836774d9872492aa5c456ca0d443f2000a84f379ef26"),
    "cli_rate_sweep": (
        lambda: _cli_runs(["rate-sweep", "--config", "{tmp}/grid.cfg", "--out", "{tmp}/rates.csv"]),
        "d427fad3d19d6363d86414d5d3e98bcbb56a00c050f97a0982941c62965cba52",
    ),
}


@pytest.mark.parametrize("suite", SUITES)
def test_outputs_frozen(suite):
    outputs, want = SUITES[suite]
    assert _digest(outputs()) == want

