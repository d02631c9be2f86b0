"""Frozen bit patterns of the brute-force oracles, the Monte Carlo
estimators and the qubus verdicts.

Each float is hashed as ``float.hex(x + 0.0)``, so a digest pins every bit
of every output except the sign of zero; verdicts are hashed as ``True`` or
``False``.  An engine rewrite of the oracle, of where the Monte Carlo
estimators read their inputs or of the qubus ledger must keep these
digests; a physics change that moves one says why in CHANGES.md.
"""

import hashlib
import math
import random

import pytest

from repeaterlab.bell_algebra import BellDiagonal
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
from repeaterlab.pipeline import ProtocolConfig
from repeaterlab.qubus import phases_distinct

SEED = 20111105


def _digest(values) -> str:
    h = hashlib.sha256()
    for x in values:
        text = str(x) if isinstance(x, (bool, str)) else float.hex(x + 0.0)
        h.update(text.encode() + b"\n")
    return h.hexdigest()


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


# each suite's generator and the digest of its values; tests/frozen_diff.py
# runs the same generators under two source trees and compares them value by value
SUITES = {
    "purification": (_purification_outputs, "aef346b0a3654e026dc1fd732ec575df70c5aede6f5cc6e79fa3565726888554"),
    "variant_rows": (_variant_rows, "ae98534cc96eaaa2ade4cecc1fe1ddb07b9b7a901e1399d3eddab412401d9d24"),
    "swapping": (_swap_outputs, "0a290a4a1027c8011d1944d019418c398a276b29cfde1ad8d38212aeecee03a1"),
    "enumeration": (_enumeration_outputs, "e8aa95455445a59d3238661db7bbf174b4d3bf6b171c0e6bdf97857e8b78d0e8"),
    "montecarlo": (_montecarlo_outputs, "0613504ddd1f61adf9e4e873c7874da0dcefe89e40b2d42223e0447f445f9165"),
    "phases_distinct": (_qubus_verdicts, "1357ded75a2fa9f10d9f86076530b2ad35cf99d2c8676a4301a0670e019a4134"),
}


@pytest.mark.parametrize("suite", SUITES)
def test_outputs_frozen(suite):
    outputs, want = SUITES[suite]
    assert _digest(outputs()) == want
