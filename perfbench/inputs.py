"""Seeded inputs for the three workloads, built with stdlib ``random`` only.

A run is a series of batches, and every batch draws fresh inputs from the
same distributions, so no op repeats an earlier op's input and a cache
across calls cannot flatter the timings.  Batch 0 draws from the workload
seed, batch b > 0 from the string seed "<seed>/<b>", which no other
(seed, batch) pair shares.

The program under test never sees the seed: grid-sweep gets config text,
operating-points and verify get plain parameter records that the worker
turns into library objects before timing starts.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

# the seven catalog codes, by the labels the config parser accepts
CODE_LABELS = ("[1,1,1]", "[3,1,3]", "[7,1,7]", "[51,1,51]", "[7,1,3]", "[25,1,5]", "[23,1,7]")

# Every batch has at least 100 inputs, so a batch's op-time percentiles up
# to p90 have ten ops beyond them.
GRID_BATCH = 100          # grid files per batch
GRID_CASES = 128          # [case] sections per grid file
SOLVE_REPEATS = 7         # solves per (code, k, target) combination: 588 per batch
SOLVE_TARGETS = (0.9, 0.95, 0.99)
VERIFY_BATCH = 100        # verification passes per batch
GATE_SAMPLES = 2          # (Bell state, q_g) samples per match_gate_variant call
# Qubus ledger sizes, repeated over each verify batch and shuffled per batch.
# The ledger costs 2^n, so a fixed mix keeps the op-time percentiles
# comparable across batches and seeds: n = 12 is the top fifth of passes (p90),
# n = 9 spans the middle (p50).
QUBUS_SIZES = (7, 8, 9, 9, 9, 9, 10, 11, 12, 12)


def batch_rng(seed: int, batch: int) -> random.Random:
    return random.Random(seed if batch == 0 else f"{seed}/{batch}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def draw_case(rng: random.Random, code: str | None = None, rounds: int | None = None) -> dict:
    """One sweep case: any catalog code, k in 0..3, N = L/L0 in 2..64.

    tau_c and 1 - T are log-uniform; a quarter of the cases take their raw
    fidelity from the qubus channel (alpha, theta), the rest set it directly.
    ``code`` and ``rounds`` are drawn unless given.
    """
    segment_km = rng.choice((10.0, 12.5, 20.0, 25.0, 40.0))
    case = {
        "code": code or rng.choice(CODE_LABELS),
        "rounds": rng.randrange(4) if rounds is None else rounds,
        "segment_km": segment_km,
        "total_km": segment_km * 2 ** rng.randint(1, 6),
        "tau_c_s": _log_uniform(rng, 1e-2, 10.0),
        "one_minus_t": _log_uniform(rng, 1e-5, 1e-2),
    }
    if rng.random() < 0.25:
        case["alpha"] = rng.uniform(5.0, 20.0)
        case["theta_rad"] = _log_uniform(rng, 5e-3, 3e-2)
    else:
        case["fidelity"] = rng.uniform(0.8, 0.99)
    return case


def grid_batch(seed: int, batch: int) -> Iterator[list[dict]]:
    """GRID_BATCH grids of GRID_CASES cases each for ``rate-sweep``, one at a time."""
    rng = batch_rng(seed, batch)
    for _ in range(GRID_BATCH):
        yield [draw_case(rng) for _ in range(GRID_CASES)]


def grid_text(cases: list[dict]) -> str:
    """Config text with one [case] section per case."""
    lines = []
    for i, case in enumerate(cases):
        lines.append(f"[case c{i}]")
        lines.extend(f"{key} = {value}" for key, value in case.items())
    return "\n".join(lines) + "\n"


def solve_specs(seed: int, batch: int) -> list[dict]:
    """(case, target) records for ``operating_point``, shuffled.

    Every (code, k, target) combination appears SOLVE_REPEATS times, so the
    mix of cheap infeasible and costly feasible solves, which sets the
    op-time percentiles, changes little from batch to batch.
    """
    rng = batch_rng(seed, batch)
    specs = [
        {"case": draw_case(rng, code, k), "target": target}
        for code in CODE_LABELS
        for k in range(4)
        for target in SOLVE_TARGETS
        for _ in range(SOLVE_REPEATS)
    ]
    rng.shuffle(specs)
    return specs


def _bell_state(rng: random.Random) -> list[float]:
    a = rng.uniform(0.6, 0.97)
    cuts = sorted((rng.random(), rng.random()))
    rest = 1.0 - a
    return [a, rest * cuts[0], rest * (cuts[1] - cuts[0]), rest * (1.0 - cuts[1])]


def _mc_case(rng: random.Random) -> dict:
    # hardware good enough that the pump tree survives often: the MC check
    # compares against the closed-form rate, so both sides must be nonzero
    segment_km = rng.choice((10.0, 20.0, 25.0))
    return {
        "code": rng.choice(CODE_LABELS),
        "rounds": rng.randrange(4),
        "segment_km": segment_km,
        "total_km": segment_km * 2 ** rng.randint(1, 4),
        "tau_c_s": _log_uniform(rng, 0.1, 10.0),
        "one_minus_t": _log_uniform(rng, 1e-5, 1e-3),
        "fidelity": rng.uniform(0.9, 0.99),
    }


def verify_specs(seed: int, batch: int) -> list[dict]:
    """Parameters of VERIFY_BATCH verification passes."""
    rng = batch_rng(seed, batch)
    sizes = list(QUBUS_SIZES) * (VERIFY_BATCH // len(QUBUS_SIZES))
    rng.shuffle(sizes)
    passes = []
    for n in sizes:
        passes.append(
            {
                "gate_samples": [
                    [_bell_state(rng), _log_uniform(rng, 1e-3, 0.3)] for _ in range(GATE_SAMPLES)
                ],
                "swap_state": _bell_state(rng),
                "enum_q": rng.uniform(0.01, 0.3),
                "mc_case": _mc_case(rng),
                "mc_seed": rng.getrandbits(63),
                "qubus_n": n,
                # below the branch cut, so the full 2^n ledger is built and checked
                "qubus_theta": rng.uniform(0.2, 0.95) * math.pi / (2 ** (n - 1) - 1),
            }
        )
    return passes

