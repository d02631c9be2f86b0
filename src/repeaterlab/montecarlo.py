"""Monte Carlo cross-check of the analytic pair supply and rates.

One heralding window drives ``blocks`` parallel generation slots for
(k/2 + 1) T0 seconds; each slot yields a raw pair with probability p0,
raw pairs are grouped into complete pump trees of 2^k, and each tree
survives the k pump rounds with the composite probability the analytic
rate prices (per-round success times the gate discount of the whole
tree).  Leftover pairs that cannot fill a tree within the window are
discarded, which is exactly the floor the estimator is allowed to show.

Streams use numpy's PCG64 via ``default_rng``; independent substreams
are split off one SeedSequence so results are reproducible per seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._checked import checked_tuple
from .pipeline import ProtocolConfig, SweepResult, evaluate, timing, with_fidelity

__all__ = [
    "McConfig",
    "RateEstimate",
    "finite_window_estimate",
    "simulate_rate",
]


class McConfig(checked_tuple("McConfig", "p0 blocks rounds trials seed", defaults=[0])):
    """Sampling plan: ``blocks`` slots per window, ``trials`` windows, and a seed.

    Nothing reads p0 or rounds: both estimators take p0 and the pump depth
    from the config.  The two fields are still validated, and stay in this
    positional order because perfbench's Monte Carlo workload passes them.
    """

    __slots__ = ()

    def __init__(self, p0: float, blocks: int, rounds: int, trials: int, seed: int = 0) -> None:
        if not 0.0 < p0 <= 1.0:
            raise ValueError(f"p0 must lie in (0, 1], got {p0}")
        for name, low in (("blocks", 1), ("rounds", 0), ("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            if value > 2**63 - 1 and name in ("blocks", "trials"):  # numpy draws and sizes counts as int64
                raise ValueError(f"{name} must be at most 2**63 - 1, got {value}")


class RateEstimate(NamedTuple):
    """Estimated distribution rate per memory qubit with its 1 sigma error."""

    rate_per_memory_hz: float
    std_error_hz: float
    trials: int


def _binomial_pmf(s: int, j: int, log_p: float, log_q: float) -> float:
    """C(s, j) p^j q^(s-j) from log p and log q, in log space to stay finite for large s."""
    return math.exp(math.lgamma(s + 1) - math.lgamma(j + 1) - math.lgamma(s - j + 1) + j * log_p + (s - j) * log_q)


def _tree_process(cfg: ProtocolConfig, fidelity: float) -> tuple[ProtocolConfig, SweepResult, float]:
    """The config pinned to ``fidelity``, its :func:`evaluate` row and its pump window t_k.

    An error row raises its error, so that no NaN is ever sampled.  t_k comes
    from the timing, which owns every window; the row holds none.
    """
    cfg = with_fidelity(cfg, fidelity)
    row = evaluate(cfg)
    if row.error is not None:
        raise ValueError(row.error)
    return cfg, row, timing(cfg).t_purify_s


def finite_window_estimate(cfg: ProtocolConfig, fidelity: float, mc: McConfig) -> RateEstimate:
    """Exact mean and standard error of the :func:`simulate_rate` estimate.

    A window fills T = floor(X / 2^k) complete trees from X ~ Binom(blocks,
    p0) raw pairs, and each survives with probability p_tree, so the mean
    is p_tree E[T] / (window blocks n).  It falls short of the closed-form
    rate, the many-blocks limit, by the pairs left over; k = 0 leaves none
    and returns the closed form exactly.  The surviving count has variance
    p_tree (1 - p_tree) E[T] + p_tree^2 Var(T), which stays positive while
    the mean is, however few windows fill a tree.  The pmf is summed in log
    space over mean +/- (40 sd + 40) pairs, for at most 2^24 blocks: past
    that, lgamma's cancellation costs more than a relative 3e-8 at the mode.
    """
    cfg, row, window_s = _tree_process(cfg, fidelity)
    p0, p_tree, k, s = row.p0, row.p_k, cfg.rounds, mc.blocks
    if p0 == 0.0:
        e_t = var_t = 0.0
    elif p0 == 1.0:
        e_t, var_t = float(s >> k), 0.0
    elif k == 0:
        e_t, var_t = s * p0, s * p0 * (1.0 - p0)
    elif s > 2**24:
        raise ValueError(f"blocks must be at most 2**24 for the exact finite-window estimate, got {s}")
    else:
        mean, half = s * p0, 40.0 * math.sqrt(s * p0 * (1.0 - p0)) + 40.0
        log_p, log_q = math.log(p0), math.log1p(-p0)
        # two passes over the window, so that memory stays flat in blocks
        window = range(max(0, math.floor(mean - half)), min(s, math.ceil(mean + half)) + 1)
        e_t = sum((j >> k) * _binomial_pmf(s, j, log_p, log_q) for j in window)
        var_t = sum(((j >> k) - e_t) ** 2 * _binomial_pmf(s, j, log_p, log_q) for j in window)
    scale = window_s * s * cfg.code.n
    var_out = p_tree * (1.0 - p_tree) * e_t + p_tree * p_tree * var_t
    rate = row.rate_per_memory_hz if k == 0 else p_tree * e_t / scale
    return RateEstimate(rate, math.sqrt(var_out / mc.trials) / scale, mc.trials)


def simulate_rate(cfg: ProtocolConfig, fidelity: float, mc: McConfig) -> RateEstimate:
    """Monte Carlo estimate of the purified rate per memory qubit.

    Overrides the raw fidelity of ``cfg`` with ``fidelity``; p0 and the
    composite tree survival probability come from the config's row, the
    pump depth from the config, so the estimator measures exactly the
    process the closed-form rate prices.  mc.p0 and mc.rounds are ignored
    in favor of the config.  Two independent substreams drive supply and
    survival.
    """
    cfg, row, window_s = _tree_process(cfg, fidelity)
    p0, p_tree, k = row.p0, row.p_k, cfg.rounds

    ss = np.random.SeedSequence(mc.seed)
    supply_seed, survive_seed = ss.spawn(2)
    rng_supply = np.random.default_rng(supply_seed)
    rng_survive = np.random.default_rng(survive_seed)

    try:
        pairs = rng_supply.binomial(mc.blocks, p0, size=mc.trials)
        out = pairs if k == 0 else rng_survive.binomial(pairs >> k, p_tree)
    except MemoryError:  # numpy asks for 8 bytes a trial up front
        raise ValueError(f"trials must fit in memory, got {mc.trials}") from None

    try:
        with np.errstate(over="raise"):
            per_memory = out / (window_s * mc.blocks * cfg.code.n)
            rate = float(per_memory.mean())
            sem = float(per_memory.std(ddof=1) / math.sqrt(mc.trials)) if mc.trials > 1 else math.inf
    except FloatingPointError:  # a pump window near 1e-157 s squares the spread past 1e308
        raise ArithmeticError(f"Monte Carlo rate per memory overflows a float (pump window {window_s:.5g} s)") from None
    return RateEstimate(rate, sem, mc.trials)
