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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pipeline import (
    ProtocolConfig,
    heralding_probability,
    pump_success_probability,
    rate_unpurified,
    timing,
    with_fidelity,
)

__all__ = [
    "McConfig",
    "RateEstimate",
    "finite_window_estimate",
    "simulate_rate",
]


@dataclass(frozen=True)
class McConfig:
    """Sampling plan: ``blocks`` slots per window, ``trials`` windows, and a seed.

    Nothing reads p0 or rounds: both estimators take p0 and the pump depth
    from the config.  The two fields are still validated, and stay in this
    positional order because perfbench's Monte Carlo workload passes them.
    """

    p0: float
    blocks: int
    rounds: int
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.p0 <= 1.0:
            raise ValueError(f"p0 must lie in (0, 1], got {self.p0}")
        for name, low in (("blocks", 1), ("rounds", 0), ("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


class RateEstimate(NamedTuple):
    """Estimated distribution rate per memory qubit with its 1 sigma error."""

    rate_per_memory_hz: float
    std_error_hz: float
    trials: int


def _binomial_pmf(s: int, j: int, log_p: float, log_q: float) -> float:
    """C(s, j) p^j q^(s-j) from log p and log q, in log space to stay finite for large s."""
    return math.exp(math.lgamma(s + 1) - math.lgamma(j + 1) - math.lgamma(s - j + 1) + j * log_p + (s - j) * log_q)


def _tree_process(cfg: ProtocolConfig, fidelity: float) -> tuple[ProtocolConfig, float, float, float]:
    """The config pinned to ``fidelity`` with its p0, tree survival and window."""
    cfg = with_fidelity(cfg, fidelity)
    return cfg, heralding_probability(cfg), pump_success_probability(cfg), timing(cfg).t_purify_s


def finite_window_estimate(cfg: ProtocolConfig, fidelity: float, mc: McConfig) -> RateEstimate:
    """Exact mean and standard error of the :func:`simulate_rate` estimate.

    A window fills T = floor(X / 2^k) complete trees from X ~ Binom(blocks,
    p0) raw pairs, and each survives with probability p_tree, so the mean
    is p_tree E[T] / (window blocks n).  It falls short of the closed-form
    rate, the many-blocks limit, by the pairs left over; k = 0 leaves none
    and returns the closed form exactly.  The surviving count has variance
    p_tree (1 - p_tree) E[T] + p_tree^2 Var(T), which stays positive while
    the mean is, however few windows fill a tree.  The pmf is summed in log
    space over mean +/- (40 sd + 40) pairs.
    """
    cfg, p0, p_tree, window_s = _tree_process(cfg, fidelity)
    k, s = cfg.rounds, mc.blocks
    if p0 == 0.0:
        e_t = var_t = 0.0
    elif p0 == 1.0:
        e_t, var_t = float(s >> k), 0.0
    elif k == 0:
        e_t, var_t = s * p0, s * p0 * (1.0 - p0)
    else:
        mean, half = s * p0, 40.0 * math.sqrt(s * p0 * (1.0 - p0)) + 40.0
        log_p, log_q = math.log(p0), math.log1p(-p0)
        pmf = [
            (j >> k, _binomial_pmf(s, j, log_p, log_q))
            for j in range(max(0, math.floor(mean - half)), min(s, math.ceil(mean + half)) + 1)
        ]
        e_t = sum(t * w for t, w in pmf)
        var_t = sum((t - e_t) ** 2 * w for t, w in pmf)
    scale = window_s * s * cfg.code.n
    var_out = p_tree * (1.0 - p_tree) * e_t + p_tree * p_tree * var_t
    rate = rate_unpurified(cfg) if k == 0 else p_tree * e_t / scale
    return RateEstimate(rate, math.sqrt(var_out / mc.trials) / scale, mc.trials)


def simulate_rate(cfg: ProtocolConfig, fidelity: float, mc: McConfig) -> RateEstimate:
    """Monte Carlo estimate of the purified rate per memory qubit.

    Overrides the raw fidelity of ``cfg`` with ``fidelity``; p0, the pump
    depth, and the composite tree survival probability all come from the
    analytic pipeline, so the estimator measures exactly the process the
    closed-form rate prices.  mc.p0 and mc.rounds are ignored in favor of
    the config.  Two independent substreams drive supply and survival.
    """
    cfg, p0, p_tree, window_s = _tree_process(cfg, fidelity)
    k = cfg.rounds

    ss = np.random.SeedSequence(mc.seed)
    supply_seed, survive_seed = ss.spawn(2)
    rng_supply = np.random.default_rng(supply_seed)
    rng_survive = np.random.default_rng(survive_seed)

    pairs = rng_supply.binomial(mc.blocks, p0, size=mc.trials)
    if k == 0:
        out = pairs
    else:
        trees = pairs >> k
        out = rng_survive.binomial(trees, p_tree)

    per_memory = out / (window_s * mc.blocks * cfg.code.n)
    rate = float(per_memory.mean())
    sem = float(per_memory.std(ddof=1) / math.sqrt(mc.trials)) if mc.trials > 1 else math.inf
    return RateEstimate(rate, sem, mc.trials)
