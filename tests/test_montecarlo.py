"""Sampling cross-checks of the analytic supply and rate formulas."""

import math
import tracemalloc

import pytest

from repeaterlab.codes import code_catalog
from repeaterlab.core import HardwareParams
from repeaterlab.montecarlo import (
    McConfig,
    finite_window_estimate,
    simulate_rate,
)
from repeaterlab.pipeline import (
    ProtocolConfig,
    evaluate,
    heralding_probability,
    pump_success_probability,
    rate_purified,
    rate_unpurified,
    timing,
    with_fidelity,
)

CODES = {c.label: c for c in code_catalog()}


def make_cfg(rounds=2, fidelity=0.95):
    hw = HardwareParams(local_transmission=1.0 - 1e-4, memory_coherence_s=0.01)
    return ProtocolConfig(1280.0, 20.0, CODES["[3,1,3]"], rounds, hw, fidelity=fidelity)


class TestMcConfig:
    def test_counts_stop_at_int64(self):
        # numpy draws each count, and sizes the array of trials, as int64
        assert McConfig(1.0, 2**63 - 1, 2, 2**63 - 1).trials == 2**63 - 1


class TestSimulateRate:
    def test_deterministic_per_seed(self):
        cfg = make_cfg()
        mc = McConfig(0.5, 4096, 0, 200, seed=5)
        assert simulate_rate(cfg, 0.95, mc) == simulate_rate(cfg, 0.95, mc)

    def test_placeholder_fields_ignored(self):
        # p0 and rounds come from the config, not the sampling plan
        cfg = make_cfg()
        a = simulate_rate(cfg, 0.95, McConfig(0.5, 4096, 0, 200, seed=5))
        b = simulate_rate(cfg, 0.95, McConfig(0.9, 4096, 7, 200, seed=5))
        assert a == b

    def test_unpurified_estimator_within_3_sigma(self):
        # k = 0 has no tree floor, so the estimator is exactly unbiased
        cfg = make_cfg(rounds=0)
        est = simulate_rate(cfg, 0.95, McConfig(0.5, 4096, 0, 2000, seed=13))
        analytic = rate_unpurified(with_fidelity(cfg, 0.95))
        assert abs(est.rate_per_memory_hz - analytic) <= 3.0 * est.std_error_hz
        assert est.rate_per_memory_hz == pytest.approx(analytic, rel=2e-2)

    def test_purified_estimator_within_3_sigma(self):
        # blocks large enough that the discarded remainder is << 1 sigma
        cfg = make_cfg(rounds=2)
        est = simulate_rate(cfg, 0.95, McConfig(0.5, 2**18, 0, 1500, seed=17))
        analytic = rate_purified(with_fidelity(cfg, 0.95))
        assert abs(est.rate_per_memory_hz - analytic) <= 3.0 * est.std_error_hz

    def test_seed_matters(self):
        cfg = make_cfg()
        a = simulate_rate(cfg, 0.95, McConfig(0.5, 4096, 0, 200, seed=3))
        b = simulate_rate(cfg, 0.95, McConfig(0.5, 4096, 0, 200, seed=4))
        assert a.rate_per_memory_hz != b.rate_per_memory_hz

    def test_tree_floor(self):
        # one supply stream per seed: the k = 2 survivors are whole trees of
        # 4 from the same raw pairs the k = 0 estimate counts
        mc = McConfig(0.5, 3000, 0, 400, seed=11)

        def count(rounds):
            cfg = with_fidelity(make_cfg(rounds=rounds), 0.95)
            est = simulate_rate(cfg, 0.95, mc)
            return est.rate_per_memory_hz * timing(cfg).t_purify_s * mc.blocks * cfg.code.n * mc.trials

        pairs, survivors = count(0), count(2)
        assert pairs == pytest.approx(round(pairs), abs=1e-6)
        assert survivors == pytest.approx(round(survivors), abs=1e-6)
        assert 0.0 < survivors <= pairs / 4.0

    def test_single_trial_sem(self):
        est = simulate_rate(make_cfg(), 0.95, McConfig(0.5, 100, 0, 1, seed=2))
        assert math.isinf(est.std_error_hz)
        assert est.trials == 1

    def test_trials_reported(self):
        est = simulate_rate(make_cfg(rounds=0), 0.95, McConfig(0.5, 1024, 0, 37, seed=1))
        assert est.trials == 37


class TestFiniteWindowRate:
    @pytest.mark.parametrize("blocks", [1, 5, 64, 300])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_matches_full_binomial_sum(self, blocks, rounds):
        cfg = with_fidelity(make_cfg(rounds=rounds), 0.95)
        p0, p_tree = heralding_probability(cfg), pump_success_probability(cfg)
        trees = sum(
            math.comb(blocks, j) * p0**j * (1.0 - p0) ** (blocks - j) * (j >> rounds)
            for j in range(blocks + 1)
        )
        want = p_tree * trees / (timing(cfg).t_purify_s * blocks * cfg.code.n)
        got = finite_window_estimate(cfg, 0.95, McConfig(1.0, blocks, rounds, 1)).rate_per_memory_hz
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_unpurified_is_the_closed_form(self):
        cfg = make_cfg(rounds=0)
        got = finite_window_estimate(cfg, 0.95, McConfig(1.0, 64, 0, 1)).rate_per_memory_hz
        assert got == rate_unpurified(with_fidelity(cfg, 0.95))
        assert got == evaluate(with_fidelity(cfg, 0.95)).rate_per_memory_hz

    def test_rises_to_the_closed_form(self):
        cfg = make_cfg(rounds=2)
        analytic = rate_purified(with_fidelity(cfg, 0.95))
        rates = [
            finite_window_estimate(cfg, 0.95, McConfig(1.0, 4**e, 2, 1)).rate_per_memory_hz for e in range(3, 11)
        ]
        assert rates == sorted(rates)
        # with sd >> 4 the leftover X mod 4 is uniform on {0..3}: 1.5 pairs
        # short of s p0 per window
        p0 = heralding_probability(with_fidelity(cfg, 0.95))
        assert rates[-1] == pytest.approx(analytic * (1.0 - 1.5 / (4**10 * p0)), rel=1e-9)

    def test_zero_supply(self):
        # F = 1 heralds no pairs at all
        assert finite_window_estimate(make_cfg(rounds=2), 1.0, McConfig(1.0, 64, 2, 1)).rate_per_memory_hz == 0.0

    def test_estimator_within_3_sigma_at_few_blocks(self):
        # 64 blocks leave a remainder far beyond 1 sigma of the closed form
        cfg = make_cfg(rounds=2)
        mc = McConfig(1.0, 64, 2, 3000, seed=4)
        est = simulate_rate(cfg, 0.95, mc)
        mean = finite_window_estimate(cfg, 0.95, mc).rate_per_memory_hz
        assert abs(est.rate_per_memory_hz - mean) <= 3.0 * est.std_error_hz
        assert rate_purified(with_fidelity(cfg, 0.95)) - est.rate_per_memory_hz > 10.0 * est.std_error_hz


class TestFiniteWindowEstimate:
    @pytest.mark.parametrize("blocks", [1, 5, 64, 300])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_std_error_matches_full_binomial_sum(self, blocks, rounds):
        cfg = with_fidelity(make_cfg(rounds=rounds), 0.95)
        p0, p_tree = heralding_probability(cfg), pump_success_probability(cfg)
        pmf = [math.comb(blocks, j) * p0**j * (1.0 - p0) ** (blocks - j) for j in range(blocks + 1)]
        e_t = sum(w * (j >> rounds) for j, w in enumerate(pmf))
        e_t2 = sum(w * (j >> rounds) ** 2 for j, w in enumerate(pmf))
        # survivors ~ Binom(T, p_tree): E[out^2] = p(1-p) E[T] + p^2 E[T^2]
        var_out = p_tree * (1.0 - p_tree) * e_t + p_tree**2 * e_t2 - (p_tree * e_t) ** 2
        scale = timing(cfg).t_purify_s * blocks * cfg.code.n
        got = finite_window_estimate(cfg, 0.95, McConfig(1.0, blocks, rounds, 50))
        assert got.std_error_hz == pytest.approx(math.sqrt(var_out / 50) / scale, rel=1e-9, abs=1e-300)
        assert got.trials == 50

    def test_unpurified_is_the_binomial_std_error(self):
        cfg = with_fidelity(make_cfg(rounds=0), 0.95)
        p0, s = heralding_probability(cfg), 4096
        got = finite_window_estimate(cfg, 0.95, McConfig(1.0, s, 0, 400))
        want = math.sqrt(s * p0 * (1.0 - p0) / 400) / (timing(cfg).t0_s * s * cfg.code.n)
        assert got.std_error_hz == pytest.approx(want, rel=1e-12)

    def test_spread_stays_positive_while_the_mean_is(self):
        # 64 blocks at F = 0.9999 almost never fill an 8-pair tree
        cfg = make_cfg(rounds=3)
        got = finite_window_estimate(cfg, 0.9999, McConfig(1.0, 64, 3, 200))
        assert 0.0 < got.rate_per_memory_hz < 1e-15
        assert got.std_error_hz > 0.0

    def test_memory_stays_flat_in_blocks(self):
        # at 10^6 blocks the pmf window spans ~22,000 pair counts; a list of
        # its terms peaks near 2.7 MB, summing it in passes near 2 kB
        tracemalloc.start()
        try:
            finite_window_estimate(make_cfg(rounds=2), 0.95, McConfig(1.0, 10**6, 2, 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_walk_stops_at_2_to_the_24_blocks(self):
        # at the cap lgamma's cancellation still keeps the mean within a
        # relative 5e-8 of its many-blocks form (1.5 pairs short of s p0, as
        # in test_rises_to_the_closed_form); one block more is refused
        cfg = make_cfg(rounds=2)
        pinned = with_fidelity(cfg, 0.95)
        limit = rate_purified(pinned) * (1.0 - 1.5 / (2**24 * heralding_probability(pinned)))
        got = finite_window_estimate(cfg, 0.95, McConfig(1.0, 2**24, 2, 1)).rate_per_memory_hz
        assert got == pytest.approx(limit, rel=5e-8)
        with pytest.raises(ValueError, match=r"^blocks must be at most 2\*\*24 .*, got 16777217$"):
            finite_window_estimate(cfg, 0.95, McConfig(1.0, 2**24 + 1, 2, 1))

    def test_zero_supply_has_no_spread(self):
        got = finite_window_estimate(make_cfg(rounds=2), 1.0, McConfig(1.0, 64, 2, 10))
        assert got == (0.0, 0.0, 10)

    def test_sample_std_error_agrees(self):
        # the exact standard error is what the sample's own spread estimates
        cfg = make_cfg(rounds=2)
        mc = McConfig(1.0, 512, 2, 3000, seed=4)
        exact = finite_window_estimate(cfg, 0.95, mc).std_error_hz
        assert simulate_rate(cfg, 0.95, mc).std_error_hz == pytest.approx(exact, rel=0.1)
