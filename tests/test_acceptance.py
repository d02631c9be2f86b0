"""Acceptance gate: ten numbered checks, one printed verdict line each.

Each check prints ``ACCEPTANCE <n> [PASS|FAIL] <measured detail>`` before
asserting, so the verdicts survive into the test log either way.  Checks
carry their own wall-clock budget, asserted alongside the physics.
"""

import itertools
import math
import time

import numpy as np

from repeaterlab.bell_algebra import (
    BellDiagonal,
    purify_ideal,
    purify_imperfect_exact,
    purify_k_rounds_lower,
    swap_ideal,
)
from repeaterlab.codes import code_catalog, logical_error_prob
from repeaterlab.core import HardwareParams, initial_fidelity, memory_error_prob
from repeaterlab.montecarlo import McConfig, simulate_rate
from repeaterlab.oracle import (
    enumerate_logical_error,
    match_gate_variant,
    simulate_purification_round,
    simulate_swapping,
)
from repeaterlab.pipeline import (
    ProtocolConfig,
    final_fidelity,
    operating_point,
    rate_purified,
    rate_unpurified,
    with_fidelity,
)
from repeaterlab.qubus import feasibility, homodyne_error, single_qubus_phases

CODES = {c.label: c for c in code_catalog()}


def _verdict(number, ok, detail, elapsed, limit_s):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {detail} ({elapsed:.2f}s, limit {limit_s}s)")


def _random_states(count, seed):
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.ones(4), size=count)
    return [BellDiagonal(*map(float, row)) for row in draws]


def _cfg(label, rounds, tau_c, one_minus_t, fidelity=0.95):
    hw = HardwareParams(local_transmission=1.0 - one_minus_t, memory_coherence_s=tau_c)
    return ProtocolConfig(1280.0, 20.0, CODES[label], rounds, hw, fidelity=fidelity)


def test_criterion_1_noiseless_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for s in _random_states(200, seed=101):
        circuit = simulate_purification_round(s, 0.0)
        closed = purify_ideal(s)
        devs = [abs(x - y) for x, y in zip(circuit.state.as_tuple(), closed.state.as_tuple())]
        devs.append(abs(circuit.success_prob - closed.success_prob))
        devs.extend(
            abs(x - y)
            for x, y in zip(simulate_swapping(s).as_tuple(), swap_ideal(s).as_tuple())
        )
        worst = max(worst, *devs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(1, ok, f"200 states, circuit vs closed form max dev {worst:.3e} (tol 1e-12)", elapsed, 5)
    assert ok


def test_criterion_2_imperfect_round_pinning():
    start = time.perf_counter()
    samples = [(s, q) for s in _random_states(100, seed=202) for q in (1e-3, 1e-2)]
    report = match_gate_variant(samples)
    elapsed = time.perf_counter() - start
    matching = [v.value for v in report.matching]
    ok = bool(matching) and elapsed < 30.0
    _verdict(2, ok, f"matching gate-error variants (tol 1e-10): {matching or 'none'}", elapsed, 30)
    if not matching:
        print(report)  # deviation table is the triage deliverable
    assert ok


def test_criterion_3_logical_error_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for label in ("[3,1,3]", "[7,1,3]", "[7,1,7]"):
        for q in (0.01, 0.05, 0.1, 0.3):
            dev = abs(enumerate_logical_error(CODES[label], q) - logical_error_prob(CODES[label], q))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(3, ok, f"enumeration vs binomial tail max dev {worst:.3e} (tol 1e-12)", elapsed, 1)
    assert ok


def test_criterion_4_operating_point_rates():
    start = time.perf_counter()
    targets = [
        ("[3,1,3]", 0.01, 1e-4, 24.0),
        ("[23,1,7]", 0.1, 1e-3, 6.0),
        ("[7,1,3]", 1.0, 1e-3, 14.0),
    ]
    rows = []
    ok = True
    for label, tau_c, omt, quoted in targets:
        op = operating_point(_cfg(label, 2, tau_c, omt), 0.95)
        rate = op.result.rate_per_memory_hz
        good = op.feasible and abs(rate - quoted) <= 0.4 * quoted
        ok = ok and good
        rows.append(f"{label} {rate:.2f}Hz vs {quoted:.0f}Hz")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(4, ok, "rates at F_final 0.95 (tol 40%): " + "; ".join(rows), elapsed, 10)
    assert ok


def test_criterion_5_encoding_is_necessary():
    start = time.perf_counter()
    best = {}
    for label, k in itertools.product(("[1,1,1]", "[7,1,3]"), (0, 1, 2)):
        # F_final is monotone in F, so the supremum over F sits at F -> 1
        best[label, k] = final_fidelity(_cfg(label, k, 0.1, 1e-3, fidelity=1.0 - 1e-9))
    unencoded_blocked = all(best["[1,1,1]", k] < 0.9 for k in (0, 1, 2))
    steane_reaches = any(best["[7,1,3]", k] >= 0.9 for k in (0, 1, 2))
    elapsed = time.perf_counter() - start
    ok = unencoded_blocked and steane_reaches and elapsed < 10.0
    detail = (
        "max F_final unencoded k=0,1,2: "
        + ", ".join(f"{best['[1,1,1]', k]:.5f}" for k in (0, 1, 2))
        + " (need all < 0.9); [7,1,3]: "
        + ", ".join(f"{best['[7,1,3]', k]:.5f}" for k in (0, 1, 2))
        + " (need any >= 0.9)"
    )
    _verdict(5, ok, detail, elapsed, 10)
    assert ok, detail


def test_criterion_6_repetition_dominance_and_css_collapse():
    start = time.perf_counter()
    f_grid = np.linspace(0.75, 1.0 - 1e-9, 20)

    def curves(label, tau_c, omt):
        base = _cfg(label, 2, tau_c, omt)
        rates, finals = [], []
        for f in f_grid:
            pinned = with_fidelity(base, float(f))
            rates.append(rate_purified(pinned))
            finals.append(final_fidelity(pinned))
        return np.array(rates), np.array(finals)

    violations = 0
    compared = 0
    for tau_c, omt in itertools.product((0.01, 0.1, 1.0), (1e-3, 1e-4)):
        r3, f3 = curves("[3,1,3]", tau_c, omt)
        assert np.all(np.diff(r3) < 0) and np.all(np.diff(f3) > 0)
        for other in ("[7,1,7]", "[51,1,51]"):
            ro, fo = curves(other, tau_c, omt)
            assert np.all(np.diff(ro) < 0) and np.all(np.diff(fo) > 0)
            mask = (r3 >= ro.min()) & (r3 <= ro.max())
            matched = np.interp(r3[mask], ro[::-1], fo[::-1])
            violations += int(np.sum(f3[mask] < matched))
            compared += int(np.sum(mask))

    css_best = {
        (label, omt): final_fidelity(_cfg(label, 2, 0.01, omt, fidelity=1.0 - 1e-9))
        for label in ("[7,1,3]", "[25,1,5]", "[23,1,7]")
        for omt in (1e-3, 1e-4)
    }
    css_blocked = all(v < 0.9 for v in css_best.values())
    worst_css = max(css_best.values())
    elapsed = time.perf_counter() - start
    ok = violations == 0 and compared > 0 and css_blocked and elapsed < 30.0
    _verdict(
        6,
        ok,
        f"[3,1,3] vs larger repetition codes at matched rates: {violations} violations"
        f" over {compared} points; css max F_final at tau_c=0.01: {worst_css:.4f} (need < 0.9)",
        elapsed,
        30,
    )
    assert ok


def test_criterion_7_station_throughput():
    start = time.perf_counter()
    op = operating_point(_cfg("[23,1,7]", 2, 0.1, 1e-3), 0.95)
    throughput = op.result.rate_per_memory_hz * 166
    elapsed = time.perf_counter() - start
    ok = op.feasible and abs(throughput - 1000.0) <= 400.0 and elapsed < 5.0
    _verdict(7, ok, f"Golay rate x 166 memories = {throughput:.1f} bits/s vs 1000 (tol 40%)", elapsed, 5)
    assert ok


def test_criterion_8_qubus_feasibility():
    start = time.perf_counter()
    verdict = feasibility(11, 0.01)
    ratio = verdict.max_phase_rad / math.pi
    err = homodyne_error(9.0 / 0.01**2, 0.01)  # beta theta^2 = 9
    elapsed = time.perf_counter() - start
    ok = (not verdict.feasible) and 3.2 <= ratio <= 3.3 and err < 1e-5 and elapsed < 1.0
    _verdict(
        8,
        ok,
        f"n=11 theta=0.01 infeasible, max_phase/pi = {ratio:.4f} in [3.2, 3.3];"
        f" homodyne error {err:.3e} < 1e-5",
        elapsed,
        1,
    )
    assert ok


def test_criterion_9_monte_carlo_agreement():
    start = time.perf_counter()
    base = _cfg("[3,1,3]", 2, 0.01, 1e-4)
    f_star = operating_point(base, 0.95).operating_fidelity

    pinned = with_fidelity(base, f_star)
    est_pur = simulate_rate(pinned, f_star, McConfig(0.5, 2**22, 0, 100_000, seed=424))
    z_pur = abs(est_pur.rate_per_memory_hz - rate_purified(pinned)) / est_pur.std_error_hz

    raw = with_fidelity(ProtocolConfig(1280.0, 20.0, CODES["[3,1,3]"], 0, base.hardware, fidelity=0.95), f_star)
    est_raw = simulate_rate(raw, f_star, McConfig(0.5, 2**16, 0, 100_000, seed=425))
    z_raw = abs(est_raw.rate_per_memory_hz - rate_unpurified(raw)) / est_raw.std_error_hz

    elapsed = time.perf_counter() - start
    ok = z_pur <= 3.0 and z_raw <= 3.0 and elapsed < 60.0
    _verdict(
        9,
        ok,
        f"10^5 trials at the 24 Hz operating point: |z| = {z_raw:.2f} (raw), {z_pur:.2f} (purified), need <= 3",
        elapsed,
        60,
    )
    assert ok


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    cases = 0
    violations = 0

    # normalization of the recursions + q_g = 0 reduction (3000 states)
    for s in _random_states(3000, seed=1010):
        cases += 1
        pur = purify_ideal(s)
        sw = swap_ideal(s)
        imp = purify_imperfect_exact(s, 0.0)
        good = (
            abs(sum(pur.state.as_tuple()) - 1.0) <= 1e-12
            and abs(sum(sw.as_tuple()) - 1.0) <= 1e-12
            and min(*pur.state.as_tuple(), *sw.as_tuple()) >= -1e-15
            and max(abs(x - y) for x, y in zip(imp.state.as_tuple(), pur.state.as_tuple())) <= 1e-12
            and abs(imp.success_prob - pur.success_prob) <= 1e-12
        )
        violations += not good

    # raw fidelity depends on alpha, theta, eta only through (1-eta) alpha^2 (1-cos theta)
    for _ in range(2000):
        cases += 1
        alpha = rng.uniform(0.1, 10.0)
        theta1, theta2 = rng.uniform(0.01, 0.3, size=2)
        eta = rng.uniform(0.0, 0.999)
        alpha2 = alpha * math.sqrt((1.0 - math.cos(theta1)) / (1.0 - math.cos(theta2)))
        f1 = initial_fidelity(alpha, theta1, eta)
        f2 = initial_fidelity(alpha2, theta2, eta)
        violations += not abs(f1 - f2) <= 1e-12

    # memory dephasing composes: 1 - q(t) = (1 - q(t/2))^2 + q(t/2)^2
    for _ in range(2000):
        cases += 1
        tau = rng.uniform(1e-3, 10.0)
        t = rng.uniform(0.0, 5.0 * tau)
        half = memory_error_prob(t / 2.0, tau)
        composed = (1.0 - half) ** 2 + half**2
        violations += not abs((1.0 - memory_error_prob(t, tau)) - composed) <= 1e-12

    # the pump's gate charge never beats the exact noisy circuit: one ideal round
    # charged (1 - q_g)^4 on a' and on P, and k charged rounds on P_k (n = 1)
    for s in _random_states(1500, seed=1011):
        cases += 1
        q_g = rng.uniform(0.0, 0.1)
        k = int(rng.integers(1, 4))
        charge = (1.0 - q_g) ** 4
        ideal = purify_ideal(s)
        exact = simulate_purification_round(s, q_g)
        exact_chain_p = exact.success_prob
        state = exact.state
        for _ in range(k - 1):
            out = simulate_purification_round(state, q_g)
            exact_chain_p *= out.success_prob
            state = out.state
        good = (
            ideal.state.a * charge <= exact.state.a + 1e-12
            and ideal.success_prob * charge <= exact.success_prob + 1e-12
            and purify_k_rounds_lower(s, q_g, 1, k).success_prob <= exact_chain_p + 1e-12
        )
        violations += not good

    # logical error probability is monotone in the physical error rate
    catalog = code_catalog()
    for _ in range(1000):
        cases += 1
        code = catalog[int(rng.integers(0, len(catalog)))]
        q1, q2 = sorted(rng.uniform(0.0, 0.5, size=2))
        violations += not (
            logical_error_prob(code, q1) <= logical_error_prob(code, q2) + 1e-15
        )

    # qubus ledgers: codewords unrotated, negation antisymmetry, extreme phase
    for _ in range(500):
        cases += 1
        n = int(rng.integers(2, 11))
        theta = rng.uniform(1e-4, 0.05)
        plan = single_qubus_phases(n, theta).per_state_phases
        pattern = format(int(rng.integers(0, 2**n)), f"0{n}b")
        flipped = pattern.translate(str.maketrans("01", "10"))
        good = (
            plan["0" * n] == 0.0
            and plan["1" * n] == 0.0
            and abs(plan[pattern] + plan[flipped]) <= 1e-15
            and abs(max(abs(v) for v in plan.values()) - (2 ** (n - 1) - 1) * theta) <= 1e-12
        )
        violations += not good

    # pump pricing never beats the raw rate, and sampled rates are seed-stable
    labels = ("[3,1,3]", "[7,1,3]", "[23,1,7]", "[7,1,7]")
    for _ in range(250):
        cases += 1
        cfg = _cfg(
            labels[int(rng.integers(0, len(labels)))],
            int(rng.integers(1, 4)),
            rng.uniform(0.01, 1.0),
            rng.uniform(1e-4, 1e-2),
            fidelity=rng.uniform(0.8, 0.99),
        )
        bound = rate_unpurified(cfg) / (2**cfg.rounds * (cfg.rounds / 2.0 + 1.0))
        violations += not rate_purified(cfg) <= bound + 1e-12
    sampled = _cfg("[3,1,3]", 2, 0.01, 1e-4)
    for _ in range(250):
        cases += 1
        f = float(rng.uniform(0.8, 0.99))
        mc = McConfig(1.0, 64, 2, 8, seed=int(rng.integers(0, 2**31)))
        violations += simulate_rate(sampled, f, mc) != simulate_rate(sampled, f, mc)

    elapsed = time.perf_counter() - start
    ok = cases >= 10_000 and violations == 0 and elapsed < 60.0
    _verdict(10, ok, f"{violations} violations across {cases} generated cases", elapsed, 60)
    assert ok
