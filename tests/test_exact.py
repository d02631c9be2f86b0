"""The row-path float kernels against their formulas evaluated exactly.

Each formula is written out here over ``fractions.Fraction`` and evaluated on
the kernel's own float inputs, which are exact rationals, so the reference
carries no rounding at all.  Each test pins the kernel's largest distance
from that exact value over a seeded sample, in ulps of the exact value.  A
kernel that misses its bound has lost accuracy; the bound is not widened.
"""

import ast
import functools
import math
import random
from fractions import Fraction
from pathlib import Path

from repeaterlab.bell_algebra import _noisy_factors, _pump, _pump_noisy, _swap
from repeaterlab.cli import _CANONICAL_CASES, CaseSpec, to_protocol_config
from repeaterlab.codes import _css_base, _q_eff, _stored_pair, _tail_sum, _tail_terms
from repeaterlab.core import gate_error_prob, memory_error_prob
from repeaterlab.pipeline import _chain, operating_point, timing
from test_imports import package_imports

CASES = 200
CATALOG = ((1, 1), (3, 3), (7, 7), (51, 51), (7, 3), (25, 5), (23, 7))  # (n, d) of every catalog code


def ulps(got, exact):
    """|got - exact| in units in the last place of the float nearest ``exact``.

    ``exact`` is a Fraction or an unreduced (numerator, denominator) pair:
    integer division rounds correctly, and a pair skips the gcd that
    reducing a value of a million bits would cost.
    """
    num, den = exact if isinstance(exact, tuple) else exact.as_integer_ratio()
    got_num, got_den = got.as_integer_ratio()
    ulp_num, ulp_den = math.ulp(num / den).as_integer_ratio()
    return abs(got_num * den - num * got_den) * ulp_den / (got_den * den * ulp_num)


def worst(got, exact):
    return max(map(ulps, got, exact))


def pumped_state(rng):
    """Float (a, b, c, d) with a > 1/2, the states that the chains pump and swap."""
    a = rng.uniform(0.5, 1.0)
    w = [rng.random() for _ in range(3)]
    total = sum(w)
    return (a, *((1.0 - a) * x / total for x in w))


def ideal_round(a, b, c, d):
    # Deutsch et al. (1996): the even-parity branch of two copies
    p = (a + d) ** 2 + (b + c) ** 2
    return (a * a + d * d) / p, 2 * a * d / p, (b * b + c * c) / p, 2 * b * c / p, p


def noisy_round(a, b, c, d, q):
    # the Z-control, X-target gate error as two differently mixed copies
    # through the two-copy recurrence, each mixed with weight w = 2q(1 - q)
    w = 2 * q * (1 - q)
    a1, b1, c1, d1 = ((1 - w) * x + w * y for x, y in zip((a, b, c, d), (c, d, a, b)))
    a2, b2, c2, d2 = ((1 - w) * x + w * y for x, y in zip((a, b, c, d), (d, c, b, a)))
    p = (a1 + d1) * (a2 + d2) + (b1 + c1) * (b2 + c2)
    return (a1 * a2 + d1 * d2) / p, (a1 * d2 + d1 * a2) / p, (b1 * b2 + c1 * c2) / p, (b1 * c2 + c1 * b2) / p, p


def pumped(s, k, round_, *args):
    """k rounds on the exact state: (A, B, C, D, prod P)."""
    state, prod = tuple(map(Fraction, s)), Fraction(1)
    for _ in range(k):
        *state, p = round_(*state, *args)
        prod *= p
    return (*state, prod)


def swapped(s, levels):
    """The exact state after ``levels`` Briegel et al. (1998) swap convolutions."""
    a, b, c, d = map(Fraction, s)
    for _ in range(levels):
        a, b, c, d = a * a + b * b + c * c + d * d, 2 * (a * b + c * d), 2 * (a * c + b * d), 2 * (b * c + a * d)
    return a, b, c, d


def tail(n, d, q):
    """Q_n = sum over j >= (d + 1)/2 of C(n, j) q^j (1 - q)^(n - j), capped at 1."""
    q = Fraction(q)
    return min(sum(math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range((d + 1) // 2, n + 1)), Fraction(1))


def css_budget(q_m, q_g, f_k):
    """q_eff = 3 q_m + 2 q_g + (1 - F_k), capped at 1."""
    return min(3 * Fraction(q_m) + 2 * Fraction(q_g) + 1 - Fraction(f_k), Fraction(1))


def power(x, m):
    """x^m as an unreduced (numerator, denominator) pair."""
    num, den = x.as_integer_ratio()
    return num**m, den**m


def times(x, y):
    """The product of two unreduced pairs."""
    return x[0] * y[0], x[1] * y[1]


def leading_after_swaps(state, n_seg):
    """The exact leading coefficient after log2 N swap levels, as an unreduced pair.

    Over the rationals the ladder is exactly its Walsh-Hadamard form
    (l0^N + lZ^N + lX^N + lY^N) / 4, which needs four powers where the
    loop needs six levels of products, each reduced by a gcd.
    """
    den = math.lcm(*(x.denominator for x in state))
    a, b, c, d = (x.numerator * (den // x.denominator) for x in state)
    return sum(x**n_seg for x in (a + b + c + d, a + b - c - d, a - b + c - d, a - b - c + d)), 4 * den**n_seg


def exact_price(cfg, f):
    """(F_final, P_k) of ``cfg`` at raw fidelity f, as unreduced pairs.

    q_g and the memory error q_m are the model's floats, read as exact
    rationals; every step after them is exact.
    """
    code, k, n_seg = cfg.code, cfg.rounds, cfg.num_segments()
    tau_c, tm = cfg.hardware.memory_coherence_s, timing(cfg)
    q_g, f = Fraction(gate_error_prob(cfg.hardware.local_transmission)), Fraction(f)
    if code.family == "repetition":
        # the stored pair, k ideal rounds, log2 N ideal swaps, then the gate charge
        # of N - 1 swaps and one pump tree
        q_block = tail(code.n, code.d, memory_error_prob(tm.t_purify_s / 2.0, tau_c))
        p = (1 - q_block) ** 2 + q_block**2
        *state, p_k = pumped((p * f, (1 - p) * f, p * (1 - f), (1 - p) * (1 - f)), k, ideal_round)
        tree = 4 * code.n * (2**k - 1)
        f_final = times(leading_after_swaps(state, n_seg), power(1 - q_g, 2 * code.n * (n_seg - 1) + tree))
        return f_final, times(p_k.as_integer_ratio(), power(1 - q_g, tree))
    # k exact imperfect-gate rounds, the per-qubit budget, and 2N blocks that must all decode
    a, _b, _c, _d, p_k = pumped((f, 1 - f, 0, 0), k, noisy_round, q_g)
    q_eff = css_budget(memory_error_prob(tm.t_half_s / 2.0, tau_c), q_g, a)
    return power(1 - tail(code.n, code.d, q_eff), 2 * n_seg), p_k.as_integer_ratio()


def test_stored_pair_is_correctly_rounded():
    # 1 - f and 1 - p are exact for f, p in [1/2, 1], so each product rounds once
    rng = random.Random(1)
    dist = 0.0
    for _ in range(CASES):
        f, p = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        F, P = Fraction(f), Fraction(p)
        dist = max(dist, worst(_stored_pair(f, p), (P * F, (1 - P) * F, P * (1 - F), (1 - P) * (1 - F))))
    assert dist <= 0.5, dist


def test_pump_stays_within_its_ulps():
    # up to 4 ideal rounds, P_k the product of the round probabilities times the charge
    rng = random.Random(2)
    dist = 0.0
    for i in range(CASES):
        s, k, charge = pumped_state(rng), rng.randint(1, 4), 1.0 if i % 2 else rng.uniform(0.5, 1.0)
        *state, prod = pumped(s, k, ideal_round)
        dist = max(dist, worst(_pump(*s, k, charge), (*state, prod * Fraction(charge))))
    assert dist <= 12.0, dist


def test_noisy_pump_stays_within_its_ulps():
    # up to 3 exact imperfect-gate rounds at q_g from 1e-5 to 0.3
    rng = random.Random(3)
    dist = 0.0
    for _ in range(CASES):
        s, q, k = pumped_state(rng), 10.0 ** rng.uniform(-5.0, math.log10(0.3)), rng.randint(1, 3)
        got = _pump_noisy(*s, _noisy_factors(q), k)
        dist = max(dist, worst(got, pumped(s, k, noisy_round, Fraction(q))))
    assert dist <= 14.0, dist


@functools.cache
def swap_cases():
    """The seeded swap states, up to 6 levels each, with their exact ladders."""
    rng = random.Random(4)
    cases = []
    for _ in range(CASES):
        s, levels = pumped_state(rng), rng.randint(1, 6)
        cases.append((s, levels, swapped(s, levels)))
    return cases


def test_swap_ladder_stays_within_its_ulps():
    # up to 6 levels of the Briegel et al. (1998) convolution
    dist = max(worst(_swap(*s, levels), exact) for s, levels, exact in swap_cases())
    assert dist <= 52.0, dist


def walsh_hadamard_ladder(state, levels):
    """(a, b, c, d) after ``levels`` ideal swaps in floats, as tests/test_ladder.py writes the form."""
    a, b, c, d = state
    n = 2**levels
    l0, lz, lx, ly = (a + b + c + d) ** n, (a + b - c - d) ** n, (a - b + c - d) ** n, (a - b - c + d) ** n
    return (
        0.25 * (l0 + lz + lx + ly),
        0.25 * (l0 + lz - lx - ly),
        0.25 * (l0 - lz + lx - ly),
        0.25 * (l0 - lz - lx + ly),
    )


def test_walsh_hadamard_ladder_stays_within_its_ulps():
    # the loop's alternative, on the same states: its leading coefficient,
    # which a price reads, against all four, where the three smaller
    # coefficients are differences of nearly equal powers
    got = [(walsh_hadamard_ladder(s, levels), exact) for s, levels, exact in swap_cases()]
    leading = max(ulps(wh[0], exact[0]) for wh, exact in got)
    dist = max(worst(wh, exact) for wh, exact in got)
    assert leading <= 37.0, leading
    assert dist <= 15606.0, dist


def test_binomial_tail_stays_within_its_ulps():
    # Q_n = sum over j >= (d + 1)/2 of C(n, j) q^j (1 - q)^(n - j), capped at 1
    rng = random.Random(5)
    dist = 0.0
    for _ in range(CASES):
        (n, d), q = rng.choice(CATALOG), 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        dist = max(dist, ulps(_tail_sum(_tail_terms(n, d), q), tail(n, d, q)))
    assert dist <= 12.0, dist


def test_css_budget_stays_within_its_ulps():
    # _q_eff on _css_base's 3 q_m + 2 q_g, with q_m, q_g in [1e-8, 1/2) and F_k in [1/2, 1]
    rng = random.Random(6)
    dist = 0.0
    for _ in range(CASES):
        q_m, q_g = (10.0 ** rng.uniform(-8.0, math.log10(0.4999)) for _ in range(2))
        f_k = rng.uniform(0.5, 1.0)
        dist = max(dist, ulps(_q_eff(_css_base(q_m, q_g), f_k)[0], css_budget(q_m, q_g, f_k)))
    assert dist <= 0.83, dist


def price_cases():
    """(config, raw fidelity): report's three points at their F*, then each catalog code at a seeded point."""
    cases = []
    for case in _CANONICAL_CASES:
        cfg = to_protocol_config(case)
        cases.append((cfg, operating_point(cfg, 0.95).operating_fidelity))
    rng = random.Random(7)
    for n, d in CATALOG:
        k, levels = rng.randint(0, 2), rng.randint(1, 6)
        tau_c, one_minus_t = 10.0 ** rng.uniform(-2.0, 1.0), 10.0 ** rng.uniform(-6.0, -2.5)
        case = CaseSpec(code=f"[{n},1,{d}]", rounds=k, total_km=20.0 * 2**levels, tau_c_s=tau_c, one_minus_t=one_minus_t)
        cases.append((to_protocol_config(case), rng.uniform(0.8, 1.0)))
    return cases


def test_price_stays_within_its_ulps():
    # one whole price per family through the pipeline's chain; the gate
    # charge (1 - q_g)^E and the css power (1 - Q_n)^(2N) carry the rounding
    # of their bases times the exponent
    dist = {("repetition", 0): 0.0, ("repetition", 1): 0.0, ("css", 0): 0.0, ("css", 1): 0.0}
    for cfg, f in price_cases():
        for i, (got, exact) in enumerate(zip(_chain(cfg, timing(cfg))(f), exact_price(cfg, f))):
            dist[cfg.code.family, i] = max(dist[cfg.code.family, i], ulps(got, exact))
    # F_final, then P_k
    assert dist["repetition", 0] <= 21.0 and dist["repetition", 1] <= 3.5, dist
    assert dist["css", 0] <= 33.0 and dist["css", 1] <= 1.6, dist


def test_imports_from_the_package_only_the_kernels_under_test():
    # the references above are written here, so that they share no code with
    # src/; the kernels' set-up halves (_noisy_factors, _css_base, _tail_terms)
    # come along because the chain calls each kernel on them, and a whole price
    # takes its config, clock, float q_g and q_m, and report's F* from the package
    assert package_imports(ast.parse(Path(__file__).read_text(encoding="utf-8"))) == {
        "bell_algebra": {"_noisy_factors", "_pump", "_pump_noisy", "_swap"},
        "codes": {"_css_base", "_q_eff", "_stored_pair", "_tail_sum", "_tail_terms"},
        "pipeline": {"_chain", "operating_point", "timing"},
        "cli": {"CaseSpec", "_CANONICAL_CASES", "to_protocol_config"},
        "core": {"gate_error_prob", "memory_error_prob"},
    }
