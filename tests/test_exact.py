"""The row-path float kernels against their formulas evaluated exactly.

Each formula is written out here over ``fractions.Fraction`` and evaluated on
the kernel's own float inputs, which are exact rationals, so the reference
carries no rounding at all.  Each test pins the kernel's largest distance
from that exact value over a seeded sample, in ulps of the exact value.  A
kernel that misses its bound has lost accuracy; the bound is not widened.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

from repeaterlab.bell_algebra import _noisy_factors, _pump, _pump_noisy, _swap
from repeaterlab.codes import _stored_pair, _tail_sum, _tail_terms

CASES = 200
CATALOG = ((1, 1), (3, 3), (7, 7), (51, 51), (7, 3), (25, 5), (23, 7))  # (n, d) of every catalog code


def ulps(got, exact):
    """|got - exact| in units in the last place of the float nearest ``exact``."""
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


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


def test_swap_ladder_stays_within_its_ulps():
    # up to 6 levels of the Briegel et al. (1998) convolution
    rng = random.Random(4)
    dist = 0.0
    for _ in range(CASES):
        s, levels = pumped_state(rng), rng.randint(1, 6)
        a, b, c, d = map(Fraction, s)
        for _ in range(levels):
            a, b, c, d = a * a + b * b + c * c + d * d, 2 * (a * b + c * d), 2 * (a * c + b * d), 2 * (b * c + a * d)
        dist = max(dist, worst(_swap(*s, levels), (a, b, c, d)))
    assert dist <= 52.0, dist


def test_binomial_tail_stays_within_its_ulps():
    # Q_n = sum over j >= (d + 1)/2 of C(n, j) q^j (1 - q)^(n - j), capped at 1
    rng = random.Random(5)
    dist = 0.0
    for _ in range(CASES):
        (n, d), q = rng.choice(CATALOG), 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        Q = Fraction(q)
        exact = min(sum(math.comb(n, j) * Q**j * (1 - Q) ** (n - j) for j in range((d + 1) // 2, n + 1)), Fraction(1))
        dist = max(dist, ulps(_tail_sum(_tail_terms(n, d), q), exact))
    assert dist <= 12.0, dist


def test_imports_from_the_package_only_the_kernels_under_test():
    # the references above are written here, so that they share no code with
    # src/; the kernels' set-up halves (_noisy_factors, _tail_terms) come along
    # because the chain calls each kernel on them
    imported = set()
    for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not any(a.name.partition(".")[0] == "repeaterlab" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "repeaterlab":
            imported |= {(node.module, a.name) for a in node.names}
    assert imported == {
        ("repeaterlab.bell_algebra", "_noisy_factors"),
        ("repeaterlab.bell_algebra", "_pump"),
        ("repeaterlab.bell_algebra", "_pump_noisy"),
        ("repeaterlab.bell_algebra", "_swap"),
        ("repeaterlab.codes", "_stored_pair"),
        ("repeaterlab.codes", "_tail_sum"),
        ("repeaterlab.codes", "_tail_terms"),
    }
