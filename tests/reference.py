"""One reference per closed form that the package's kernels are checked against.

Each function writes its formula once, with plain operators, so the same
code runs in floats, for the bitwise and bound checks, and over
``fractions.Fraction``, for the exact references in tests/test_exact.py.
Integer constants and ``/ 4`` keep the float bits: ``2 * x`` and ``x / 4``
round as ``2.0 * x`` and ``0.25 * x`` do, while ``Fraction * float`` would
give a float.  Nothing here comes from the package, so no reference shares
code with what it checks.
"""

import math


def ideal_round(a, b, c, d):
    """(A, B, C, D, P) of one ideal round: the even-parity branch of two copies (Deutsch et al., PRL 77, 2818)."""
    p = (a + d) ** 2 + (b + c) ** 2
    return (a * a + d * d) / p, 2 * a * d / p, (b * b + c * c) / p, 2 * b * c / p, p


def noisy_round(a, b, c, d, q):
    """(A, B, C, D, P) of one round with the Z-control, X-target gate error q.

    The two-copy recurrence on two differently mixed copies, each mixed with
    weight w = 2q(1 - q).
    """
    w = 2 * q * (1 - q)
    a1, b1, c1, d1 = ((1 - w) * x + w * y for x, y in zip((a, b, c, d), (c, d, a, b)))
    a2, b2, c2, d2 = ((1 - w) * x + w * y for x, y in zip((a, b, c, d), (d, c, b, a)))
    p = (a1 + d1) * (a2 + d2) + (b1 + c1) * (b2 + c2)
    return (a1 * a2 + d1 * d2) / p, (a1 * d2 + d1 * a2) / p, (b1 * b2 + c1 * c2) / p, (b1 * c2 + c1 * b2) / p, p


def pumped(state, k, round_, *args):
    """(A, B, C, D, product of the P) after k rounds of ``round_``."""
    prod = 1
    for _ in range(k):
        *state, p = round_(*state, *args)
        prod *= p
    return (*state, prod)


def swap(state, levels=1):
    """(a, b, c, d) after ``levels`` ideal swaps, each the Klein-group self-convolution (Briegel et al. 1998)."""
    a, b, c, d = state
    for _ in range(levels):
        a, b, c, d = a * a + b * b + c * c + d * d, 2 * (a * b + c * d), 2 * (a * c + b * d), 2 * (b * c + a * d)
    return a, b, c, d


def ladder(state, levels):
    """(a, b, c, d) after ``levels`` ideal swaps: each character to the N-th power, transformed back."""
    a, b, c, d = state
    n = 2**levels
    l0, lz, lx, ly = (a + b + c + d) ** n, (a + b - c - d) ** n, (a - b + c - d) ** n, (a - b - c + d) ** n
    return (l0 + lz + lx + ly) / 4, (l0 + lz - lx - ly) / 4, (l0 - lz + lx - ly) / 4, (l0 - lz - lx + ly) / 4


def noisy_swap(state, q):
    """One swap whose middle CNOT flips the Z and the X readout, each with probability q."""
    a, b, c, d = swap(state)
    # a Z flip trades phi+ with phi- and psi+ with psi-
    a, b, c, d = (1 - q) * a + q * b, (1 - q) * b + q * a, (1 - q) * c + q * d, (1 - q) * d + q * c
    # an X flip trades phi+ with psi+ and phi- with psi-
    return (1 - q) * a + q * c, (1 - q) * b + q * d, (1 - q) * c + q * a, (1 - q) * d + q * b


def tail(n, d, q):
    """Q_n = sum over j >= (d + 1)/2 of C(n, j) q^j (1 - q)^(n - j), uncapped.

    An int binomial per term, from j = n down, summed left to right: the
    order the package's float kernel keeps bit for bit.
    """
    total = 0
    for j in range(n, (d + 1) // 2 - 1, -1):
        total += math.comb(n, j) * q**j * (1 - q) ** (n - j)
    return total


def product_form(f, p):
    """(a, b, c, d) of a stored pair of raw fidelity f that carries no net logical flip with probability p."""
    return p * f, (1 - p) * f, p * (1 - f), (1 - p) * (1 - f)


def stored_pair(f, q_block):
    """(a, b, c, d) of a pair of raw fidelity f whose two blocks each fail to decode with probability q_block."""
    return product_form(f, (1 - q_block) ** 2 + q_block**2)


def charge_exponent(n, k, swaps):
    """The repetition row's gate-charge exponent: 2n noisy-gate qubits per swap, 4n per merge of one k-round tree."""
    return 2 * n * swaps + 4 * n * (2**k - 1)
