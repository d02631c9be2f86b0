"""Error-correction layer: logical error rates of the memory encoding.

Each half of a distributed pair is stored in an [n, 1, d] block code and
the dominant noise is dephasing, so decoding reduces to a classical
majority-style vote: a block decodes wrongly when more than (d - 1)/2 of
its qubits have flipped.  Supported families are bit-repetition codes
(d = n) and CSS codes (Steane 1996; Bacon 2006; the Golay code, 1949).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .bell_algebra import BellDiagonal

__all__ = [
    "Code",
    "code_catalog",
    "logical_error_prob",
    "pair_no_error_prob",
    "effective_coefficients",
    "css_effective_qubit_error",
]


class Code(namedtuple("Code", "n k d family")):
    """An [n, k, d] block code protecting one logical qubit (k = 1); family is "repetition" or "css"."""

    __slots__ = ()

    def __init__(self, n: int, k: int, d: int, family: str) -> None:
        for name, value in (("n", n), ("k", k), ("d", d)):
            if type(value) is not int:
                raise ValueError(f"code parameter {name} must be an integer, got {value!r}")
        if k != 1:
            raise ValueError(f"only single-logical-qubit codes are supported, got k={k}")
        if not 1 <= d <= n:
            raise ValueError(f"need 1 <= d <= n, got n={n}, d={d}")
        if d % 2 == 0:
            raise ValueError(f"majority decoding needs odd d, got d={d}")
        if family not in ("repetition", "css"):
            raise ValueError(f"unknown code family {family!r}")
        if family == "repetition" and d != n:
            raise ValueError(f"repetition codes have d = n, got n={n}, d={d}")

    @classmethod
    def _make(cls, iterable) -> Code:
        return cls(*iterable)  # so that _replace validates too

    @property
    def label(self) -> str:
        return f"[{self.n},{self.k},{self.d}]"

    @property
    def t(self) -> int:
        """Number of correctable errors per block."""
        return (self.d - 1) // 2


def code_catalog() -> tuple[Code, ...]:
    """All supported codes, unencoded memory first."""
    return (
        Code(1, 1, 1, "repetition"),
        Code(3, 1, 3, "repetition"),
        Code(7, 1, 7, "repetition"),
        Code(51, 1, 51, "repetition"),
        Code(7, 1, 3, "css"),
        Code(25, 1, 5, "css"),
        Code(23, 1, 7, "css"),
    )


def logical_error_prob(code: Code, q_eff: float) -> float:
    """Block decoding failure probability Q_n.

    With i.i.d. qubit error probability q_eff, bounded-distance decoding
    fails when (d + 1)/2 or more qubits err:

        Q_n = sum_{j=(d+1)/2}^{n} C(n, j) q^j (1 - q)^(n - j).
    """
    if not 0.0 <= q_eff <= 1.0:
        raise ValueError(f"q_eff must lie in [0, 1], got {q_eff}")
    q = q_eff
    p = 1.0 - q
    total = 0.0
    for binom, j, n_minus_j in _tail_terms(code.n, code.d):
        total += binom * q**j * p**n_minus_j
    return min(total, 1.0)


@functools.cache
def _tail_terms(n: int, d: int) -> tuple[tuple[float, float, float], ...]:
    """(C(n, j), j, n - j) for j >= (d + 1)/2 as floats, built once per code.

    ``float(C(n, j))`` is the conversion that an int times a float makes, so
    each term has the bits of the int form; every catalog binomial is below
    2**53 (C(51, 25) is about 2.5e14), so the floats are also exact.
    Ordered j = n first, so the smallest terms (for q < 1/2) are summed first.
    """
    return tuple(
        (float(math.comb(n, j)), float(j), float(n - j)) for j in range(n, (d + 1) // 2 - 1, -1)
    )


def pair_no_error_prob(q_logical: float) -> float:
    """Probability P_n that an encoded pair carries no net logical flip.

    Each half fails independently with probability Q; equal flips on both
    halves cancel on the pair, so P_n = (1 - Q)^2 + Q^2.
    """
    if not 0.0 <= q_logical <= 1.0:
        raise ValueError(f"q_logical must lie in [0, 1], got {q_logical}")
    return (1.0 - q_logical) ** 2 + q_logical**2


def effective_coefficients(fidelity: float, p_pair: float) -> BellDiagonal:
    """Bell-diagonal coefficients of a stored encoded pair.

    The raw pair is a phi+/psi+ mixture with weight ``fidelity`` on phi+;
    a net logical flip (probability 1 - p_pair) moves phi+ -> phi- and
    psi+ -> psi-:

        (a, b, c, d) = (P F, (1 - P) F, P (1 - F), (1 - P)(1 - F)).
    """
    return BellDiagonal(*_stored_pair(fidelity, p_pair))


def _stored_pair(f: float, p: float) -> tuple[float, float, float, float]:
    """Float kernel of :func:`effective_coefficients`, with its argument checks.

    Products of numbers in [0, 1] pass the ``BellDiagonal`` checks, so the
    chain takes the four floats as they are.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p_pair must lie in [0, 1], got {p}")
    r, g = 1.0 - p, 1.0 - f
    return p * f, r * f, p * g, r * g


def css_effective_qubit_error(q_m_half: float, q_g: float, f_k: float) -> tuple[float, bool]:
    """Per-qubit error rate feeding a CSS block, with saturation flag.

    Budget per stored qubit per swap level: three memory half-windows,
    two noisy gates, and the infidelity of the purified pair it rides on:

        q_eff = 3 q_m(t/2) + 2 q_g + (1 - F_k).

    The linear budget is a small-error estimate and can exceed 1 for poor
    parameters; it is then clamped to 1 and flagged.
    """
    if not 0.0 <= q_m_half <= 1.0:
        raise ValueError(f"q_m_half must lie in [0, 1], got {q_m_half}")
    if not 0.0 <= q_g <= 1.0:
        raise ValueError(f"q_g must lie in [0, 1], got {q_g}")
    if not 0.0 <= f_k <= 1.0:
        raise ValueError(f"f_k must lie in [0, 1], got {f_k}")
    q_eff = 3.0 * q_m_half + 2.0 * q_g + (1.0 - f_k)
    if q_eff > 1.0:
        return 1.0, True
    return q_eff, False
