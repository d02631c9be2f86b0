"""Recursions on Bell-diagonal two-qubit states.

States are written in the Bell basis as rho = A |phi+><phi+| + B |phi-><phi-|
+ C |psi+><psi+| + D |psi-><psi-|.  Purification follows Deutsch et al.,
PRL 77, 2818 (1996); entanglement swapping follows Briegel et al., PRL 81,
5932 (1998).  Both are closed maps on (A, B, C, D).

Noisy local gates with dephasing weight q_g enter in two ways:

* an exact one-round purification map (the gate error commuted through the
  CNOTs and the parity postselection by hand), and
* a k-round pump that follows the ideal recursion and prices every noisy
  two-qubit gate of its tree as a factor (1 - q_g) per participating qubit
  on the success probability.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BellDiagonal",
    "PurifyOutcome",
    "purify_ideal",
    "swap_ideal",
    "purify_imperfect_exact",
    "purify_k_rounds_lower",
]

_COEFF_TOL = 1e-12


@dataclass(frozen=True)
class BellDiagonal:
    """Bell-diagonal coefficients (a, b, c, d) = weights of phi+, phi-, psi+, psi-.

    Coefficients are nonnegative and sum to at most 1; sums strictly below 1
    are legal and mark a state whose missing weight has been conceded to an
    error budget.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        # the common case skips the per-name loop; a NaN or a negative
        # coefficient falls through to it
        if not (self.a >= 0.0 and self.b >= 0.0 and self.c >= 0.0 and self.d >= 0.0):
            # negated bounds, so that a NaN fails them too
            for name, value in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
                if not value >= -_COEFF_TOL:
                    raise ValueError(f"coefficient {name} must be >= 0, got {value}")
                if value < 0.0:  # rounding dust only
                    object.__setattr__(self, name, 0.0)
        if not self.total() <= 1.0 + _COEFF_TOL:
            raise ValueError(f"coefficients must sum to <= 1, got {self.total()}")

    def total(self) -> float:
        return self.a + self.b + self.c + self.d

    @property
    def fidelity(self) -> float:
        """Overlap with the target Bell state phi+."""
        return self.a

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class PurifyOutcome:
    """Post-selected state of one purification step and its success probability."""

    state: BellDiagonal
    success_prob: float

    def __post_init__(self) -> None:
        if not -_COEFF_TOL <= self.success_prob <= 1.0 + _COEFF_TOL:
            raise ValueError(f"success_prob must lie in [0, 1], got {self.success_prob}")


def _check_gate_error(q_g: float) -> None:
    if not 0.0 <= q_g < 0.5:
        raise ValueError(f"gate error must lie in [0, 1/2), got {q_g}")


def purify_ideal(s: BellDiagonal) -> PurifyOutcome:
    """One perfect-gate purification round on two copies of ``s``.

    Both pairs pass through bilateral CNOTs; the targets are measured and
    the even-parity branch is kept.  The surviving state is

        A' = (A^2 + D^2)/P,  B' = 2AD/P,  C' = (B^2 + C^2)/P,  D' = 2BC/P

    with success probability P = (A + D)^2 + (B + C)^2.
    """
    a, b, c, d = s.as_tuple()
    p = (a + d) ** 2 + (b + c) ** 2
    if p <= 0.0:
        raise ArithmeticError("purification branch has zero weight; state cannot be post-selected")
    return PurifyOutcome(
        BellDiagonal((a * a + d * d) / p, 2.0 * a * d / p, (b * b + c * c) / p, 2.0 * b * c / p),
        p,
    )


def swap_ideal(s: BellDiagonal) -> BellDiagonal:
    """Entanglement swapping of two copies of ``s`` with perfect gates.

    Bell measurement on the middle station composes the two Pauli frames,
    so the output coefficients are the group convolution

        A' = A^2 + B^2 + C^2 + D^2
        B' = 2(AB + CD)
        C' = 2(AC + BD)
        D' = 2(BC + AD).
    """
    a, b, c, d = s.as_tuple()
    return BellDiagonal(
        a * a + b * b + c * c + d * d,
        2.0 * (a * b + c * d),
        2.0 * (a * c + b * d),
        2.0 * (b * c + a * d),
    )


def purify_imperfect_exact(s: BellDiagonal, q_g: float) -> PurifyOutcome:
    """One purification round where each CNOT dephases with probability q_g.

    The gate error channel applies Z on the control and X on the target with
    weight q := q_g.  Commuting the four error insertions through the CNOTs
    and the parity measurement gives closed-form numerators; their sum is
    identically the success probability

        P = (B+C)^2 + (A+D)^2 - 2(A-B-C+D)^2 q (1 - q).

    q_g = 0 reduces exactly to :func:`purify_ideal`.
    """
    _check_gate_error(q_g)
    a, b, c, d = s.as_tuple()
    q = q_g
    m = (-1.0 + q) * q          # -q(1-q)
    u = 1.0 + 2.0 * (-1.0 + q) * q  # 1 - 2q(1-q)

    num_a = (
        d * d
        + a * a * u * u
        - 2.0 * a * m * (c + 2.0 * d + 2.0 * (b - c - 2.0 * d) * q + 2.0 * (-b + c + 2.0 * d) * q * q)
        - 2.0 * d * m * (-2.0 * d - 2.0 * (c + d) * m + b * u)
    )
    num_b = (
        -2.0 * d * m * (c + d - 2.0 * (-b + c + d) * q + 2.0 * (-b + c + d) * q * q)
        + 2.0 * a * a * q * (1.0 + q * (-3.0 - 2.0 * (-2.0 + q) * q))
        + 2.0 * a * (d * u * u - m * (-2.0 * c * m + b * u))
    )
    num_c = (
        c * c
        + b * b * u * u
        - 2.0 * c * m * (-2.0 * c - 2.0 * (c + d) * m + a * u)
        - 2.0 * b * m * (-2.0 * a * m + d * u + c * (2.0 + 4.0 * (-1.0 + q) * q))
    )
    num_d = (
        -2.0 * c * m * (c + d - 2.0 * (-a + c + d) * q + 2.0 * (-a + c + d) * q * q)
        + 2.0 * b * b * q * (1.0 + q * (-3.0 - 2.0 * (-2.0 + q) * q))
        + 2.0 * b * (c * u * u - m * (-2.0 * d * m + a * u))
    )
    p = (b + c) ** 2 + (a + d) ** 2 - 2.0 * (a - b - c + d) ** 2 * q + 2.0 * (a - b - c + d) ** 2 * q * q
    if p <= 0.0:
        raise ArithmeticError("purification branch has zero weight; state cannot be post-selected")
    return PurifyOutcome(BellDiagonal(num_a / p, num_b / p, num_c / p, num_d / p), p)


def _gate_charge(q_g: float, qubits: int) -> float:
    # worst-case survival of ``qubits`` noisy-gate qubits, (1 - q_g)^qubits
    return (1.0 - q_g) ** qubits


def _check_code_length(n: int) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"code length n must be an integer >= 1, got {n}")


def purify_k_rounds_lower(s: BellDiagonal, q_g: float, n: int, k: int) -> PurifyOutcome:
    """Worst-case pump of k nested purification rounds on encoded pairs.

    Round i consumes 2^(k-i) surviving pairs, so the whole binary tree
    performs 2^k - 1 merges and the gate factor compounds to

        g_k = (1 - q_g)^(4 n (2^k - 1)).

    The returned state is the plain ideal k-round recursion; all gate loss
    is priced into the success probability, which is the product of the
    ideal per-round probabilities times g_k.  Callers charging fidelity for
    the pump tree apply g_k to the leading coefficient themselves (that
    split keeps the factor from being charged twice when it is folded into
    a larger end-to-end exponent).  k = 0 returns ``s`` unchanged with
    success probability 1.
    """
    _check_gate_error(q_g)
    _check_code_length(n)
    if not (isinstance(k, int) and k >= 0):
        raise ValueError(f"round count k must be an integer >= 0, got {k}")
    state = s
    p_chain = 1.0
    for _ in range(k):
        step = purify_ideal(state)
        state = step.state
        p_chain *= step.success_prob
    g = _gate_charge(q_g, 4 * n * (2**k - 1))
    return PurifyOutcome(state, p_chain * g)
