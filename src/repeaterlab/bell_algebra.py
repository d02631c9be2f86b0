"""Recursions on Bell-diagonal two-qubit states.

States are written in the Bell basis as rho = A |phi+><phi+| + B |phi-><phi-|
+ C |psi+><psi+| + D |psi-><psi-|.  Purification follows Deutsch et al.,
PRL 77, 2818 (1996); entanglement swapping follows Briegel et al., PRL 81,
5932 (1998).  Both are closed maps on (A, B, C, D); each map's formula is
one private float kernel, which the public functions wrap and the
pipeline's chain calls on four floats for both code families:

* ``_purify``, one ideal round, which ``_pump`` runs k times with the gate
  charge on the product of the round probabilities;
* ``_pump_noisy``, k exact imperfect-gate rounds, whose factors of q_g
  alone are computed once per call;
* ``_swap``, a ladder of ideal swap levels in one call.

The public functions call them at k = 1 and one level.

Noisy local gates with dephasing weight q_g enter in two ways:

* an exact one-round purification map (the gate error commuted through the
  CNOTs and the parity postselection by hand), and
* a k-round pump that follows the ideal recursion and prices every noisy
  two-qubit gate of its tree as a factor (1 - q_g) per participating qubit
  on the success probability.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "BellDiagonal",
    "PurifyOutcome",
    "purify_ideal",
    "swap_ideal",
    "purify_imperfect_exact",
    "purify_k_rounds_lower",
]

_COEFF_TOL = 1e-12

_tuple_new = tuple.__new__


class BellDiagonal(namedtuple("BellDiagonal", "a b c d")):
    """Bell-diagonal coefficients (a, b, c, d) = weights of phi+, phi-, psi+, psi-.

    Coefficients are nonnegative and sum to at most 1; sums strictly below 1
    are legal and mark a state whose missing weight has been conceded to an
    error budget.

    Like every value type of the closed-form model, a NamedTuple whose
    ``__init__`` checks the fields that ``__new__`` stored (perfbench's
    tracer times a class through its ``__init__``), and whose ``_make``, so
    also ``_replace``, builds through the constructor.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float, d: float) -> BellDiagonal:
        if not (a >= 0.0 and b >= 0.0 and c >= 0.0 and d >= 0.0):
            # rounding dust below zero is stored as 0.0; __init__ rejects the rest
            a, b, c, d = (0.0 if -_COEFF_TOL <= v < 0.0 else v for v in (a, b, c, d))
        return _tuple_new(cls, (a, b, c, d))

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        # the common case: nothing was clamped, so the arguments are the
        # stored values; a NaN or a negative coefficient falls through
        if a >= 0.0 and b >= 0.0 and c >= 0.0 and d >= 0.0 and a + b + c + d <= 1.0 + _COEFF_TOL:
            return
        # negated bounds, so that a NaN fails them too
        for name, value in (("a", a), ("b", b), ("c", c), ("d", d)):
            if not value >= -_COEFF_TOL:
                raise ValueError(f"coefficient {name} must be >= 0, got {value}")
        if not self.total() <= 1.0 + _COEFF_TOL:
            raise ValueError(f"coefficients must sum to <= 1, got {self.total()}")

    @classmethod
    def _make(cls, iterable) -> BellDiagonal:
        return cls(*iterable)  # so that _replace validates too

    def total(self) -> float:
        return self.a + self.b + self.c + self.d

    @property
    def fidelity(self) -> float:
        """Overlap with the target Bell state phi+."""
        return self.a

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


class PurifyOutcome(namedtuple("PurifyOutcome", "state success_prob")):
    """Post-selected state of one purification step and its success probability."""

    __slots__ = ()

    def __init__(self, state: BellDiagonal, success_prob: float) -> None:
        if not -_COEFF_TOL <= success_prob <= 1.0 + _COEFF_TOL:
            raise ValueError(f"success_prob must lie in [0, 1], got {success_prob}")

    @classmethod
    def _make(cls, iterable) -> PurifyOutcome:
        return cls(*iterable)  # so that _replace validates too


def _check_gate_error(q_g: float) -> None:
    if not 0.0 <= q_g < 0.5:
        raise ValueError(f"gate error must lie in [0, 1/2), got {q_g}")


def _purify(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float, float]:
    """Float kernel of :func:`purify_ideal`: (A', B', C', D', P) of the state (a, b, c, d).

    The result passes the checks of ``BellDiagonal`` and ``PurifyOutcome``:
    a step that fails them is built as the object, which stores rounding
    dust below zero as 0.0 or raises.
    """
    p = (a + d) ** 2 + (b + c) ** 2
    if p <= 0.0:
        raise ArithmeticError("purification branch has zero weight; state cannot be post-selected")
    a, b, c, d = (a * a + d * d) / p, 2.0 * a * d / p, (b * b + c * c) / p, 2.0 * b * c / p
    if not (a >= 0.0 and b >= 0.0 and c >= 0.0 and d >= 0.0 and a + b + c + d <= 1.0 + _COEFF_TOL):
        a, b, c, d = BellDiagonal(a, b, c, d)
    if not -_COEFF_TOL <= p <= 1.0 + _COEFF_TOL:
        PurifyOutcome(BellDiagonal(a, b, c, d), p)  # raises
    return a, b, c, d, p


def _pump_noisy(
    a: float, b: float, c: float, d: float, q: float, k: int
) -> tuple[float, float, float, float, float]:
    """Float kernel of k :func:`purify_imperfect_exact` rounds at gate error q: (A, B, C, D, prod P).

    The factors that depend on q alone are computed once per call; each
    round is checked like :func:`_purify`.  k = 0 returns the state with
    product 1.0.
    """
    m = (-1.0 + q) * q          # -q(1-q)
    u = 1.0 + 2.0 * (-1.0 + q) * q  # 1 - 2q(1-q)
    w = 1.0 + q * (-3.0 - 2.0 * (-2.0 + q) * q)
    v = 2.0 + 4.0 * (-1.0 + q) * q
    p_chain = 1.0
    for _ in range(k):
        num_a = (
            d * d
            + a * a * u * u
            - 2.0 * a * m * (c + 2.0 * d + 2.0 * (b - c - 2.0 * d) * q + 2.0 * (-b + c + 2.0 * d) * q * q)
            - 2.0 * d * m * (-2.0 * d - 2.0 * (c + d) * m + b * u)
        )
        num_b = (
            -2.0 * d * m * (c + d - 2.0 * (-b + c + d) * q + 2.0 * (-b + c + d) * q * q)
            + 2.0 * a * a * q * w
            + 2.0 * a * (d * u * u - m * (-2.0 * c * m + b * u))
        )
        num_c = (
            c * c
            + b * b * u * u
            - 2.0 * c * m * (-2.0 * c - 2.0 * (c + d) * m + a * u)
            - 2.0 * b * m * (-2.0 * a * m + d * u + c * v)
        )
        num_d = (
            -2.0 * c * m * (c + d - 2.0 * (-a + c + d) * q + 2.0 * (-a + c + d) * q * q)
            + 2.0 * b * b * q * w
            + 2.0 * b * (c * u * u - m * (-2.0 * d * m + a * u))
        )
        t = 2.0 * (a - b - c + d) ** 2 * q
        p = (b + c) ** 2 + (a + d) ** 2 - t + t * q
        if p <= 0.0:
            raise ArithmeticError("purification branch has zero weight; state cannot be post-selected")
        a, b, c, d = num_a / p, num_b / p, num_c / p, num_d / p
        if not (a >= 0.0 and b >= 0.0 and c >= 0.0 and d >= 0.0 and a + b + c + d <= 1.0 + _COEFF_TOL):
            a, b, c, d = BellDiagonal(a, b, c, d)
        if not -_COEFF_TOL <= p <= 1.0 + _COEFF_TOL:
            PurifyOutcome(BellDiagonal(a, b, c, d), p)  # raises
        p_chain *= p
    return a, b, c, d, p_chain


def _pump(a: float, b: float, c: float, d: float, k: int, charge: float) -> tuple[float, float, float, float, float]:
    """Float kernel of :func:`purify_k_rounds_lower`: k :func:`_purify` rounds, P_k = (prod P) * charge, checked."""
    p_chain = 1.0
    for _ in range(k):
        a, b, c, d, p = _purify(a, b, c, d)
        p_chain *= p
    p_k = p_chain * charge
    if not -_COEFF_TOL <= p_k <= 1.0 + _COEFF_TOL:
        PurifyOutcome(BellDiagonal(a, b, c, d), p_k)  # raises
    return a, b, c, d, p_k


def _swap(a: float, b: float, c: float, d: float, levels: int) -> tuple[float, float, float, float]:
    """Float kernel of ``levels`` nested :func:`swap_ideal` steps, each checked like :func:`_purify`."""
    for _ in range(levels):
        a, b, c, d = (
            a * a + b * b + c * c + d * d,
            2.0 * (a * b + c * d),
            2.0 * (a * c + b * d),
            2.0 * (b * c + a * d),
        )
        if not (a >= 0.0 and b >= 0.0 and c >= 0.0 and d >= 0.0 and a + b + c + d <= 1.0 + _COEFF_TOL):
            a, b, c, d = BellDiagonal(a, b, c, d)
    return a, b, c, d


def purify_ideal(s: BellDiagonal) -> PurifyOutcome:
    """One perfect-gate purification round on two copies of ``s``.

    Both pairs pass through bilateral CNOTs; the targets are measured and
    the even-parity branch is kept.  The surviving state is

        A' = (A^2 + D^2)/P,  B' = 2AD/P,  C' = (B^2 + C^2)/P,  D' = 2BC/P

    with success probability P = (A + D)^2 + (B + C)^2.
    """
    a, b, c, d, p = _purify(*s)
    return PurifyOutcome(BellDiagonal(a, b, c, d), p)


def swap_ideal(s: BellDiagonal) -> BellDiagonal:
    """Entanglement swapping of two copies of ``s`` with perfect gates.

    Bell measurement on the middle station composes the two Pauli frames,
    so the output coefficients are the group convolution

        A' = A^2 + B^2 + C^2 + D^2
        B' = 2(AB + CD)
        C' = 2(AC + BD)
        D' = 2(BC + AD).
    """
    return BellDiagonal(*_swap(*s, 1))


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
    a, b, c, d, p = _pump_noisy(*s, q_g, 1)
    return PurifyOutcome(BellDiagonal(a, b, c, d), p)


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
    if k == 0:
        return PurifyOutcome(s, 1.0)
    a, b, c, d, p_k = _pump(*s, k, _gate_charge(q_g, 4 * n * (2**k - 1)))
    return PurifyOutcome(BellDiagonal(a, b, c, d), p_k)
