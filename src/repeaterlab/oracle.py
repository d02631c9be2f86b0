"""Brute-force cross-checks for the Bell-diagonal recursions.

Nothing here shares code with the closed forms in :mod:`bell_algebra` or
:mod:`codes`: purification and swapping are simulated as explicit few-qubit
density-matrix circuits, and block decoding failure is summed by exhaustive
enumeration over error patterns.  Tests freeze values produced by this
module and hold the fast paths to them.

Qubit order is big-endian: qubit 0 is the most significant bit of the
computational index.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bell_algebra import BellDiagonal, PurifyOutcome, purify_imperfect_exact
from .codes import Code

__all__ = [
    "DensityMatrix",
    "GateErrorVariant",
    "VariantReport",
    "apply_dephasing",
    "apply_noisy_two_qubit_gate",
    "bell_diagonal_projection",
    "simulate_purification_round",
    "simulate_swapping",
    "enumerate_logical_error",
    "match_gate_variant",
]

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10
_MATCH_TOL = 1e-10

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

# two-qubit gates on (control, target)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

# sqrt(i X) rotations of the recurrence protocol (Deutsch et al. 1996):
# U on the source-A side, its conjugate on the source-B side.
_U_A = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
_U_B = _U_A.conj()

# Pauli correction on qubit 3 for each swap outcome (X readout, Z readout)
_SWAP_CORRECTIONS = {(0, 0): _I2, (1, 0): _Z, (0, 1): _X, (1, 1): _Z @ _X}

# columns: phi+, phi-, psi+, psi- in the big-endian computational basis
_BELL = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ],
    dtype=complex,
) / np.sqrt(2.0)


class GateErrorVariant(enum.Enum):
    """Placement and Pauli content of the two-qubit gate error channel."""

    ZZ_BEFORE = "zz_before"
    ZZ_AFTER = "zz_after"
    ZCXT_BEFORE = "z_control_x_target_before"
    ZCXT_AFTER = "z_control_x_target_after"


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix on at most four qubits.

    Construction asserts Hermiticity, unit trace, and an eigenvalue floor,
    so every channel application re-certifies physicality.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim not in (2, 4, 8, 16):
            raise ValueError(f"dimension must be 2^m with m <= 4, got {dim}")
        if np.abs(m - m.conj().T).max() > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian")
        trace = np.trace(m)
        if abs(trace.real - 1.0) > _TRACE_TOL or abs(trace.imag) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {trace}")
        lowest = np.linalg.eigvalsh(m).min()
        if lowest < _EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue below floor: {lowest}")

    @property
    def num_qubits(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1

    @classmethod
    def from_bell_diagonal(cls, s: BellDiagonal) -> "DensityMatrix":
        """Two-qubit Bell-diagonal state; requires a normalized input."""
        if abs(s.total() - 1.0) > 1e-9:
            raise ValueError(f"state must be normalized, coefficients sum to {s.total()}")
        return cls(_BELL @ np.diag(s.as_tuple()).astype(complex) @ _BELL.conj().T)


@functools.cache
def _axis_orders(m: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis permutation that brings the listed qubits' axes out, and its inverse.

    Of the 2m axes of an m-qubit density tensor (m ket axes, then m bra
    axes), the listed ket axes go to the front in order, the listed bra
    axes to the back in order, and the rest keep their relative order.
    """
    bras = tuple(m + q for q in qubits)
    forward = (*qubits, *(a for a in range(2 * m) if a not in qubits and a not in bras), *bras)
    inverse = tuple(sorted(range(2 * m), key=forward.__getitem__))
    return forward, inverse


def _apply(rho: np.ndarray, op: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """op rho op^dagger for a 2^k x 2^k ``op`` on the listed qubits, in order.

    As a (2,)*2m tensor, rho has the m ket axes first and the m bra axes
    last; the listed ket axes move to the front for op and the listed bra
    axes to the back for op^dagger, and both move back.
    """
    m, k = rho.shape[0].bit_length() - 1, len(qubits)
    forward, inverse = _axis_orders(m, tuple(qubits))
    t = rho.reshape((2,) * 2 * m).transpose(forward)
    t = (op @ t.reshape(2**k, -1)).reshape(-1, 2**k) @ op.conj().T
    return t.reshape((2,) * 2 * m).transpose(inverse).reshape(rho.shape)


def _flip(rho: np.ndarray, pauli: np.ndarray, qubit: int, q: float) -> np.ndarray:
    """Pauli flip channel (1 - q) rho + q P rho P on one qubit."""
    return (1.0 - q) * rho + q * _apply(rho, pauli, (qubit,))


def _check_pair(control: int, target: int, m: int) -> None:
    if control == target:
        raise ValueError("control and target must differ")
    for name, idx in (("control", control), ("target", target)):
        if not 0 <= idx < m:
            raise ValueError(f"{name} index {idx} out of range for {m} qubits")


def _noisy_gate_raw(
    rho: np.ndarray,
    control: int,
    target: int,
    q_g: float,
    gate: str,
    variant: GateErrorVariant,
) -> np.ndarray:
    if gate not in ("CNOT", "CZ"):
        raise ValueError(f"gate must be 'CZ' or 'CNOT', got {gate!r}")
    u = _CNOT if gate == "CNOT" else _CZ
    target_pauli = _Z if variant in (GateErrorVariant.ZZ_BEFORE, GateErrorVariant.ZZ_AFTER) else _X

    def noise(r: np.ndarray) -> np.ndarray:
        # independent flips: Z on the control and (Z or X) on the target,
        # each with probability q_g
        return _flip(_flip(r, _Z, control, q_g), target_pauli, target, q_g)

    if variant in (GateErrorVariant.ZZ_BEFORE, GateErrorVariant.ZCXT_BEFORE):
        return _apply(noise(rho), u, (control, target))
    return noise(_apply(rho, u, (control, target)))


def apply_dephasing(rho: DensityMatrix, qubit: int, q: float) -> DensityMatrix:
    """Phase-flip channel (1 - q) rho + q Z rho Z on one qubit."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    m = rho.num_qubits
    if not 0 <= qubit < m:
        raise ValueError(f"qubit index {qubit} out of range for {m} qubits")
    return DensityMatrix(_flip(rho.matrix, _Z, qubit, q))


def apply_noisy_two_qubit_gate(
    rho: DensityMatrix,
    control: int,
    target: int,
    q_g: float,
    gate: str = "CNOT",
    variant: GateErrorVariant = GateErrorVariant.ZCXT_AFTER,
) -> DensityMatrix:
    """Ideal CZ or CNOT composed with per-qubit Pauli error channels.

    Each participating qubit flips independently with probability q_g:
    Z on the control and, per the variant, Z or X on the target; the
    channel acts before or after the unitary as the variant name says.
    """
    if not 0.0 <= q_g < 0.5:
        raise ValueError(f"q_g must lie in [0, 1/2), got {q_g}")
    _check_pair(control, target, rho.num_qubits)
    return DensityMatrix(_noisy_gate_raw(rho.matrix, control, target, q_g, gate, variant))


def _bell_project(rho4: np.ndarray) -> tuple[BellDiagonal, float]:
    in_bell = _BELL.conj().T @ rho4 @ _BELL
    diag = np.diag(in_bell)
    residual = in_bell - np.diag(diag)
    return BellDiagonal(*(float(x) for x in diag.real)), float(np.linalg.norm(residual))


def bell_diagonal_projection(rho: DensityMatrix) -> tuple[BellDiagonal, float]:
    """Bell-basis diagonal of a two-qubit state plus the discarded weight.

    The twirl keeps the four diagonal coefficients in the (phi+, phi-,
    psi+, psi-) basis; the Frobenius norm of the off-diagonal residual is
    returned as a diagnostic (zero iff the state was already
    Bell-diagonal, so the projection is idempotent).
    """
    if rho.matrix.shape[0] != 4:
        raise ValueError("Bell projection needs a two-qubit state")
    return _bell_project(rho.matrix)


def simulate_purification_round(
    s: BellDiagonal, q_g: float, variant: GateErrorVariant = GateErrorVariant.ZCXT_AFTER
) -> PurifyOutcome:
    """One purification round as an explicit 16x16 circuit.

    Two copies of ``s`` on pairs (0,1) and (2,3); sqrt(iX) rotations on the
    A side (qubits 0, 2), conjugate rotations on the B side (1, 3); noisy
    CNOTs 0 -> 2 and 1 -> 3; qubits 2 and 3 measured in the computational
    basis keeping the even-parity branches; surviving pair Bell-projected.
    """
    if not 0.0 <= q_g < 0.5:
        raise ValueError(f"q_g must lie in [0, 1/2), got {q_g}")
    pair = DensityMatrix.from_bell_diagonal(s).matrix
    rho = np.kron(pair, pair)
    for qubit, u in enumerate((_U_A, _U_B, _U_A, _U_B)):
        rho = _apply(rho, u, (qubit,))
    rho = _noisy_gate_raw(rho, 0, 2, q_g, "CNOT", variant)
    rho = _noisy_gate_raw(rho, 1, 3, q_g, "CNOT", variant)

    # axes (pair 01 ket, pair 23 ket, pair 01 bra, pair 23 bra): keep the
    # outcomes 00 and 11 of qubits 2 and 3 and trace them out
    t = rho.reshape(4, 4, 4, 4)
    kept = t[:, 0, :, 0] + t[:, 3, :, 3]
    p = float(np.trace(kept).real)
    if p <= 0.0:
        raise ArithmeticError("postselection kept zero weight")
    return PurifyOutcome(_bell_project(kept / p)[0], p)


def simulate_swapping(s: BellDiagonal) -> BellDiagonal:
    """Entanglement swapping of two copies of ``s`` as an explicit circuit.

    Pairs (0,1) and (2,3); the middle station holds qubits 1 and 2 and
    performs a Bell measurement (CNOT 1 -> 2, X-measure 1, Z-measure 2),
    the X readout taken as a Z readout after a Hadamard on qubit 1.
    Each outcome's Pauli correction is applied to qubit 3, the branches are
    averaged, and the remaining pair (0, 3) is Bell-projected.
    """
    pair = DensityMatrix.from_bell_diagonal(s).matrix
    rho = _apply(_apply(np.kron(pair, pair), _CNOT, (1, 2)), _H, (1,))
    t = rho.reshape((2,) * 8)
    # branch (xm, zm) of the remaining pair (0, 3), measured qubits 1 and 2 traced out
    out = sum(
        _apply(t[:, xm, zm, :, :, xm, zm, :].reshape(4, 4), corr, (1,))
        for (xm, zm), corr in _SWAP_CORRECTIONS.items()
    )
    return _bell_project(out)[0]


def enumerate_logical_error(code: Code, q: float) -> float:
    """Decoding failure probability by exhaustive error-pattern enumeration.

    Walks all 2^n i.i.d. flip patterns and adds up those with more than
    (d - 1)/2 flips.  Refuses n > 15 (32768 patterns is the ceiling).
    """
    if code.n > 15:
        raise ValueError(f"enumeration is limited to n <= 15, got n={code.n}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    total = 0.0
    for pattern in range(2**code.n):
        w = pattern.bit_count()
        if w > code.t:
            total += q**w * (1.0 - q) ** (code.n - w)
    return total


@dataclass(frozen=True)
class VariantReport:
    """Deviation of each gate-error placement from the closed-form round."""

    rows: tuple[tuple[GateErrorVariant, float], ...]

    @property
    def matching(self) -> tuple[GateErrorVariant, ...]:
        return tuple(v for v, dev in self.rows if dev <= _MATCH_TOL)

    def __str__(self) -> str:
        lines = [f"{v.value:32s} max deviation {dev:.3e}" for v, dev in self.rows]
        lines.append("matching: " + (", ".join(v.value for v in self.matching) or "none"))
        return "\n".join(lines)


def _default_samples() -> list[tuple[BellDiagonal, float]]:
    states = [
        BellDiagonal(0.9, 0.05, 0.03, 0.02),
        BellDiagonal(0.75, 0.1, 0.1, 0.05),
        BellDiagonal(0.95, 0.0, 0.05, 0.0),
        BellDiagonal(0.6, 0.2, 0.15, 0.05),
    ]
    gates = [1e-3, 1e-2, 0.1, 0.3]
    return list(itertools.product(states, gates))


def match_gate_variant(
    samples: Sequence[tuple[BellDiagonal, float]] | None = None,
) -> VariantReport:
    """Identify which error placement reproduces the closed-form round.

    For every variant, simulate one purification round on each sample and
    record the worst absolute deviation of the output coefficients and the
    success probability from :func:`purify_imperfect_exact`.
    """
    pts = list(samples if samples is not None else _default_samples())
    if not pts:
        raise ValueError("need at least one (state, q_g) sample")
    rows = []
    for variant in GateErrorVariant:
        worst = 0.0
        for s, q_g in pts:
            sim = simulate_purification_round(s, q_g, variant)
            ref = purify_imperfect_exact(s, q_g)
            got = (*sim.state.as_tuple(), sim.success_prob)
            want = (*ref.state.as_tuple(), ref.success_prob)
            worst = max(worst, *(abs(x - y) for x, y in zip(got, want)))
        rows.append((variant, worst))
    return VariantReport(tuple(rows))
