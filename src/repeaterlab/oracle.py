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
import operator
from typing import NamedTuple, Sequence

import numpy as np

from ._checked import checked_tuple
from .bell_algebra import BellDiagonal, PurifyOutcome, purify_imperfect_exact
from .codes import Code

__all__ = [
    "DensityMatrix",
    "GateErrorVariant",
    "VariantReport",
    "simulate_purification_round",
    "simulate_swapping",
    "enumerate_logical_error",
    "match_gate_variant",
]

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10
_MATCH_TOL = 1e-10
_SWAP_TOL = 1e-10  # oracle-verify: the swap circuit against swap_ideal
_ENUM_TOL = 1e-12  # oracle-verify: enumeration against the binomial tail sum
_ENUM_MAX_N = 15  # enumerate_logical_error walks at most 2^15 patterns

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

# sqrt(i X) rotations of the recurrence protocol (Deutsch et al. 1996),
# U on the source-A side and its conjugate on the source-B side of a pair
_U_A = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
_ROTATE_PAIR = np.kron(_U_A, _U_A.conj())

# the swap's Hadamard on qubit 1 of four; real and symmetric, so self-adjoint
_H_ON_1 = np.kron(np.kron(np.eye(2), _H), np.eye(4))

# the swap's Pauli corrections on qubit 3, deferred past the measurement as
# gates controlled by the readouts: X for a Z readout 1 (qubit 2), then Z
# for an X readout 1 (qubit 1)
_SWAP_CORRECTIONS = (("CNOT", (2, 3)), ("CZ", (1, 3)))

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
_BELL_H = _BELL.conj().T


class GateErrorVariant(enum.Enum):
    """Placement and Pauli content of the two-qubit gate error channel."""

    ZZ_BEFORE = "zz_before"
    ZZ_AFTER = "zz_after"
    ZCXT_BEFORE = "z_control_x_target_before"
    ZCXT_AFTER = "z_control_x_target_after"


class DensityMatrix(checked_tuple("DensityMatrix", "matrix")):
    """A validated density matrix on at most four qubits.

    Construction asserts Hermiticity, unit trace, and an eigenvalue floor.
    ``__new__`` stores the matrix as a complex array, which ``__init__``
    checks.  The circuits run on plain arrays, physical by construction.
    """

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray) -> DensityMatrix:
        return tuple.__new__(cls, (np.asarray(matrix, dtype=complex),))

    def __init__(self, matrix: np.ndarray) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim not in (2, 4, 8, 16):
            raise ValueError(f"dimension must be 2^m with m <= 4, got {dim}")
        # negated bounds, so that a NaN fails them too
        if not np.abs(m - m.conj().T).max() <= _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian")
        trace = np.trace(m)
        if not (abs(trace.real - 1.0) <= _TRACE_TOL and abs(trace.imag) <= _TRACE_TOL):
            raise ValueError(f"trace must be 1, got {trace}")
        lowest = np.linalg.eigvalsh(m).min()
        if lowest < _EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue below floor: {lowest}")


_SCRUB = np.zeros(64)  # written by _product, read by nothing


def _product(*factors: np.ndarray) -> np.ndarray:
    """The matrix product of ``factors``, associated left to right as ``a @ b @ c`` is.

    Every matrix product of the oracle goes through here.  On an AVX-512
    host, OpenBLAS's complex kernel (zgemm) leaves the vector unit in a slow
    state, as a kernel that returns without VZEROUPPER would.  Measured on a
    2-vCPU AVX-512 Xeon with numpy 2.4.6 and OpenBLAS 0.3.31, the code that
    ran next, numpy's Monte Carlo draws and plain CPython float code alike,
    took 1.5-1.65x as long until other vector code ran; a real product
    (dgemm) and ``eigvalsh`` left no such state.  One float64 ufunc over 64
    elements clears it, so each product ends with one; perfbench's verify
    workload then ran 37% more passes per second.
    """
    product = functools.reduce(np.matmul, factors)
    np.negative(_SCRUB, out=_SCRUB)
    return product


def _bell_matrix(s: BellDiagonal) -> np.ndarray:
    """The 4x4 matrix of a normalized Bell-diagonal state.

    A nonnegative ``BellDiagonal`` of unit sum gives a Hermitian, unit-trace,
    positive matrix by construction, so the circuits use it unvalidated.
    """
    if abs(s.total() - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized, coefficients sum to {s.total()}")
    return _product(_BELL, np.diag(s).astype(complex), _BELL_H)


@functools.cache
def _index_map(m: int, gate: str, qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(gather, mask) of a signed-permutation gate on an m-qubit register.

    X, Z, CNOT and CZ send basis state j to s_j |perm[j]>, with perm an
    involution and s_j = +-1; X and CNOT have no signs (an all-ones mask),
    Z and CZ no permutation (the identity gather).  Then
    U rho U^dagger = mask * rho[perm][:, perm] with mask = outer(s, s);
    ``gather`` holds the flat indices of rho[perm][:, perm], so that one
    ``take`` does both row and column moves.
    """
    dim, shift = 2**m, [m - 1 - q for q in qubits]
    perm, sign = range(dim), [1] * dim
    if gate == "X":
        perm = [j ^ (1 << shift[0]) for j in range(dim)]
    elif gate == "CNOT":
        perm = [j ^ (((j >> shift[0]) & 1) << shift[1]) for j in range(dim)]
    elif gate == "Z":
        sign = [1 - 2 * ((j >> shift[0]) & 1) for j in range(dim)]
    elif gate == "CZ":
        sign = [1 - 2 * ((j >> shift[0]) & (j >> shift[1]) & 1) for j in range(dim)]
    else:
        raise ValueError(f"no index map for gate {gate!r}")
    # plain ints: numpy's shift and bitwise ufuncs run nowhere else in the
    # oracle, and their first call costs a 128 KB step of peak RSS
    gather = np.array([[a * dim + b for b in perm] for a in perm])
    mask = np.array([[a * b for b in sign] for a in sign], dtype=float)
    for table in (gather, mask):
        table.setflags(write=False)
    return gather, mask


@functools.cache
def _step_tables(m: int, programs: tuple) -> tuple[np.ndarray, ...]:
    """Stacked tables of equal-length gate programs on m qubits, one per row.

    Step k of row v applies gate ``programs[v][k]`` to row v: ``gather`` is
    the gate's :func:`_index_map` gather moved into row v.  A Pauli X or Z
    is a noisy flip, a CNOT or CZ a unitary; ``flip`` is 1 on flip rows,
    and ``flip_mask`` and ``unitary_mask`` carry the gate's mask on flip
    and unitary rows.  All but ``gather`` are complex, so that no step casts.
    """
    size, steps = 4**m, list(zip(*programs))
    maps = [[_index_map(m, gate, qubits) for gate, qubits in step] for step in steps]
    gather = np.array([[v * size + g.ravel() for v, (g, _) in enumerate(s)] for s in maps])
    mask = np.array([[k.ravel() for _, k in s] for s in maps], dtype=complex)
    flip = np.array([[[gate in ("X", "Z")] for gate, _ in step] for step in steps], dtype=complex).repeat(size, -1)
    tables = gather, flip, flip * mask, (1.0 - flip) * mask
    for table in tables:
        table.setflags(write=False)
    return tables


def _run(rho: np.ndarray, programs: tuple, q: float = 0.0) -> np.ndarray:
    """Run each gate program on its own copy of the matrix ``rho``: (rows, dim, dim).

    Every step is one update r <- a r + b (mask * r[gather]) of the whole
    stack: (a, b) = (1 - q, q) makes a Pauli X or Z the flip channel
    (1 - q) rho + q P rho P, and (a, b) = (0, 1) makes a CNOT or CZ the
    unitary U rho U^dagger.
    """
    dim = rho.shape[0]
    gather, flip, flip_mask, unitary_mask = _step_tables(dim.bit_length() - 1, programs)
    a, b_mask = (1.0 - q) * flip, q * flip_mask + unitary_mask
    rho = rho.reshape(1, -1).repeat(len(programs), 0)
    for step in range(len(gather)):
        rho = a[step] * rho + b_mask[step] * rho.take(gather[step])
    return rho.reshape(-1, dim, dim)


def _gate_program(control: int, target: int, gate: str, variant: GateErrorVariant) -> tuple:
    """A noisy gate's steps: Z flips on the control, Z or X on the target, as the variant says."""
    target_pauli = "Z" if variant in (GateErrorVariant.ZZ_BEFORE, GateErrorVariant.ZZ_AFTER) else "X"
    noise, unitary = (("Z", (control,)), (target_pauli, (target,))), ((gate, (control, target)),)
    return noise + unitary if variant in (GateErrorVariant.ZZ_BEFORE, GateErrorVariant.ZCXT_BEFORE) else unitary + noise


# the noisy CNOTs 0 -> 2 and 1 -> 3 of a purification round, per variant
_ROUND_PROGRAMS = {v: _gate_program(0, 2, "CNOT", v) + _gate_program(1, 3, "CNOT", v) for v in GateErrorVariant}


def _check_gate_error(q_g: float) -> None:
    if not 0.0 <= q_g < 0.5:
        raise ValueError(f"q_g must lie in [0, 1/2), got {q_g}")


def _bell_coefficients(rho: np.ndarray) -> list:
    """Bell-basis diagonal of a two-qubit matrix, or of each in a stack, as floats."""
    return np.diagonal(_product(_BELL_H, rho, _BELL), axis1=-2, axis2=-1).real.tolist()


def _two_copies(pair: np.ndarray) -> np.ndarray:
    """kron(pair, pair), as the elementwise outer product np.kron computes."""
    return (pair[:, None, :, None] * pair[None, :, None, :]).reshape(16, 16)


def _rotated_copies(s: BellDiagonal) -> np.ndarray:
    """Two copies of ``s`` on pairs (0,1) and (2,3) after the sqrt(iX) rotations.

    Each pair is rotated before the copies are joined: (R x R) (P x P)
    (R x R)^dagger equals (R P R^dagger) x (R P R^dagger).
    """
    pair = _bell_matrix(s)
    return _two_copies(_product(_ROTATE_PAIR, pair, _ROTATE_PAIR.conj().T))


def _purify_rotated(rotated: np.ndarray, q_g: float, variants: tuple) -> list[PurifyOutcome]:
    """The noisy CNOTs and the postselection of a round, one stacked row per variant."""
    rho = _run(rotated, tuple(_ROUND_PROGRAMS[v] for v in variants), q_g)

    # axes (variant, pair 01 ket, pair 23 ket, pair 01 bra, pair 23 bra):
    # keep the outcomes 00 and 11 of qubits 2 and 3 and trace them out
    t = rho.reshape(-1, 4, 4, 4, 4)
    kept = t[:, :, 0, :, 0] + t[:, :, 3, :, 3]
    p = np.trace(kept, axis1=1, axis2=2).real
    coeffs = _bell_coefficients(kept / p[:, None, None])
    return [PurifyOutcome(BellDiagonal(*c), w) for c, w in zip(coeffs, p.tolist())]


def simulate_purification_round(
    s: BellDiagonal, q_g: float, variant: GateErrorVariant = GateErrorVariant.ZCXT_AFTER
) -> PurifyOutcome:
    """One purification round as an explicit 16x16 circuit.

    Two copies of ``s`` on pairs (0,1) and (2,3); sqrt(iX) rotations on the
    A side (qubits 0, 2), conjugate rotations on the B side (1, 3); noisy
    CNOTs 0 -> 2 and 1 -> 3; qubits 2 and 3 measured in the computational
    basis keeping the even-parity branches; surviving pair Bell-projected.
    """
    _check_gate_error(q_g)
    if not isinstance(variant, GateErrorVariant):
        names = ", ".join(v.value for v in GateErrorVariant)
        raise ValueError(f"variant must be one of {names}, got {variant!r}")
    return _purify_rotated(_rotated_copies(s), q_g, (variant,))[0]


def simulate_swapping(s: BellDiagonal) -> BellDiagonal:
    """Entanglement swapping of two copies of ``s`` as an explicit circuit.

    Pairs (0,1) and (2,3); the middle station holds qubits 1 and 2 and
    performs a Bell measurement (CNOT 1 -> 2, X-measure 1, Z-measure 2),
    the X readout taken as a Z readout after a Hadamard on qubit 1.
    Each outcome's Pauli correction on qubit 3 runs as a gate controlled by
    the readout qubit, the branches are averaged, and the remaining pair
    (0, 3) is Bell-projected.
    """
    pair = _bell_matrix(s)
    rho = _product(_H_ON_1, _run(_two_copies(pair), ((("CNOT", (1, 2)),),))[0], _H_ON_1)
    t = _run(rho, (_SWAP_CORRECTIONS,))[0].reshape((2,) * 8)
    # the corrected branch (xm, zm) of the pair (0, 3), qubits 1 and 2 traced out
    out = sum(t[:, xm, zm, :, :, xm, zm, :] for xm, zm in ((0, 0), (1, 0), (0, 1), (1, 1)))
    return BellDiagonal(*_bell_coefficients(out.reshape(4, 4)))


@functools.cache
def _heavy_weights(n: int, t: int) -> bytes:
    """Hamming weights above t of the n-bit patterns, in pattern order."""
    return bytes(w for w in map(int.bit_count, range(2**n)) if w > t)


def enumerate_logical_error(code: Code, q: float) -> float:
    """Decoding failure probability by exhaustive error-pattern enumeration.

    Walks all 2^n i.i.d. flip patterns in order and adds up those with more
    than (d - 1)/2 flips, each with probability q^w (1 - q)^(n - w) read
    from a per-call table by its Hamming weight w; the weights of the
    counted patterns are cached per (n, t).  Refuses n > 15
    (``_ENUM_MAX_N``: 32768 patterns is the ceiling).
    """
    if code.n > _ENUM_MAX_N:
        raise ValueError(f"enumeration is limited to n <= {_ENUM_MAX_N}, got n={code.n}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    term = [q**w * (1.0 - q) ** (code.n - w) for w in range(code.n + 1)]
    return functools.reduce(operator.add, map(term.__getitem__, _heavy_weights(code.n, code.t)), 0.0)


class VariantReport(NamedTuple):
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
    success probability from :func:`purify_imperfect_exact`.  The variants
    differ only after the rotations, so each sample's rotated copies are
    built once, and the four noisy-CNOT tails run on them as one (4, 256)
    stack: six steps r <- a r + b (mask * r[gather]), then one batched
    postselection and Bell projection.
    """
    pts = list(samples if samples is not None else _default_samples())
    if not pts:
        raise ValueError("need at least one (state, q_g) sample")
    worst = dict.fromkeys(GateErrorVariant, 0.0)
    for s, q_g in pts:
        _check_gate_error(q_g)
        rotated = _rotated_copies(s)
        ref = purify_imperfect_exact(s, q_g)
        want = (*ref.state, ref.success_prob)
        for variant, sim in zip(worst, _purify_rotated(rotated, q_g, tuple(worst))):
            got = (*sim.state, sim.success_prob)
            worst[variant] = max(worst[variant], *(abs(x - y) for x, y in zip(got, want)))
    return VariantReport(tuple(worst.items()))
