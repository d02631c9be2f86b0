"""Density-matrix circuits against the closed-form recursions."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from repeaterlab import oracle
from repeaterlab.bell_algebra import BellDiagonal, purify_ideal, purify_imperfect_exact, swap_ideal
from repeaterlab.codes import Code, code_catalog, logical_error_prob
from repeaterlab.core import memory_error_prob
from repeaterlab.oracle import (
    DensityMatrix,
    GateErrorVariant,
    _bell_coefficients,
    _bell_matrix,
    _gate_program,
    _index_map,
    _rotated_copies,
    _run,
    enumerate_logical_error,
    match_gate_variant,
    simulate_purification_round,
    simulate_swapping,
)

PHI_PLUS = BellDiagonal(1.0, 0.0, 0.0, 0.0)


def random_state(rng):
    return BellDiagonal(*rng.dirichlet((1.0, 1.0, 1.0, 1.0)))


def dephase(rho, qubits, q):
    """The flip channel (1 - q) rho + q Z rho Z on each of ``qubits`` in turn, through the engine."""
    return _run(rho, (tuple(("Z", (qubit,)) for qubit in qubits),), q)[0]


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(m)

    @pytest.mark.parametrize("entry", [(1, 1), (0, 1)])
    def test_nan_entry_is_a_value_error(self, entry):
        # a NaN on the diagonal once reached numpy's LinAlgError, and one off
        # it passed, because the eigenvalue solve reads only one triangle
        m = np.eye(4, dtype=complex) / 4.0
        m[entry] = math.nan
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_negative(self):
        m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((2, 4), r"matrix must be square, got shape \(2, 4\)"),
            ((4,), r"matrix must be square, got shape \(4,\)"),
            ((1, 1), r"dimension must be 2\^m with m <= 4, got 1"),
            ((3, 3), r"dimension must be 2\^m with m <= 4, got 3"),
            ((32, 32), r"dimension must be 2\^m with m <= 4, got 32"),
        ],
    )
    def test_rejects_bad_shape(self, shape, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DensityMatrix(np.zeros(shape))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_accepts_every_register_size(self, m):
        # a real input is stored as the complex array the checks ran on
        rho = DensityMatrix(np.eye(2**m) / 2**m)
        assert rho.matrix.dtype == complex
        assert np.array_equal(rho.matrix, np.eye(2**m) / 2**m)

    def test_projection_idempotent(self):
        # the Bell projection both circuits end on: a non-Bell-diagonal state
        # loses its off-diagonal Bell-basis weight, and projecting again
        # changes nothing
        rng = np.random.default_rng(7)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = DensityMatrix(0.7 * np.outer(v, v.conj()) + 0.3 * np.eye(4) / 4.0).matrix
        once = _bell_coefficients(rho)
        assert np.abs(rho - _bell_matrix(BellDiagonal(*once))).max() > 1e-3
        again = _bell_coefficients(_bell_matrix(BellDiagonal(*once)))
        assert again == pytest.approx(once, abs=1e-14)


class TestBellMatrix:
    def test_coefficients_round_trip(self):
        s = BellDiagonal(0.7, 0.1, 0.15, 0.05)
        assert _bell_coefficients(_bell_matrix(s)) == pytest.approx(s, abs=1e-14)

    def test_needs_normalized(self):
        with pytest.raises(ValueError, match="^state must be normalized, coefficients sum to 0.7$"):
            _bell_matrix(BellDiagonal(0.5, 0.2, 0.0, 0.0))

    def test_nan_state_is_a_value_error(self):
        # not numpy's LinAlgError from an eigenvalue solve on NaN entries
        with pytest.raises(ValueError, match="^coefficient b"):
            simulate_swapping(BellDiagonal(0.7, math.nan, 0.2, 0.1))
        with pytest.raises(ValueError, match="^coefficient a"):
            match_gate_variant([(BellDiagonal(math.nan, 0.1, 0.1, 0.1), 0.01)])


class TestDephasing:
    def test_identity(self):
        rho = _bell_matrix(BellDiagonal(0.7, 0.1, 0.15, 0.05))
        assert np.allclose(dephase(rho, (0,), 0.0), rho)

    def test_full_dephasing_of_phi_plus(self):
        coeffs = _bell_coefficients(dephase(_bell_matrix(PHI_PLUS), (0,), 0.5))
        assert coeffs == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-14)

    def test_two_half_windows_compose(self):
        # q(t/2) on each side of the pair reproduces the q_m(t) mixture
        t, tau = 0.08, 0.1
        q_half = memory_error_prob(t / 2.0, tau)
        q_full = memory_error_prob(t, tau)
        coeffs = _bell_coefficients(dephase(_bell_matrix(PHI_PLUS), (0, 1), q_half))
        assert coeffs == pytest.approx((1.0 - q_full, q_full, 0.0, 0.0), rel=1e-12)


class TestNoisyGate:
    def test_noiseless_cnot_on_bell(self):
        program = _gate_program(0, 1, "CNOT", GateErrorVariant.ZCXT_AFTER)
        out = _run(_bell_matrix(PHI_PLUS), (program,), 0.0)[0]
        # CNOT maps phi+ to (|00> + |10>)/sqrt(2): separable, still physical
        assert out.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_cz_error_weights(self):
        # on |++> every Z-error branch lands orthogonal to the ideal output
        # (<+|-> = 0), so the output fidelity is exactly the no-error weight
        plus = np.full((4,), 0.5, dtype=complex)
        rho = np.outer(plus, plus.conj())
        q = 0.2
        program = _gate_program(0, 1, "CZ", GateErrorVariant.ZZ_BEFORE)
        out, ideal = _run(rho, (program,), q)[0], _run(rho, (program,), 0.0)[0]
        overlap = float(np.real(np.trace(out @ ideal)))
        assert overlap == pytest.approx((1.0 - q) ** 2, rel=1e-12)

    def test_bad_gate_name(self):
        with pytest.raises(ValueError, match=r"^no index map for gate 'SWAP'$"):
            _run(_bell_matrix(PHI_PLUS), ((("SWAP", (0, 1)),),))


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def random_density_matrix(rng, m):
    a = rng.normal(size=(2**m, 2**m)) + 1j * rng.normal(size=(2**m, 2**m))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def embed(op, qubit, m):
    """One-qubit operator at ``qubit`` of a big-endian m-qubit register."""
    full = np.ones((1, 1), dtype=complex)
    for i in range(m):
        full = np.kron(full, op if i == qubit else np.eye(2))
    return full


def gate_matrix(gate, control, target, m):
    """CNOT as a basis permutation or CZ as a sign diagonal, index by index."""
    u = np.zeros((2**m, 2**m), dtype=complex)
    for j in range(2**m):
        c = (j >> (m - 1 - control)) & 1
        t = (j >> (m - 1 - target)) & 1
        if gate == "CNOT":
            u[j ^ (c << (m - 1 - target)), j] = 1.0
        else:
            u[j, j] = -1.0 if c and t else 1.0
    return u


def reference_noisy_gate(rho, control, target, q, gate, variant):
    m = rho.shape[0].bit_length() - 1
    target_pauli = _PAULI_Z if variant.value.startswith("zz") else _PAULI_X

    def noise(r):
        for pauli, qubit in ((_PAULI_Z, control), (target_pauli, target)):
            k = embed(pauli, qubit, m)
            r = (1.0 - q) * r + q * (k @ r @ k)
        return r

    u = gate_matrix(gate, control, target, m)
    if variant.value.endswith("before"):
        rho = noise(rho)
    rho = u @ rho @ u.conj().T
    return rho if variant.value.endswith("before") else noise(rho)


class TestQubitOrder:
    """The index-map gates and the rotated copies against dense kron/permutation references."""

    @pytest.mark.parametrize(
        "m, control, target", [(m, *pair) for m in (3, 4) for pair in itertools.permutations(range(m), 2)]
    )
    @pytest.mark.parametrize("variant", list(GateErrorVariant))
    @pytest.mark.parametrize("gate", ["CNOT", "CZ"])
    def test_noisy_gate_matches_reference(self, gate, variant, m, control, target):
        # purification runs on four qubits: every ordered pair, both gates
        rng = np.random.default_rng({3: 5, 4: 7}[m])
        program = _gate_program(control, target, gate, variant)
        for _ in range(3):
            rho = random_density_matrix(rng, m)
            got = _run(rho, (program,), 0.17)[0]
            want = reference_noisy_gate(rho, control, target, 0.17, gate, variant)
            assert np.abs(got - want).max() <= 1e-14

    def test_rotated_copies_match_reference(self):
        # U_A on the A side (qubits 0, 2), its conjugate on the B side (1, 3),
        # applied to the kron of the two unrotated copies
        u_a = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
        k = np.eye(16, dtype=complex)
        for qubit, u in enumerate((u_a, u_a.conj(), u_a, u_a.conj())):
            k = embed(u, qubit, 4) @ k
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = random_state(rng)
            pair = _bell_matrix(s)
            want = k @ np.kron(pair, pair) @ k.conj().T
            assert np.abs(_rotated_copies(s) - want).max() <= 1e-14

    def test_stacked_programs_match_single_runs(self):
        # each row of a stacked run is the run of its own program alone, bit for bit
        rng = np.random.default_rng(12)
        rho = random_density_matrix(rng, 4)
        programs = tuple(_gate_program(0, 2, "CNOT", v) + _gate_program(1, 3, "CZ", v) for v in GateErrorVariant)
        stacked = _run(rho, programs, 0.17)
        assert stacked.shape == (len(programs), 16, 16)
        for row, program in zip(stacked, programs):
            assert np.array_equal(row, _run(rho, (program,), 0.17)[0])


class TestPauliFlips:
    """X and Z flips as one-step stacked programs against dense kron references."""

    @pytest.mark.parametrize(
        "m, qubit", [(3, q) for q in range(3)] + [(4, q) for q in range(4)]
    )
    @pytest.mark.parametrize("pauli, matrix", [("X", _PAULI_X), ("Z", _PAULI_Z)])
    def test_flip_matches_reference(self, pauli, matrix, m, qubit):
        rng = np.random.default_rng(9 + m)
        for _ in range(3):
            rho = random_density_matrix(rng, m)
            k = embed(matrix, qubit, m)
            want = 0.7 * rho + 0.3 * (k @ rho @ k)
            got = _run(rho, (((pauli, (qubit,)),),), 0.3)[0]
            assert np.abs(got - want).max() <= 1e-14


_GATES_ON_M_QUBITS = [
    (m, gate, (q,)) for m in range(1, 5) for q in range(m) for gate in ("X", "Z")
] + [
    (m, gate, pair) for m in range(2, 5) for pair in itertools.permutations(range(m), 2) for gate in ("CNOT", "CZ")
]


class TestIndexMaps:
    @pytest.mark.parametrize("m, gate, qubits", _GATES_ON_M_QUBITS)
    def test_every_gate_has_a_full_table(self, m, gate, qubits):
        # one path per gate: a gather and a mask, even where one is trivial
        gather, mask = _index_map(m, gate, qubits)
        for table in (gather, mask):
            assert isinstance(table, np.ndarray)
            assert table.shape == (2**m, 2**m)
            assert not table.flags.writeable
        pauli = {"X": _PAULI_X, "Z": _PAULI_Z}
        u = embed(pauli[gate], qubits[0], m) if gate in pauli else gate_matrix(gate, *qubits, m)
        rho = random_density_matrix(np.random.default_rng(11 + m), m)
        assert np.abs(mask * rho.ravel().take(gather) - u @ rho @ u.conj().T).max() <= 1e-14

    def test_unknown_gate_has_no_map(self):
        with pytest.raises(ValueError, match=r"^no index map for gate 'H'$"):
            _index_map(2, "H", (0,))


class TestIndependence:
    def test_imports_from_closed_forms_only_the_reference_and_types(self):
        # the oracle shares no code with the closed forms: from the package
        # it takes the state types, the round it is compared against, Code,
        # and the checked value types' base
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("repeaterlab") for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("repeaterlab")):
                module = (node.module or "").removeprefix("repeaterlab").lstrip(".")
                imported |= {(module, a.name) for a in node.names}
        assert imported == {
            ("_checked", "checked_tuple"),
            ("bell_algebra", "BellDiagonal"),
            ("bell_algebra", "PurifyOutcome"),
            ("bell_algebra", "purify_imperfect_exact"),
            ("codes", "Code"),
        }


class TestPurificationCircuit:
    def test_noiseless_equals_recursion(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            s = random_state(rng)
            sim = simulate_purification_round(s, 0.0)
            ref = purify_ideal(s)
            assert sim.state.as_tuple() == pytest.approx(ref.state.as_tuple(), abs=1e-12)
            assert sim.success_prob == pytest.approx(ref.success_prob, abs=1e-12)

    def test_working_state(self):
        sim = simulate_purification_round(BellDiagonal(0.9, 0.1, 0.0, 0.0), 0.0)
        assert sim.state.a == pytest.approx(0.98780, abs=1e-5)
        assert sim.success_prob == pytest.approx(0.82, abs=1e-12)

    def test_noisy_matches_closed_form(self):
        s = BellDiagonal(0.9, 0.1, 0.0, 0.0)
        for variant in (GateErrorVariant.ZCXT_BEFORE, GateErrorVariant.ZCXT_AFTER):
            sim = simulate_purification_round(s, 1e-3, variant)
            ref = purify_imperfect_exact(s, 1e-3)
            dev = max(
                abs(x - y) for x, y in zip(sim.state.as_tuple(), ref.state.as_tuple())
            )
            assert dev <= 1e-10
            assert abs(sim.success_prob - ref.success_prob) <= 1e-10

    def test_zz_variant_deviates(self):
        s = BellDiagonal(0.9, 0.1, 0.0, 0.0)
        sim = simulate_purification_round(s, 1e-2, GateErrorVariant.ZZ_AFTER)
        ref = purify_imperfect_exact(s, 1e-2)
        dev = max(abs(x - y) for x, y in zip(sim.state.as_tuple(), ref.state.as_tuple()))
        assert dev > 1e-4

    def test_round_takes_variant_value_string(self):
        s = BellDiagonal(0.8, 0.1, 0.06, 0.04)
        by_name = simulate_purification_round(s, 0.1, "zz_before")
        assert by_name == simulate_purification_round(s, 0.1, GateErrorVariant.ZZ_BEFORE)
        assert by_name != simulate_purification_round(s, 0.1, GateErrorVariant.ZCXT_AFTER)
        with pytest.raises(ValueError, match="variant"):
            simulate_purification_round(s, 0.1, "zz_sideways")

    @pytest.mark.parametrize("q_g", [-0.01, 0.5, math.nan])
    def test_gate_error_domain(self, q_g):
        with pytest.raises(ValueError, match=rf"^q_g must lie in \[0, 1/2\), got {q_g}$"):
            simulate_purification_round(BellDiagonal(0.8, 0.1, 0.06, 0.04), q_g)


class TestSwappingCircuit:
    def test_examples(self):
        assert simulate_swapping(BellDiagonal(1.0, 0.0, 0.0, 0.0)).as_tuple() == pytest.approx(
            (1.0, 0.0, 0.0, 0.0), abs=1e-12
        )
        assert simulate_swapping(BellDiagonal(0.9, 0.1, 0.0, 0.0)).as_tuple() == pytest.approx(
            (0.82, 0.18, 0.0, 0.0), abs=1e-12
        )

    def test_random_states_match_recursion(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            s = random_state(rng)
            dev = max(
                abs(x - y)
                for x, y in zip(simulate_swapping(s).as_tuple(), swap_ideal(s).as_tuple())
            )
            assert dev <= 1e-12


class TestEnumeration:
    @pytest.mark.parametrize("label, q", [("[3,1,3]", 0.1), ("[7,1,3]", 0.05), ("[7,1,7]", 0.3)])
    def test_matches_tail(self, label, q):
        code = next(c for c in code_catalog() if c.label == label)
        assert enumerate_logical_error(code, q) == pytest.approx(
            logical_error_prob(code, q), abs=1e-12
        )

    def test_three_qubit_value(self):
        code = Code(3, 3, "repetition")
        assert enumerate_logical_error(code, 0.1) == pytest.approx(0.028, abs=1e-12)

    def test_refuses_large_codes(self):
        code = Code(51, 51, "repetition")
        with pytest.raises(ValueError):
            enumerate_logical_error(code, 0.1)
        with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\], got 1.5$"):
            enumerate_logical_error(Code(3, 3, "repetition"), 1.5)


class TestVariantReport:
    def test_default_run_singles_out_zcxt(self):
        report = match_gate_variant()
        assert set(report.matching) == {
            GateErrorVariant.ZCXT_BEFORE,
            GateErrorVariant.ZCXT_AFTER,
        }
        devs = dict(report.rows)
        assert devs[GateErrorVariant.ZZ_BEFORE] > 1e-3
        assert devs[GateErrorVariant.ZZ_AFTER] > 1e-3

    def test_degenerate_noiseless_samples(self):
        samples = [(BellDiagonal(0.9, 0.1, 0.0, 0.0), 0.0)]
        report = match_gate_variant(samples)
        assert set(report.matching) == set(GateErrorVariant)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            match_gate_variant([])

    def test_rows_equal_per_variant_rounds(self):
        # the shared rotated copies run the same circuit as a lone round
        rng = np.random.default_rng(12)
        samples = [(random_state(rng), float(10 ** rng.uniform(-3, -0.6))) for _ in range(20)]
        want = []
        for variant in GateErrorVariant:
            worst = 0.0
            for s, q_g in samples:
                sim = simulate_purification_round(s, q_g, variant)
                ref = purify_imperfect_exact(s, q_g)
                got = (*sim.state.as_tuple(), sim.success_prob)
                exp = (*ref.state.as_tuple(), ref.success_prob)
                worst = max(worst, *(abs(x - y) for x, y in zip(got, exp)))
            want.append((variant, worst))
        assert match_gate_variant(samples).rows == tuple(want)

    @pytest.mark.parametrize(
        "bad_at, sample, message",
        [
            (0, (BellDiagonal(0.8, 0.1, 0.05, 0.05), 0.6), r"q_g must lie in \[0, 1/2\), got 0.6"),
            (1, (BellDiagonal(0.8, 0.1, 0.05, 0.05), 0.6), r"q_g must lie in \[0, 1/2\), got 0.6"),
            (0, (BellDiagonal(0.5, 0.2, 0.0, 0.0), 0.01), "state must be normalized, coefficients sum to 0.7"),
            (1, (BellDiagonal(0.5, 0.2, 0.0, 0.0), 0.01), "state must be normalized, coefficients sum to 0.7"),
        ],
    )
    def test_first_bad_sample_raises(self, bad_at, sample, message):
        samples = [(BellDiagonal(0.9, 0.05, 0.03, 0.02), 0.01)] * 2
        samples[bad_at] = sample
        with pytest.raises(ValueError, match=f"^{message}$"):
            match_gate_variant(samples)

    def test_earlier_bad_sample_wins(self):
        good = (BellDiagonal(0.9, 0.05, 0.03, 0.02), 0.01)
        bad_state = (BellDiagonal(0.5, 0.2, 0.0, 0.0), 0.01)
        bad_gate = (BellDiagonal(0.8, 0.1, 0.05, 0.05), 0.6)
        with pytest.raises(ValueError, match="^state must be normalized"):
            match_gate_variant([good, bad_state, bad_gate])
        with pytest.raises(ValueError, match="^q_g must lie"):
            match_gate_variant([good, bad_gate, bad_state])

    def test_str_lists_rows(self):
        text = str(match_gate_variant([(BellDiagonal(0.9, 0.1, 0.0, 0.0), 0.0)]))
        assert "zz_before" in text and "matching:" in text
