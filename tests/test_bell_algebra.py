"""Bell-diagonal recursion checks: ideal maps, exact noisy round, the k-round pump and its charge."""

import pytest
from hypothesis import example, given, strategies as st

from repeaterlab.bell_algebra import (
    _COEFF_TOL,
    BellDiagonal,
    PurifyOutcome,
    _noisy_factors,
    _pump,
    _pump_noisy,
    purify_ideal,
    purify_imperfect_exact,
    purify_k_rounds_lower,
    swap_ideal,
)

S_WORK = BellDiagonal(0.9, 0.1, 0.0, 0.0)


def random_state(rng):
    a, b, c, d = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    return BellDiagonal(a, b, c, d)


# strategy: nonnegative 4-tuples normalized to 1
coeffs = st.tuples(*(st.floats(0.0, 1.0) for _ in range(4))).filter(lambda t: sum(t) > 1e-3)


def normalized(t):
    s = sum(t)
    return BellDiagonal(*(x / s for x in t))


# normalized, it sums to 1 + 2.2e-16, and one round gives P = (a + d)^2 =
# 1.0000000000000004: rounding dust inside PurifyOutcome's tolerance
DUST = (0.7656971347803532, 0.0, 0.0, 0.39766942635642344)


class TestBellDiagonal:
    def test_tuple_and_fidelity(self):
        s = BellDiagonal(0.7, 0.1, 0.15, 0.05)
        assert s.as_tuple() == (0.7, 0.1, 0.15, 0.05)
        assert s.a == 0.7  # the fidelity to phi+, read as the field itself
        with pytest.raises(AttributeError):
            s.fidelity
        assert s.total() == pytest.approx(1.0)

    def test_subnormalized_allowed(self):
        # bound states concede weight, they never exceed unit total
        s = BellDiagonal(0.5, 0.2, 0.0, 0.0)
        assert s.total() == pytest.approx(0.7)

    def test_rounding_dust_clamped(self):
        s = BellDiagonal(1.0, -1e-15, 0.0, 0.0)
        assert s.b == 0.0

    def test_super_normalized_rejected(self):
        with pytest.raises(ValueError, match=r"^coefficients must sum to <= 1, got 1\.1$"):
            BellDiagonal(0.9, 0.2, 0.0, 0.0)
        # rounding dust on the sum is accepted, just past the tolerance is not
        assert BellDiagonal(0.9, 0.1 + 0.5 * _COEFF_TOL, 0.0, 0.0).total() > 1.0
        with pytest.raises(ValueError, match=r"^coefficients must sum to <= 1, got 1\.000000000002$"):
            BellDiagonal(0.9, 0.1 + 2.0 * _COEFF_TOL, 0.0, 0.0)


class TestPurifyIdeal:
    def test_perfect_fixed_point(self):
        out = purify_ideal(BellDiagonal(1.0, 0.0, 0.0, 0.0))
        assert out.state.as_tuple() == (1.0, 0.0, 0.0, 0.0)
        assert out.success_prob == pytest.approx(1.0)

    def test_working_state(self):
        out = purify_ideal(S_WORK)
        assert out.state.a == pytest.approx(0.81 / 0.82, rel=1e-12)
        assert out.state.a == pytest.approx(0.98780, abs=1e-5)
        assert out.state.b == 0.0
        assert out.state.c == pytest.approx(0.01 / 0.82, rel=1e-12)
        assert out.state.c == pytest.approx(0.01220, abs=1e-5)
        assert out.state.d == 0.0
        assert out.success_prob == pytest.approx(0.82, rel=1e-12)

    def test_maximally_mixed_fixed_point(self):
        out = purify_ideal(BellDiagonal(0.25, 0.25, 0.25, 0.25))
        assert out.success_prob == pytest.approx(0.5, rel=1e-12)
        assert out.state.as_tuple() == pytest.approx((0.25,) * 4, rel=1e-12)

    @given(coeffs)
    @example(t=DUST)
    def test_normalized_output(self, t):
        out = purify_ideal(normalized(t))
        assert out.state.total() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= out.success_prob <= 1.0 + _COEFF_TOL


class TestSwapIdeal:
    @pytest.mark.parametrize(
        "state, expected",
        [
            ((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
            ((0.9, 0.1, 0.0, 0.0), (0.82, 0.18, 0.0, 0.0)),
            ((0.25, 0.25, 0.25, 0.25), (0.25, 0.25, 0.25, 0.25)),
        ],
    )
    def test_values(self, state, expected):
        out = swap_ideal(BellDiagonal(*state))
        assert out.as_tuple() == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @given(coeffs)
    def test_normalized_output(self, t):
        assert swap_ideal(normalized(t)).total() == pytest.approx(1.0, abs=1e-12)


class TestPurifyImperfectExact:
    @given(coeffs, st.floats(1e-3, 1.0))
    def test_noiseless_reduces_to_ideal(self, t, scale):
        # at q_g = 0 every noise term is a signed zero, so the exact round is
        # the ideal one to the bit
        s = BellDiagonal(*(scale * x / sum(t) for x in t))
        exact, ideal = purify_imperfect_exact(s, 0.0), purify_ideal(s)
        assert [v.hex() for v in (*exact.state, exact.success_prob)] == [
            v.hex() for v in (*ideal.state, ideal.success_prob)
        ]

    @given(coeffs, st.floats(1e-3, 1.0), st.floats(0.0, 0.5, exclude_max=True))
    def test_bitwise_the_polynomial(self, t, scale, q):
        s = BellDiagonal(*(scale * x / sum(t) for x in t))
        assert outcome_or_error(lambda: purify_imperfect_exact(s, q)) == outcome_or_error(
            lambda: noisy_round_polynomial(*s, q)
        )

    def test_oracle_pinned_point(self):
        # frozen from the 16x16 density-matrix circuit (tests/test_oracle.py
        # and the acceptance suite re-derive it; deviation there ~1e-15)
        out = purify_imperfect_exact(S_WORK, 1e-3)
        assert out.state.as_tuple() == pytest.approx(
            (
                0.9853986362777817,
                0.0021919635414875253,
                0.012165848676120888,
                0.00024355150460972507,
            ),
            rel=1e-12,
        )
        assert out.success_prob == pytest.approx(0.81872128, rel=1e-12)

    @given(coeffs, st.floats(0.0, 0.49))
    @example(t=DUST, q=0.0)
    def test_normalized_output(self, t, q):
        out = purify_imperfect_exact(normalized(t), q)
        assert out.state.total() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= out.success_prob <= 1.0 + _COEFF_TOL

    @given(coeffs, st.floats(1e-3, 1.0), st.floats(0.0, 0.5, exclude_max=True))
    def test_two_mixed_copies_through_the_ideal_recurrence(self, t, scale, q):
        # the exact round is the symmetric two-copy recurrence on two
        # differently mixed copies of s, each with weight w = 2q(1 - q);
        # both copies put the same weight on A + D, so P >= total^2 / 2
        s = BellDiagonal(*(scale * x / sum(t) for x in t))
        w = 2.0 * q * (1.0 - q)
        a, b, c, d = s.as_tuple()
        a1, b1, c1, d1 = ((1.0 - w) * x + w * y for x, y in zip((a, b, c, d), (c, d, a, b)))
        a2, b2, c2, d2 = ((1.0 - w) * x + w * y for x, y in zip((a, b, c, d), (d, c, b, a)))
        p = (a1 + d1) * (a2 + d2) + (b1 + c1) * (b2 + c2)
        want = ((a1 * a2 + d1 * d2) / p, (a1 * d2 + d1 * a2) / p, (b1 * b2 + c1 * c2) / p, (b1 * c2 + c1 * b2) / p)
        out = purify_imperfect_exact(s, q)
        assert out.state.as_tuple() == pytest.approx(want, rel=0.0, abs=1e-14)
        assert out.success_prob == pytest.approx(p, rel=0.0, abs=1e-14)

    def test_linear_in_small_q(self):
        # coefficient shifts scale by 10 when q_g does: slope is finite
        ideal = purify_ideal(S_WORK)
        d_small = [
            x - y
            for x, y in zip(
                purify_imperfect_exact(S_WORK, 1e-6).state.as_tuple(),
                ideal.state.as_tuple(),
            )
        ]
        d_large = [
            x - y
            for x, y in zip(
                purify_imperfect_exact(S_WORK, 1e-5).state.as_tuple(),
                ideal.state.as_tuple(),
            )
        ]
        for small, large in zip(d_small, d_large):
            assert large / small == pytest.approx(10.0, rel=1e-2)


def noisy_round_polynomial(a, b, c, d, q):
    # the exact imperfect-gate round as first written: 25 lines of
    # polynomial, each factor of q recomputed where it appears
    m = (-1.0 + q) * q
    u = 1.0 + 2.0 * (-1.0 + q) * q
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


def outcome_or_error(step):
    # the outcome's floats by float.hex, or the error's type and text
    try:
        out = step()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in (*out.state, out.success_prob)]


def floats_or_error(step):
    # the step's floats by float.hex, or the error's type and text
    try:
        return [v.hex() for v in step()]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


class TestPumpNoisy:
    """The k-round kernel, with its shared subproducts, against the polynomial written out in full."""

    @given(coeffs, st.floats(1e-3, 1.0), st.floats(0.0, 0.5, exclude_max=True), st.integers(1, 4))
    @example(t=(0.4, 0.3, 0.2, 0.1), scale=1.0, q=0.2, k=4)
    @example(t=DUST, scale=1.0, q=0.0, k=4)
    def test_k_rounds_bitwise_the_chained_polynomial(self, t, scale, q, k):
        s = BellDiagonal(*(scale * x / sum(t) for x in t))

        def chained():
            state, p_chain = s, 1.0
            for _ in range(k):
                out = noisy_round_polynomial(*state, q)
                state, p_chain = out.state, p_chain * out.success_prob
            return (*state, p_chain)

        assert floats_or_error(lambda: _pump_noisy(*s, _noisy_factors(q), k)) == floats_or_error(chained)

    @given(coeffs, st.floats(1e-3, 1.0), st.integers(1, 4))
    @example(t=DUST, scale=1.0, k=4)
    @example(t=(0.9, 0.05, 0.05, -1e-13), scale=1.0, k=1)
    @example(t=(-0.1, 0.6, 0.3, 0.2), scale=1.0, k=1)
    def test_noiseless_kernel_is_the_ideal_kernel(self, t, scale, k):
        # at q = 0 every noise term is a signed zero, at every depth: the
        # same bits, and the same errors by text
        s = [scale * x / sum(t) for x in t]
        assert floats_or_error(lambda: _pump_noisy(*s, _noisy_factors(0.0), k)) == floats_or_error(
            lambda: _pump(*s, k, 1.0)
        )


class TestKernelChecks:
    """A kernel step that fails a check is built as the value type, which stores dust as 0.0 or raises."""

    def test_dust_below_zero_is_stored_as_zero(self):
        # b' = 2 a d / P is -1.8e-13, inside the tolerance
        out = _pump(0.9, 0.05, 0.05, -1e-13, 1, 1.0)
        assert [v.hex() for v in out] == [
            v.hex() for v in (0.9878048780489974, 0.0, 0.0060975609756110955, 0.0060975609756110955, 0.81999999999982)
        ]


class TestLowerBounds:
    """The pump charge the repetition rows use: ideal rounds, gate loss (1 - q_g)^(4n) per merge."""

    def test_purify_lower_noiseless(self):
        out = purify_k_rounds_lower(S_WORK, 0.0, 3, 1)
        ideal = purify_ideal(S_WORK)
        assert out.state.as_tuple() == pytest.approx(ideal.state.as_tuple(), abs=1e-15)
        assert out.success_prob == pytest.approx(ideal.success_prob, abs=1e-15)

    def test_purify_lower_point(self):
        out = purify_k_rounds_lower(S_WORK, 7.852e-4, 3, 1)
        assert out.success_prob == pytest.approx(0.8123069119141373, rel=1e-12)
        assert out.success_prob == pytest.approx(0.81231, abs=1e-5)
        # the charged leading coefficient, as the rows fold it into F_final
        assert out.state.a * (1.0 - 7.852e-4) ** 12 == pytest.approx(0.9785374756847875, rel=1e-12)

    @given(st.floats(0.8, 1.0), st.floats(0.0, 1e-3))
    def test_bound_ordering(self, a, q_g):
        # restricted domain where the first-order charge provably holds
        s = BellDiagonal(a, 1.0 - a, 0.0, 0.0)
        exact = purify_imperfect_exact(s, q_g)
        assert purify_k_rounds_lower(s, q_g, 1, 1).success_prob <= exact.success_prob + 1e-12
        assert purify_ideal(s).state.a * (1.0 - q_g) ** 4 <= exact.state.a + 1e-12

    @given(coeffs, st.floats(0.0, 0.1, exclude_max=True), st.integers(1, 3))
    def test_success_prob_never_beats_k_exact_rounds(self, t, q_g, k):
        s = normalized(t)
        state, p_exact = s, 1.0
        for _ in range(k):
            out = purify_imperfect_exact(state, q_g)
            state, p_exact = out.state, p_exact * out.success_prob
        assert purify_k_rounds_lower(s, q_g, 1, k).success_prob <= p_exact * (1.0 + 1e-12)


class TestPurifyKRounds:
    def test_k0_identity(self):
        out = purify_k_rounds_lower(S_WORK, 1e-3, 3, 0)
        assert out.state is S_WORK
        assert out.success_prob == 1.0

    def test_k1_matches_single_round_bound(self):
        # one ideal round whose success probability carries (1 - q_g)^(4n), n = 3
        k1 = purify_k_rounds_lower(S_WORK, 1e-3, 3, 1)
        ideal = purify_ideal(S_WORK)
        assert k1.success_prob == pytest.approx(ideal.success_prob * (1.0 - 1e-3) ** 12, rel=1e-15)
        assert k1.state.as_tuple() == pytest.approx(ideal.state.as_tuple(), abs=1e-15)

    def test_k2_exponent(self):
        # 4 n (2^k - 1) = 36 merged-gate qubits at n = 3, k = 2
        out = purify_k_rounds_lower(S_WORK, 1e-3, 3, 2)
        step1 = purify_ideal(S_WORK)
        step2 = purify_ideal(step1.state)
        expected = step1.success_prob * step2.success_prob * (1.0 - 1e-3) ** 36
        assert out.success_prob == pytest.approx(expected, rel=1e-12)
        assert out.state.as_tuple() == pytest.approx(step2.state.as_tuple(), abs=1e-15)
