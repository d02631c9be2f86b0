"""Block-code combinatorics: Q_n tails, pair probabilities, css budget."""

import math

import pytest
from hypothesis import given, strategies as st

from repeaterlab.codes import (
    Code,
    code_catalog,
    css_effective_qubit_error,
    effective_coefficients,
    logical_error_prob,
    pair_no_error_prob,
)
from reference import product_form, tail


class TestCatalog:
    def test_members(self):
        labels = {c.label: c.family for c in code_catalog()}
        assert labels == {
            "[1,1,1]": "repetition",
            "[3,1,3]": "repetition",
            "[7,1,7]": "repetition",
            "[51,1,51]": "repetition",
            "[7,1,3]": "css",
            "[25,1,5]": "css",
            "[23,1,7]": "css",
        }

    def test_correctable_weight(self):
        by_label = {c.label: c for c in code_catalog()}
        assert by_label["[3,1,3]"].t == 1
        assert by_label["[23,1,7]"].t == 3
        assert by_label["[1,1,1]"].t == 0

    @pytest.mark.parametrize("d, family", [(1029, "repetition"), (1, "css")])
    def test_longest_code_prices_in_floats(self, d, family):
        # C(1029, 514) = 1.43e308 is the largest central binomial that is a
        # float; n = 1030 and up are refused (tests/test_refusals.py)
        code = Code(1029, d, family)
        assert code.label == f"[1029,1,{d}]"
        assert 0.0 <= logical_error_prob(code, 0.3) <= 1.0


class TestLogicalErrorProb:
    def test_zero_error(self):
        for code in code_catalog():
            assert logical_error_prob(code, 0.0) == 0.0

    def test_three_qubit_point(self):
        code = Code(3, 3, "repetition")
        assert logical_error_prob(code, 0.1) == pytest.approx(0.028, rel=1e-12)

    def test_half_is_fixed(self):
        # binomial tail at p = 1/2 is symmetric for odd repetition codes
        for code in code_catalog():
            if code.family == "repetition":
                assert logical_error_prob(code, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_unencoded_identity(self):
        code = Code(1, 1, "repetition")
        assert logical_error_prob(code, 0.1234) == pytest.approx(0.1234, rel=1e-12)

    def test_larger_repetition_suppresses_more(self):
        qs = [
            logical_error_prob(Code(n, n, "repetition"), 0.05) for n in (3, 7, 51)
        ]
        assert qs[0] > qs[1] > qs[2]

    @pytest.mark.parametrize("code", code_catalog(), ids=lambda c: c.label)
    def test_leading_order(self, code):
        # Q_n ~ C(n, (d+1)/2) q^((d+1)/2) as q -> 0
        q = 1e-4
        j = (code.d + 1) // 2
        ratio = logical_error_prob(code, q) / q**j
        assert ratio == pytest.approx(math.comb(code.n, j), rel=1e-2)

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.sampled_from(code_catalog()))
    def test_monotone(self, q1, q2, code):
        lo, hi = sorted((q1, q2))
        assert logical_error_prob(code, lo) <= logical_error_prob(code, hi) + 1e-15

    @pytest.mark.parametrize("q", [0.0, 5e-324, 1e-300, 1e-12, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("code", code_catalog(), ids=lambda c: c.label)
    def test_bitwise_against_the_plain_tail(self, code, q):
        assert logical_error_prob(code, q).hex() == min(tail(code.n, code.d, q), 1.0).hex()

    @given(st.sampled_from(code_catalog()), st.floats(0.0, 1.0))
    def test_bitwise_against_the_plain_tail_anywhere(self, code, q):
        assert logical_error_prob(code, q).hex() == min(tail(code.n, code.d, q), 1.0).hex()


class TestPairNoError:
    @pytest.mark.parametrize(
        "q, expected",
        [(0.0, 1.0), (0.028, 0.972**2 + 0.028**2), (0.5, 0.5), (1.0, 1.0)],
    )
    def test_values(self, q, expected):
        assert pair_no_error_prob(q) == pytest.approx(expected, rel=1e-12)

    def test_quoted(self):
        assert pair_no_error_prob(0.028) == pytest.approx(0.94557, abs=1e-5)

    @given(st.floats(0.0, 1.0))
    def test_range(self, q):
        assert 0.5 <= pair_no_error_prob(q) <= 1.0


class TestEffectiveCoefficients:
    def test_perfect(self):
        assert effective_coefficients(1.0, 1.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_products(self):
        s = effective_coefficients(0.95, 0.94557)
        assert s.as_tuple() == pytest.approx(
            (0.89829, 0.05171, 0.04728, 0.00272), abs=1e-5
        )

    def test_symmetric(self):
        assert effective_coefficients(0.5, 0.5).as_tuple() == pytest.approx((0.25,) * 4)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_normalized(self, f, p):
        assert effective_coefficients(f, p).total() == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_bitwise_the_product_form(self, f, p):
        assert [v.hex() for v in effective_coefficients(f, p)] == [v.hex() for v in product_form(f, p)]


class TestCssBudget:
    def test_zero(self):
        assert css_effective_qubit_error(0.0, 0.0, 1.0) == (0.0, False)

    def test_linear_point(self):
        q_eff, clamped = css_effective_qubit_error(1e-3, 7.852e-4, 0.99)
        assert q_eff == pytest.approx(0.0145704, rel=1e-4)
        assert q_eff == pytest.approx(0.01457, abs=1e-5)
        assert not clamped

    def test_clamp(self):
        q_eff, clamped = css_effective_qubit_error(0.4, 0.3, 0.5)
        assert q_eff == 1.0
        assert clamped
