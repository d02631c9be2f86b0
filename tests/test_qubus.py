"""Probe-phase ledgers, feasibility verdicts, and homodyne readout."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeaterlab import qubus
from repeaterlab.qubus import (
    Feasibility,
    _coefficients,
    _sweep_distinct,
    chained_qubus_phases,
    feasibility,
    homodyne_error,
    min_beta,
    phases_distinct,
    single_qubus_phases,
)

THETA = 0.01


class TestSingleQubus:
    def test_three_atom_ledger(self):
        # binary weights (1, 2, -3): all sixteen.. eight patterns by hand
        want = {
            "000": 0.0,
            "001": 0.03,
            "010": -0.02,
            "011": 0.01,
            "100": -0.01,
            "101": 0.02,
            "110": -0.03,
            "111": 0.0,
        }
        (got,) = single_qubus_phases(3, THETA).ledgers
        assert got.keys() == want.keys()
        for b, phase in want.items():
            assert got[b] == pytest.approx(phase, abs=1e-15)

    def test_five_atom_weights(self):
        # flipping one atom from the all-zeros codeword exposes its weight:
        # atoms 1..4 carry 2^(j-1) theta, atom 5 carries -(2^4 - 1) theta
        (got,) = single_qubus_phases(5, THETA).ledgers
        assert got["10000"] == pytest.approx(-1 * THETA, rel=1e-12)
        assert got["01000"] == pytest.approx(-2 * THETA, rel=1e-12)
        assert got["00100"] == pytest.approx(-4 * THETA, rel=1e-12)
        assert got["00010"] == pytest.approx(-8 * THETA, rel=1e-12)
        assert got["00001"] == pytest.approx(15 * THETA, rel=1e-12)

    @given(st.integers(min_value=2, max_value=9))
    def test_codewords_unrotated(self, n):
        (got,) = single_qubus_phases(n, 0.003).ledgers
        assert got["0" * n] == 0.0
        assert got["1" * n] == 0.0
        assert len(got) == 2**n

    def test_negation_symmetry(self):
        # complementing the pattern flips every sgn, hence the phase
        (got,) = single_qubus_phases(4, THETA).ledgers
        for b, phase in got.items():
            flipped = b.translate(str.maketrans("01", "10"))
            assert got[flipped] == pytest.approx(-phase, abs=1e-15)

    def test_two_atoms_build_one_ledger(self):
        # at n = 2 the single probe and the one chained probe see the same pair
        assert single_qubus_phases(2, THETA) == chained_qubus_phases(2, THETA)
        assert single_qubus_phases(2, THETA).ledgers == ({"00": 0.0, "01": THETA, "10": -THETA, "11": 0.0},)


class TestChainedQubus:
    def test_three_atom_ledgers(self):
        plan = chained_qubus_phases(3, THETA)
        assert plan.ledgers == (
            {"00": 0.0, "01": THETA, "10": -THETA, "11": 0.0},
            {"00": 0.0, "01": -THETA, "10": THETA, "11": 0.0},
        )

    def test_alternating_pattern_reading(self):
        # pattern 010 read pairwise: probe 1 sees 01, probe 2 sees 10,
        # and the sign alternation makes both land on +theta
        ledgers = chained_qubus_phases(3, THETA).ledgers
        assert ledgers[0]["01"] == pytest.approx(THETA)
        assert ledgers[1]["10"] == pytest.approx(THETA)

    @given(st.integers(min_value=2, max_value=40))
    def test_probe_count_and_signs(self, n):
        ledgers = chained_qubus_phases(n, THETA).ledgers
        assert len(ledgers) == n - 1
        for j, ledger in enumerate(ledgers, start=1):
            sign = 1.0 if j % 2 == 1 else -1.0
            assert ledger["01"] == pytest.approx(sign * THETA)
            assert ledger["10"] == pytest.approx(-sign * THETA)


class TestFeasibility:
    def test_small_code_feasible(self):
        verdict = feasibility(3, THETA)
        assert verdict.feasible
        assert verdict.max_phase_rad == pytest.approx(0.03, rel=1e-12)

    def test_eleven_atoms_wrap(self):
        verdict = feasibility(11, THETA)
        assert not verdict.feasible
        assert verdict.max_phase_rad / math.pi == pytest.approx(3.2563101356601787, rel=1e-12)

    def test_branch_cut_collision(self):
        # n = 2, theta = pi: max phase touches pi but 01 and 10 coincide
        verdict = feasibility(2, math.pi)
        assert verdict.max_phase_rad == pytest.approx(math.pi, rel=1e-15)
        assert not verdict.feasible
        assert not phases_distinct(2, math.pi)

    def test_analytic_regime(self):
        # n = 20 exceeds the enumeration cap; the analytic rule applies
        assert phases_distinct(20, 1e-7)
        assert feasibility(20, 1e-7).feasible
        assert not feasibility(20, 1e-2).feasible

    def test_huge_n_overflows_to_infeasible(self):
        # 2^4999 theta overflows a float: infeasible, not an exception
        assert feasibility(5000, 0.01) == Feasibility(False, math.inf)
        assert not phases_distinct(5000, 0.01)

    def test_huge_n_tiny_theta_stays_finite(self):
        # 2^1029 alone overflows, but 2^1029 * 1e-320 does not
        verdict = feasibility(1030, 1e-320)
        assert verdict.max_phase_rad == pytest.approx(5.7526e-11, rel=1e-4)
        # neighboring phases sit 1e-320 apart, far inside the collision width
        assert not verdict.feasible

    @pytest.mark.parametrize(
        "theta", [1e-320, 1e-10, 5e-10, 9e-10, 1e-9, 1.1e-9, 3e-9, 1e-6, 1e-4, 0.01, 0.1, 1.0, 3.0]
    )
    def test_verdict_never_turns_feasible_as_n_grows(self, theta):
        # across the enumeration cap too: n = 16 is exhaustive, n = 17 analytic
        verdicts = [feasibility(n, theta).feasible for n in range(2, 25)]
        assert verdicts == sorted(verdicts, reverse=True)

    def test_threshold_angle(self):
        # the workable window for n atoms is theta < pi / (2^(n-1) - 1);
        # at the threshold the extreme patterns meet at +/- pi
        theta_max = math.pi / 7.0
        assert feasibility(4, theta_max * 0.999).feasible
        assert not feasibility(4, theta_max).feasible
        assert not feasibility(4, theta_max * 1.01).feasible

    @given(st.integers(min_value=2, max_value=10), st.floats(min_value=1e-4, max_value=0.05))
    def test_distinct_below_branch_cut(self, n, theta):
        # strictly inside (-pi, pi) distinct integer coefficients cannot wrap
        if (2 ** (n - 1) - 1) * theta < 3.0:
            assert phases_distinct(n, theta)


def reference_ledger(n, theta):
    """The ledger spelled out pattern string by pattern string, bit by bit."""

    def sgn(bit):
        return 1 if bit == "0" else -1

    phases = {}
    for idx in range(2**n):
        b = format(idx, f"0{n}b")
        coeff = sum(sgn(b[j]) * 2**j for j in range(n - 1))
        coeff -= sgn(b[n - 1]) * (2 ** (n - 1) - 1)
        phases[b] = 0.5 * theta * coeff
    return phases


def reference_buckets(n, theta):
    """Patterns grouped by their phase mod 2 pi, to within 1e-9 rad."""
    two_pi = 2.0 * math.pi
    modulus = int(round(two_pi / 1e-9))
    buckets = {}
    for pattern, phase in reference_ledger(n, theta).items():
        buckets.setdefault(int(round((phase % two_pi) / 1e-9)) % modulus, set()).add(pattern)
    return buckets


def reference_distinct(n, theta):
    codewords = {"0" * n, "1" * n}
    return all(len(group) == 1 or group == codewords for group in reference_buckets(n, theta).values())


def codeword_bucket(n, theta):
    return next(g for g in reference_buckets(n, theta).values() if "0" * n in g)


class TestLedgerReference:
    """The integer ledger against the pattern-string formula it replaced."""

    @pytest.mark.parametrize("n", [*range(2, 13), 16])
    def test_ledger_matches_reference_exactly(self, n):
        theta = 0.9 * math.pi / (2 ** (n - 1) - 1)
        got = list(single_qubus_phases(n, theta).ledgers[0].items())
        assert got == list(reference_ledger(n, theta).items())

    @pytest.mark.parametrize("n", range(2, 17))
    def test_coefficients_are_the_even_range(self, n):
        # phases_distinct buckets this range instead of building the ledger:
        # both codewords carry 0, and the other patterns carry each nonzero
        # even integer in [-(2^n - 2), 2^n - 2] exactly once
        top = 2**n - 2
        assert sorted(_coefficients(n)) == sorted([0, *range(-top, top + 1, 2)])

    @pytest.mark.parametrize("n", range(2, 11))
    def test_distinct_below_and_at_branch_cut(self, n):
        cut = math.pi / (2 ** (n - 1) - 1)
        for theta in (1e-6, 0.5 * cut, 0.999 * cut):
            assert phases_distinct(n, theta) is reference_distinct(n, theta) is True
        # at the cut the two extreme patterns meet at +/- pi
        assert phases_distinct(n, cut) is reference_distinct(n, cut) is False

    @pytest.mark.parametrize("n", range(2, 11))
    def test_distinct_in_wrap_region(self, n):
        big = 2 ** (n - 1) - 1
        thetas = [1.0, 2.5, 3.0, 2.0 * math.pi / 3.0, 2.0 * math.pi * 3.0 / (2 * big + 1)]
        thetas += [2.0 * math.pi * p / q for q in (big + 1, 2 * big) for p in (1, q - 1)]
        for theta in thetas:
            assert phases_distinct(n, theta) is reference_distinct(n, theta)

    def test_collision_among_inner_patterns(self):
        # n = 4 spans phases k theta, k = -7..7; theta = 2 pi / 11 folds
        # k and k - 11 together but leaves k = 0 alone
        theta = 2.0 * math.pi / 11.0
        assert codeword_bucket(4, theta) == {"0000", "1111"}
        assert not reference_distinct(4, theta)
        assert not phases_distinct(4, theta)

    def test_collision_with_the_codeword_bucket(self):
        # theta = 2 pi / 5 puts the k = +/-5 patterns on phase 0 with the codewords
        theta = 2.0 * math.pi / 5.0
        assert len(codeword_bucket(4, theta)) == 4
        assert not reference_distinct(4, theta)
        assert not phases_distinct(4, theta)

    @pytest.mark.parametrize("theta", [6e-10, 2.0 * math.pi - 6e-10])
    def test_top_bucket_wraps_onto_the_codeword(self, theta):
        # one pattern's phase rounds up to 2 pi / 1e-9 buckets, which is
        # bucket 0 again: it meets the codewords though the third stays apart
        assert len(reference_buckets(2, theta)) == 2
        assert codeword_bucket(2, theta) == {"00", "11", "10" if theta < 1.0 else "01"}
        assert not reference_distinct(2, theta)
        assert not phases_distinct(2, theta)

    def test_wrap_region_can_stay_distinct(self):
        # past the branch cut, but theta = 2 pi * 2 / 15 sends k = -7..7 to
        # 15 distinct residues mod 2 pi
        theta = 4.0 * math.pi / 15.0
        assert feasibility(4, theta).max_phase_rad > math.pi
        assert phases_distinct(4, theta) is reference_distinct(4, theta) is True


# phases_distinct's certificate: max_phase <= CERT_PHASE and theta >= CERT_THETA
CERT_PHASE = math.pi - 1e-9
CERT_THETA = (1.0 + 1e-5) * 1e-9
EDGE_N = (2, 7, 12, 16)


def cut(n):
    return math.pi / (2 ** (n - 1) - 1)


def last_inside_phase_bound(n):
    """The largest theta whose max_phase stays within CERT_PHASE."""
    theta = CERT_PHASE / (2 ** (n - 1) - 1)
    while feasibility(n, theta).max_phase_rad > CERT_PHASE:
        theta = math.nextafter(theta, 0.0)
    while feasibility(n, math.nextafter(theta, math.inf)).max_phase_rad <= CERT_PHASE:
        theta = math.nextafter(theta, math.inf)
    return theta


def edge_thetas(n):
    """(inside, outside) pairs one ulp apart across each certificate bound."""
    top = last_inside_phase_bound(n)
    return [(top, math.nextafter(top, math.inf)), (CERT_THETA, math.nextafter(CERT_THETA, 0.0))]


class TestCertificate:
    """The O(1) certificate against the bucket sweep and the reference."""

    @pytest.mark.parametrize("n", EDGE_N)
    def test_edges_match_the_sweep(self, n):
        for pair in edge_thetas(n):
            for theta in pair:
                assert phases_distinct(n, theta) is _sweep_distinct(n, theta)
                if n <= 10:
                    assert phases_distinct(n, theta) is reference_distinct(n, theta)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.booleans(),
        st.integers(min_value=-(2**24), max_value=2**24),
    )
    def test_hugging_either_bound_matches_the_sweep(self, n, phase_bound, ulps):
        base = CERT_PHASE / (2 ** (n - 1) - 1) if phase_bound else CERT_THETA
        theta = base + ulps * math.ulp(base)
        assert phases_distinct(n, theta) is _sweep_distinct(n, theta)


class Swept(Exception):
    pass


def refuse_sweep(n, theta_rad):
    raise Swept(n, theta_rad)


class TestSweepSkippedOnlyInsideTheCertificate:
    @pytest.fixture
    def no_sweep(self, monkeypatch):
        monkeypatch.setattr(qubus, "_sweep_distinct", refuse_sweep)

    def test_inside_needs_no_sweep(self, no_sweep):
        assert phases_distinct(16, 0.5 * cut(16)) is True
        assert feasibility(12, 0.9 * cut(12)).feasible is True

    @pytest.mark.parametrize("n", EDGE_N)
    @pytest.mark.parametrize("theta", [1e-9, "cut"])
    def test_collision_width_and_cut_reach_the_sweep(self, no_sweep, n, theta):
        theta = cut(n) if theta == "cut" else theta
        with pytest.raises(Swept):
            phases_distinct(n, theta)

    @pytest.mark.parametrize("n", EDGE_N)
    def test_the_bounds_split_one_ulp_apart(self, n, monkeypatch):
        # the edges are found with the sweep in place, then judged without it
        pairs = edge_thetas(n)
        monkeypatch.setattr(qubus, "_sweep_distinct", refuse_sweep)
        for inside, outside in pairs:
            assert phases_distinct(n, inside) is True
            with pytest.raises(Swept):
                phases_distinct(n, outside)


class TestHomodyne:
    def test_point_value(self):
        assert homodyne_error(9e4, THETA) == pytest.approx(3.398272563578783e-06, rel=1e-12)

    def test_weak_probe_guesses(self):
        assert homodyne_error(1e-12, THETA) == pytest.approx(0.5, rel=1e-9)

    def test_monotone_in_beta(self):
        errs = [homodyne_error(b, THETA) for b in (1e3, 1e4, 1e5)]
        assert errs[0] > errs[1] > errs[2]

    def test_min_beta_point(self):
        assert min_beta(THETA, 1e-5) == pytest.approx(85298.52673339844, rel=1e-8)

    def test_min_beta_is_boundary(self):
        b = min_beta(THETA, 1e-5)
        assert homodyne_error(b, THETA) <= 1e-5
        assert homodyne_error(0.99 * b, THETA) > 1e-5

    @given(st.floats(min_value=1e-3, max_value=0.3), st.floats(min_value=1e-9, max_value=0.4))
    def test_min_beta_meets_target(self, theta, eps):
        assert homodyne_error(min_beta(theta, eps), theta) <= eps

    def test_min_beta_smallest_positive_gap(self):
        # 1 - cos theta = 2^-53, its smallest positive value: the doubling
        # still meets the smallest positive target at a finite amplitude
        theta = 1.0536712127723509e-08
        assert 1.0 - math.cos(theta) == 2.0**-53
        assert min_beta(theta, 5e-324) == 3.464322508054856e17
