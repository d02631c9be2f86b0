"""Phase ledgers for multi-atom qubus encoding and homodyne readout.

A bright probe |beta> picks up a conditional phase from each atom it
visits: an atom in |0> rotates it by +theta_j/2, an atom in |1> by
-theta_j/2, where theta_j is the per-atom coupling angle.  Choosing the
angles makes the final probe phase a function of the atomic bit pattern;
a pattern ledger is "feasible" when every pattern is distinguishable
except the intended codeword pair (all zeros vs all ones), which must
stay degenerate so the measurement prepares the encoded superposition.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._checked import checked_tuple
from .core import _phase_gap

__all__ = [
    "QubusPlan",
    "Feasibility",
    "single_qubus_phases",
    "chained_qubus_phases",
    "feasibility",
    "phases_distinct",
    "homodyne_error",
    "min_beta",
]

_ENUM_LIMIT = 16   # exhaustive pattern enumeration cap
_PHASE_TOL = 1e-9  # phases closer than this (mod 2 pi) count as colliding
# phases_distinct's certificate (proved in its docstring): within both bounds no
# two buckets can meet, so the sweep is skipped
_CERT_MAX_PHASE = math.pi - _PHASE_TOL
_CERT_MIN_THETA = (1.0 + 1e-5) * _PHASE_TOL


class QubusPlan(checked_tuple("QubusPlan", "n theta_rad ledgers")):
    """Probe-phase ledgers of an n-atom encoding step, one per probe.

    Each ledger is a dict mapping the bit pattern of the atoms its probe
    visits (leftmost char first) to the probe's accumulated phase: one
    n-bit ledger for the single qubus, n - 1 ledgers keyed by the local
    pair (b_j, b_j+1) for the chained probes.  In every ledger the
    all-zeros and all-ones patterns carry phase 0.
    """

    __slots__ = ()

    def __init__(self, n: int, theta_rad: float, ledgers: tuple[dict[str, float], ...]) -> None:
        # the codeword branch must stay unrotated
        for j, ledger in enumerate(ledgers):
            if not ledger:
                raise ValueError(f"ledgers[{j}]: must map at least one pattern, got {{}}")
            width = len(next(iter(ledger)))  # the patterns of one ledger share a width
            for codeword in ("0" * width, "1" * width):
                if codeword not in ledger:
                    raise ValueError(f"ledgers[{j}]: codeword {codeword} is missing")
                phase = ledger[codeword]
                if abs(phase) > 1e-12:
                    raise ValueError(f"ledgers[{j}]: codeword {codeword} must carry phase 0, got {phase}")


class Feasibility(NamedTuple):
    """Single-qubus ledger verdict and its extreme accumulated phase."""

    feasible: bool
    max_phase_rad: float


def _check_theta(theta_rad: float) -> None:
    # an infinite angle would turn the ledger into inf - inf = nan
    if not (theta_rad > 0.0 and math.isfinite(theta_rad)):
        raise ValueError(f"theta_rad must be finite and > 0, got {theta_rad}")


def _check_n_theta(n: int, theta_rad: float) -> None:
    if not (isinstance(n, int) and n >= 2):
        raise ValueError(f"n must be an integer >= 2, got {n}")
    _check_theta(theta_rad)


def _max_phase(n: int, theta_rad: float) -> float:
    """Extreme accumulated phase (2^(n-1) - 1) theta, inf only if it overflows.

    Computed in floating point, so a large n never builds an n-bit integer.
    """
    try:
        return math.ldexp(theta_rad, n - 1) - theta_rad
    except OverflowError:
        return math.inf


def _coefficients(n: int) -> list[int]:
    """Integer phase coefficients 2 phase(b) / theta in pattern-index order.

    Built by doubling, most significant bit (atom 1) first: bit j of the
    first n - 1 adds +2^j for a 0 and -2^j for a 1, and the last bit adds
    -(2^(n-1) - 1) for a 0 and +(2^(n-1) - 1) for a 1.  O(2^n) additions.
    """
    acc = [0]
    for j in range(n - 1):
        step = 2**j
        acc = [c for a in acc for c in (a + step, a - step)]
    last = 2 ** (n - 1) - 1
    return [c for a in acc for c in (a - last, a + last)]


def single_qubus_phases(n: int, theta_rad: float) -> QubusPlan:
    """One probe visiting all n atoms with binary-weighted angles.

    Atom j < n couples with angle 2^(j-1) theta, atom n with angle
    -(2^(n-1) - 1) theta, so a pattern b accumulates

        phase(b) = (theta / 2) [sum_{j<n} sgn(b_j) 2^(j-1)
                                - sgn(b_n) (2^(n-1) - 1)]

    with sgn(0) = +1, sgn(1) = -1.  The two codewords 00...0 and 11...1
    land on phase 0 by construction.  Explicit ledgers are built for
    n <= 16 only.
    """
    _check_n_theta(n, theta_rad)
    if n > _ENUM_LIMIT:
        raise ValueError(f"explicit ledger limited to n <= {_ENUM_LIMIT}, got {n}")
    phases = {format(idx, f"0{n}b"): 0.5 * theta_rad * c for idx, c in enumerate(_coefficients(n))}
    return QubusPlan(n, theta_rad, (phases,))


def chained_qubus_phases(n: int, theta_rad: float) -> QubusPlan:
    """n - 1 probes, each visiting one neighboring atom pair.

    Probe j couples atom j with angle (-1)^(j-1) theta and atom j+1 with
    the opposite angle, so its phase depends only on the local pattern:
    0 for equal neighbors, +/- theta for unequal ones.  The tuple of all
    probe phases separates every pattern except all-zeros vs all-ones.
    """
    _check_n_theta(n, theta_rad)
    angles = [theta_rad if j % 2 == 1 else -theta_rad for j in range(1, n)]
    return QubusPlan(n, theta_rad, tuple({"00": 0.0, "01": a, "10": -a, "11": 0.0} for a in angles))


def phases_distinct(n: int, theta_rad: float) -> bool:
    """Distinctness mod 2 pi of the single-qubus phases, codeword pair aside.

    Both codewords carry coefficient 0, and the other 2^n - 2 patterns
    carry each nonzero even integer c in [-(2^n - 2), 2^n - 2] exactly
    once, at phase k theta with k = c / 2.  The reference verdict is a
    bucket sweep with no ledger built: each phase (theta / 2) c is reduced
    mod 2 pi, divided by the 1e-9 collision width and rounded, and all
    2^n - 1 buckets must differ.  The sweep runs for n <= 16 only outside
    the certificate below; beyond n = 16 the analytic rule (max_phase < pi
    and theta >= 1e-9) decides instead.

    Certificate: when max_phase <= pi - 1e-9 and theta >= (1 + 1e-5) 1e-9,
    the verdict is True for every n, with no sweep.  Write tau for the
    float 1e-9 and count errors in buckets (units of tau).  A bucket value
    takes three correctly rounded steps from exact inputs (theta / 2 is
    exact and c is an exact float): the product (theta / 2) c, of size at
    most pi; the fold % 2 pi, which returns a positive phase unchanged and
    turns a negative one x into 2 pi - |x| in [pi, 2 pi); and the division
    by tau, below 2 pi / tau = 6.3e9.  Each adds at most half an ulp, so
    2.2e-7, 4.4e-7 and 4.8e-7 buckets, and a bucket value is off by at most
    1.2e-6.  The float max_phase and pi - tau each round once, so the exact
    extreme phase is at most pi - tau + 4.4e-7 buckets.  Then:

    - neighboring phases k theta and (k + 1) theta sit theta / tau >=
      1 + 1e-5 buckets apart, more than 1 + 7e-6 after rounding, and two
      reals more than 1 apart round to different integers;
    - the positive range ends below pi / tau - 1 + 1.7e-6 and the folded
      negative range (2 pi - k theta) / tau starts above pi / tau + 1 -
      1.7e-6, so the two stay at least two buckets apart;
    - the smallest positive phase theta rounds to at least 1, and the
      largest folded one, 2 pi - theta, more than one bucket below
      2 pi / tau, to below modulus = round(2 pi / tau), so no non-codeword
      reaches bucket 0 or its wrapped twin modulus.

    The 1e-5 margin is four times the 2.4e-6 it has to cover.  The
    certificate lies inside the analytic rule's True region, so no verdict
    depends on which branch decides it.
    """
    _check_n_theta(n, theta_rad)
    return _distinct(n, theta_rad, _max_phase(n, theta_rad))


def _distinct(n: int, theta_rad: float, max_phase: float) -> bool:
    """phases_distinct after validation, given max_phase = _max_phase(n, theta_rad)."""
    if max_phase <= _CERT_MAX_PHASE and theta_rad >= _CERT_MIN_THETA:
        return True
    if n > _ENUM_LIMIT:
        return max_phase < math.pi and theta_rad >= _PHASE_TOL
    return _sweep_distinct(n, theta_rad)


def _sweep_distinct(n: int, theta_rad: float) -> bool:
    """The bucket sweep over all 2^n - 1 phases: O(2^n) float operations."""
    two_pi = 2.0 * math.pi
    modulus = round(two_pi / _PHASE_TOL)
    half = 0.5 * theta_rad
    top = 2**n - 2
    # a phase bucket is round(phase / tol) mod modulus; the unreduced
    # rounds lie in [0, modulus], so only modulus and 0 can share a bucket
    buckets = set(map(round, [half * c % two_pi / _PHASE_TOL for c in range(-top, top + 1, 2)]))
    return len(buckets) - (0 in buckets and modulus in buckets) == top + 1


def feasibility(n: int, theta_rad: float) -> Feasibility:
    """Whether the single-qubus readout can work at all.

    Two conditions: the extreme accumulated phase
    max_phase = (2^(n-1) - 1) theta must not exceed pi (beyond that the
    probe wraps around phase space), and all non-codeword patterns must
    land on pairwise distinct phases mod 2 pi (phases_distinct).  n = 2
    with theta = pi is the textbook collision: max_phase equals pi yet the
    two middle patterns coincide at the branch cut.  Inside phases_distinct's
    certificate (max_phase <= pi - 1e-9, theta >= 1.00001e-9) the verdict is
    feasible in O(1); the sweep runs only for n <= 16 with max_phase in
    (pi - 1e-9, pi] or theta below 1.00001e-9.
    """
    _check_n_theta(n, theta_rad)
    max_phase = _max_phase(n, theta_rad)
    feasible = max_phase <= math.pi and _distinct(n, theta_rad, max_phase)
    return Feasibility(feasible, max_phase)


def homodyne_error(beta: float, theta_rad: float) -> float:
    """Misassignment probability of the x-quadrature phase readout.

    Neighboring probe states |beta e^(i phi)> differing by the minimal
    angle theta are separated in x = (a + a^dagger)/2 by at least
    beta (1 - cos theta) with quadrature spread 1/2, so thresholding
    midway errs with probability

        0.5 erfc(beta (1 - cos theta) / sqrt(2)).
    """
    # beta = inf against 1 - cos(theta) = 0 (theta = 2 pi) would give nan
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    _check_theta(theta_rad)
    return 0.5 * math.erfc(beta * _phase_gap(theta_rad) / math.sqrt(2.0))


def min_beta(theta_rad: float, target_error: float) -> float:
    """Smallest probe amplitude with homodyne_error <= target_error.

    homodyne_error is strictly decreasing in beta from 1/2 toward 0, so
    the boundary is found by doubling then bisection (relative tolerance
    1e-9).
    """
    if not 0.0 < target_error < 0.5:
        raise ValueError(f"target_error must lie in (0, 1/2), got {target_error}")
    _check_theta(theta_rad)
    # homodyne_error is 1/2 at every beta when 1 - cos theta rounds to 0 (e.g. theta = 2 pi, or
    # theta <= 1.05e-8); any other gap is >= 2^-53, and the doubling meets any target by beta ~ 3.5e17
    if _phase_gap(theta_rad) == 0.0:
        raise ArithmeticError(
            f"no finite amplitude reaches the target error, got theta_rad={theta_rad}, target_error={target_error}"
        )
    hi = 1.0
    while homodyne_error(hi, theta_rad) > target_error:
        hi *= 2.0
    lo = hi / 2.0 if hi > 1.0 else 0.0
    # hi stays >= ~3.5e-17, where homodyne_error first drops below 1/2, so mid > 0
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if homodyne_error(mid, theta_rad) > target_error:
            lo = mid
        else:
            hi = mid
    return hi
