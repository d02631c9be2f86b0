"""End-to-end fidelity and rate models for a nested repeater line.

A line of total length L is cut into N = L / L0 segments (N a power of two,
at least 2).  Raw pairs are generated per segment, pumped through k nested
purification rounds, and connected by log2(N) levels of entanglement
swapping (Briegel et al., PRL 81, 5932 (1998)).  Two storage strategies are
priced:

* repetition family: the Bell-diagonal state is tracked through the ideal
  purify/swap recursions and the noisy gates are charged as one
  multiplicative factor on the leading coefficient.  The reported P_k is a
  lower bound on the exact pump's success probability (tested at n = 1);
  F_final is a lower bound only at k = 0, because the factor counts the
  merges of one pump tree where the N segments run N trees;
* css family: purification is tracked with the exact imperfect-gate round,
  the surviving error budget is converted to an i.i.d. per-qubit rate, and
  the block code must digest it at every swap station, giving
  F_final = (1 - Q_n)^(2N).

Rates are quoted per memory qubit: R = P0 P_k / (n 2^k (k/2 + 1) T0).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from ._checked import checked_tuple
from .bell_algebra import _COEFF_TOL, _gate_charge, _noisy_factors, _pump, _pump_noisy, _swap
from .codes import Code, _css_base, _q_eff, _stored_pair, _tail_sum, _tail_terms, logical_error_prob, pair_no_error_prob
from .core import (
    ATTENUATION_LENGTH_KM,
    ChannelParams,
    HardwareParams,
    gate_error_prob,
    initial_fidelity,
    memory_error_prob,
    success_probability,
    transmittance,
)

__all__ = [
    "ProtocolConfig",
    "Timing",
    "SweepResult",
    "OperatingPoint",
    "timing",
    "final_fidelity",
    "heralding_probability",
    "pump_success_probability",
    "rate_unpurified",
    "rate_purified",
    "evaluate",
    "with_fidelity",
    "operating_point",
    "sweep",
]

# largest accepted pump round count: n 2^k and the pump-tree part of the gate-factor
# exponent stay below 2**1024, so every accepted code prices k <= MAX_ROUNDS in floats
MAX_ROUNDS = 1000

# bisection window for the raw operating fidelity
_F_LO = 0.5 + 1e-6
_F_HI = 1.0 - 1e-9
_F_TOL = 1e-4

_tuple_new = tuple.__new__


class ProtocolConfig(
    checked_tuple(
        "ProtocolConfig",
        "total_distance_km segment_km code rounds hardware channel fidelity attenuation_km",
        defaults=[None, None, ATTENUATION_LENGTH_KM],
    )
):
    """One repeater operating point.

    The raw pair fidelity comes either from an explicit ``fidelity`` or
    from a ``channel`` whose segment length equals ``segment_km``; exactly
    one must be given.  The config owns the fiber: F and P0 both read the
    one ``segment_transmittance``.  ``total_distance_km / segment_km``
    must be a power of two >= 2.  One rule decides the clock T0 = 2 L0 / c:
    the largest rate (at P0 P_k = 1) must lie in (0, inf), which rejects a
    zero or subnormal T0 and holds only where both windows are finite.  The
    transmittance exp(-L0 / L_att) must lie in (0, 1), where P0 is defined.
    """

    __slots__ = ()

    def __init__(
        self,
        total_distance_km: float,
        segment_km: float,
        code: Code,
        rounds: int,
        hardware: HardwareParams,
        channel: ChannelParams | None = None,
        fidelity: float | None = None,
        attenuation_km: float = ATTENUATION_LENGTH_KM,
    ) -> None:
        if not total_distance_km > 0.0:
            raise ValueError(f"total_distance_km must be > 0, got {total_distance_km}")
        if not segment_km > 0.0:
            raise ValueError(f"segment_km must be > 0, got {segment_km}")
        if not attenuation_km > 0.0:
            raise ValueError(f"attenuation_km must be > 0, got {attenuation_km}")
        if type(rounds) is not int or not 0 <= rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must be an integer in [0, {MAX_ROUNDS}], got {rounds!r}")
        if (channel is None) == (fidelity is None):
            raise ValueError("give exactly one of channel= or fidelity=")
        if fidelity is not None and not 0.5 < fidelity <= 1.0:
            raise ValueError(f"fidelity must lie in (1/2, 1], got {fidelity}")
        if channel is not None and channel.segment_length_km != segment_km:
            seg = channel.segment_length_km
            raise ValueError(f"channel.segment_length_km must equal segment_km, got {seg} and {segment_km}")
        ratio = total_distance_km / segment_km
        n = round(ratio) if math.isfinite(ratio) else 0
        if abs(ratio - n) > 1e-9 or n < 2 or n & (n - 1) != 0:
            raise ValueError(f"total_distance_km / segment_km must be a power of two >= 2, got {ratio}")
        # one clock rule: the largest rate, at P0 P_k = 1 + _COEFF_TOL (PurifyOutcome's tolerance),
        # lies in (0, inf).  _rate's denominator fl(fl(n 2^k) (k/2 + 1)) T0 has a factor >= k/2 + 1
        # and >= k + 1, and rounding is monotone, so it overflows, and the rate reads 0, whenever
        # the pump window t_k = (k/2 + 1) T0 or the (k + 1) T0 in the css window t'_k does
        try:
            top = _rate(code.n, rounds, timing(self).t0_s, 1.0 + _COEFF_TOL, 1.0)
        except ArithmeticError:  # T0 = 0, or n 2^k past the float range
            top = math.inf
        if not 0.0 < top < math.inf:
            raise ValueError(
                "segment_km / fiber_speed_m_per_s must give a finite storage window and rate, "
                f"got segment_km={segment_km}, fiber_speed_m_per_s={hardware.fiber_speed_m_per_s}"
            )
        if not 0.0 < self.segment_transmittance() < 1.0:  # P0 is defined only here
            raise ValueError(
                "segment_km / attenuation_km must give a transmittance in (0, 1), "
                f"got segment_km={segment_km}, attenuation_km={attenuation_km}"
            )

    def num_segments(self) -> int:
        """N = L / L0, a power of two >= 2 (checked when the config is built)."""
        return round(self.total_distance_km / self.segment_km)

    def raw_fidelity(self) -> float:
        if self.fidelity is not None:
            return self.fidelity
        ch = self.channel
        return initial_fidelity(ch.qubus_strength, ch.interaction_angle_rad, self.segment_transmittance())

    def segment_transmittance(self) -> float:
        return transmittance(self.segment_km, self.attenuation_km)


class Timing(NamedTuple):
    """Clock windows of one operating point, in seconds."""

    t0_s: float          # heralding round trip 2 L0 / c
    t_purify_s: float    # pump window t_k = (k/2 + 1) T0
    t_half_s: float      # css storage window t'_k = (k + 1) T0 / 2


class SweepResult(NamedTuple):
    """One evaluated grid point; ``error`` is set instead of raising."""

    code_label: str
    family: str
    rounds: int
    tau_c_s: float
    one_minus_t: float
    total_distance_km: float
    segment_km: float
    f: float = math.nan
    f_final: float = math.nan
    p0: float = math.nan
    p_k: float = math.nan
    rate_per_memory_hz: float = math.nan
    t_wait_s: float = math.nan
    error: str | None = None


class OperatingPoint(NamedTuple):
    """Smallest raw fidelity meeting a final-fidelity target, if any."""

    feasible: bool
    operating_fidelity: float | None
    result: SweepResult
    max_f_final: float


def timing(cfg: ProtocolConfig) -> Timing:
    """Heralding and storage windows of the nested protocol.

    T0 = 2 L0 / c is one generation attempt (emission plus heralding);
    pumping k rounds keeps memories busy for t_k = (k/2 + 1) T0, and the
    per-level storage window entering the css budget is t'_k = (k+1) T0/2.
    The one place T0 is computed: the config's clock rule reads it here.
    """
    t0 = 2.0 * cfg.segment_km * 1e3 / cfg.hardware.fiber_speed_m_per_s
    k = cfg.rounds
    return _tuple_new(Timing, (t0, (k / 2.0 + 1.0) * t0, (k + 1.0) * t0 / 2.0))


def _chain(cfg: ProtocolConfig, tm: Timing) -> Callable[[float], tuple[float, float]]:
    """``price(f) -> (F_final, P_k)`` at raw fidelity f; terms free of f run once.

    A price builds no value type.  The repetition price calls
    ``codes._stored_pair``, ``bell_algebra._pump`` and one ``_swap`` for
    the whole ladder.  The css chain computes q_g's round factors, the
    checked 3 q_m + 2 q_g and the code's tail terms once; its price calls
    one ``_pump_noisy`` for all k rounds, then ``codes._q_eff`` and
    ``_tail_sum``, the kernels of ``css_effective_qubit_error`` and
    ``logical_error_prob``.

    repetition: the stored pair accumulates memory dephasing over the pump
    window, decoded per block to a pair flip budget, and runs through k
    ideal rounds; P_k carries the gate discount of the whole tree.  Then
    log2(N) ideal swap levels, and ``_gate_charge`` over N - 1 swaps and one
    pump tree discounts the leading coefficient.  F_final is a lower bound
    at k = 0; for k >= 1 the N - 1 uncharged trees can put it above the
    exact noisy value.
    css: the raw pair runs through k exact imperfect-gate rounds.  The
    purified fidelity F_k, two noisy gates, and three memory half-windows
    per stored qubit make up an i.i.d. error budget q_eff; each of the 2N
    encoded blocks along the line must decode it:

        F_final = (1 - Q_n(q_eff))^(2N).
    """
    code, k, n_seg = cfg.code, cfg.rounds, cfg.num_segments()
    q_g = gate_error_prob(cfg.hardware.local_transmission)  # < 1/2, checked by HardwareParams
    tau_c = cfg.hardware.memory_coherence_s
    if code.family == "repetition":
        q_logical = logical_error_prob(code, memory_error_prob(tm.t_purify_s / 2.0, tau_c))
        p_pair = pair_no_error_prob(q_logical)
        levels = int(math.log2(n_seg))
        pump = _gate_charge(q_g, code.n, k, 0)
        gates = _gate_charge(q_g, code.n, k, n_seg - 1)

        def price(f: float) -> tuple[float, float]:
            # effective_coefficients, purify_k_rounds_lower, then the swap_ideal ladder, on four floats
            a, b, c, d, p_k = _pump(*_stored_pair(f, p_pair), k, pump)
            return _swap(a, b, c, d, levels)[0] * gates, p_k

        return price
    factors = _noisy_factors(q_g)
    base = _css_base(memory_error_prob(tm.t_half_s / 2.0, tau_c), q_g)
    terms = _tail_terms(code.n, code.d)
    try:
        blocks = float(2 * n_seg)  # the double that ** converts the int to
    except OverflowError:  # the int block count has no float
        raise ValueError(f"css block count 2N exceeds the float range, got N={n_seg}") from None

    def price(f: float) -> tuple[float, float]:
        # k purify_imperfect_exact rounds on four floats, css_effective_qubit_error,
        # then logical_error_prob, whose range check _q_eff's [0, 1] result meets
        a, _b, _c, _d, p_chain = _pump_noisy(f, 1.0 - f, 0.0, 0.0, factors, k)
        q_eff, _clamped = _q_eff(base, a)
        return (1.0 - _tail_sum(terms, q_eff)) ** blocks, p_chain

    return price


def _rate(n: int, k: int, t0_s: float, p0: float, p_k: float) -> float:
    # R = P0 P_k / (n 2^k (k/2 + 1) T0); k = 0, P_k = 1 is exactly P0 / (n T0)
    return p0 * p_k / (n * 2**k * (k / 2.0 + 1.0) * t0_s)


def final_fidelity(cfg: ProtocolConfig) -> float:
    """End-to-end fidelity F_final (for the repetition family, a lower bound only at k = 0)."""
    return _chain(cfg, timing(cfg))(cfg.raw_fidelity())[0]


def heralding_probability(cfg: ProtocolConfig) -> float:
    """Per-attempt success probability P0 of raw pair generation."""
    return success_probability(cfg.raw_fidelity(), cfg.segment_transmittance())


def rate_unpurified(cfg: ProtocolConfig) -> float:
    """Raw pair rate per memory qubit, R = P0 / (n T0)."""
    return _rate(cfg.code.n, 0, timing(cfg).t0_s, heralding_probability(cfg), 1.0)


def pump_success_probability(cfg: ProtocolConfig) -> float:
    """Success probability of the whole k-round pump tree (1 for k = 0)."""
    return _chain(cfg, timing(cfg))(cfg.raw_fidelity())[1]


def rate_purified(cfg: ProtocolConfig) -> float:
    """Purified pair rate per memory qubit.

    Pumping k rounds consumes 2^k raw pairs over a window (k/2 + 1) T0 and
    succeeds with probability P_k, so

        R = P0 P_k / (n 2^k (k/2 + 1) T0).

    k = 0 is rejected: there is no pump tree to price, use
    :func:`rate_unpurified`.
    """
    if cfg.rounds == 0:
        raise ValueError("rounds = 0 has no purification step; use rate_unpurified")
    p0 = heralding_probability(cfg)
    return _rate(cfg.code.n, cfg.rounds, timing(cfg).t0_s, p0, pump_success_probability(cfg))


def _row(
    cfg: ProtocolConfig, tm: Timing, f: float, f_final: float, p_k: float, error: str | None = None
) -> SweepResult:
    """Row of ``cfg`` at raw fidelity f, already priced to (F_final, P_k).

    P0 and the rate, computed here, raise only for f outside (1/2, 1]; an
    ``error`` given is stored in the row and every number becomes NaN.
    """
    if error is None:
        p0 = success_probability(f, cfg.segment_transmittance())
        rate = _rate(cfg.code.n, cfg.rounds, tm.t0_s, p0, p_k)
    else:
        f = f_final = p0 = p_k = rate = math.nan
    code, hw = cfg.code, cfg.hardware
    return _tuple_new(SweepResult, (
        code.label, code.family, cfg.rounds, hw.memory_coherence_s, 1.0 - hw.local_transmission,
        cfg.total_distance_km, cfg.segment_km, f, f_final, p0, p_k, rate,
        tm.t_purify_s if code.family == "repetition" else tm.t_half_s, error,
    ))


def evaluate(cfg: ProtocolConfig) -> SweepResult:
    """Evaluate one grid point from a single pump chain, capturing failures in the row."""
    tm = timing(cfg)
    try:
        f = cfg.raw_fidelity()
        return _row(cfg, tm, f, *_chain(cfg, tm)(f))
    except (ValueError, ArithmeticError) as exc:
        return _row(cfg, tm, math.nan, math.nan, math.nan, str(exc))


def with_fidelity(cfg: ProtocolConfig, f: float) -> ProtocolConfig:
    """Copy of ``cfg`` pinned to a direct raw fidelity; it keeps the config's segment and attenuation lengths."""
    return cfg._replace(fidelity=f, channel=None)


def operating_point(cfg: ProtocolConfig, target_f_final: float) -> OperatingPoint:
    """Smallest raw fidelity whose final fidelity meets the target.

    F_final is monotone in the raw F, so bisection over (1/2, 1) to an
    absolute tolerance of 1e-4 finds the boundary.  When even F -> 1 misses
    the target, the point is infeasible and the best achievable final
    fidelity is reported instead.  The returned row is priced by the
    bisection's own chain at F* (at the upper bracket when infeasible).
    """
    if not 0.0 < target_f_final < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target_f_final}")
    tm = timing(cfg)
    price = _chain(cfg, tm)
    lo, hi = _F_LO, _F_HI
    # (F_final, P_k) at hi, kept for the returned row
    at_hi = price(hi)
    f_at_hi = at_hi[0]
    feasible = f_at_hi >= target_f_final
    if feasible:
        at_lo = price(lo)
        if at_lo[0] >= target_f_final:
            hi, at_hi = lo, at_lo
    while feasible and hi - lo > _F_TOL:
        mid = 0.5 * (lo + hi)
        at_mid = price(mid)
        if at_mid[0] >= target_f_final:
            hi, at_hi = mid, at_mid
        else:
            lo = mid
    return OperatingPoint(feasible, hi if feasible else None, _row(cfg, tm, hi, *at_hi), f_at_hi)


def sweep(configs: Sequence[ProtocolConfig]) -> list[SweepResult]:
    """Evaluate a grid of operating points, in order."""
    return [evaluate(c) for c in configs]
