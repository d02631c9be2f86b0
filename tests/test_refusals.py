"""Every refusal of the library, one row per input, each with its exact message.

``REFUSALS`` maps a row's id to a call, the exception type it must raise and
the exact message.  The guard reads every ``raise`` in the library modules and
maps each row to the ``raise`` its exception left from: each site is reached
by a row, or named in ``UNREACHED`` with the test that covers it instead.
``cli``'s parse errors are ``test_cli``'s table.
"""

import ast
import collections
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from repeaterlab.bell_algebra import (
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
from repeaterlab.codes import (
    Code,
    css_effective_qubit_error,
    effective_coefficients,
    logical_error_prob,
    pair_no_error_prob,
)
from repeaterlab.core import (
    ChannelParams,
    HardwareParams,
    gate_error_prob,
    initial_fidelity,
    memory_error_prob,
    success_probability,
    transmittance,
)
from repeaterlab.montecarlo import McConfig, finite_window_estimate, simulate_rate
from repeaterlab.oracle import (
    DensityMatrix,
    _bell_matrix,
    _index_map,
    _run,
    enumerate_logical_error,
    match_gate_variant,
    simulate_purification_round,
    simulate_swapping,
)
from repeaterlab.pipeline import final_fidelity, operating_point, rate_purified
from repeaterlab.qubus import (
    QubusPlan,
    chained_qubus_phases,
    feasibility,
    homodyne_error,
    min_beta,
    phases_distinct,
    single_qubus_phases,
)
from test_imports import PACKAGE, _nodes
from test_value_types import CHANNEL, LEDGER, STATE, _cfg, _channel_cfg

TESTS = Path(__file__).parent
S_WORK = BellDiagonal(0.9, 0.1, 0.0, 0.0)
S_ROUND = BellDiagonal(0.8, 0.1, 0.06, 0.04)
# sums to 1 + 9e-13, inside the tolerance; one purification or swap step
# squares the sum past it
S_EDGE = BellDiagonal(0.6, 0.0, 0.0, 0.4000000000009)
GOOD_SAMPLE = (BellDiagonal(0.9, 0.05, 0.03, 0.02), 0.01)
BAD_GATE = (BellDiagonal(0.8, 0.1, 0.05, 0.05), 0.6)
BAD_STATE = (BellDiagonal(0.5, 0.2, 0.0, 0.0), 0.01)
# a line of 2^15 segments prices an error row (the swap ladder's sum check),
# which no estimator samples
DEEP = _cfg(total_distance_km=20.0 * 2**15, fidelity=0.9)
# a pump window of 1e-155 s, whose Monte Carlo spread squares past the float range
TINY = _cfg(
    total_distance_km=2e-150, segment_km=1e-150, code=Code(1, 1, "repetition"), rounds=0, fidelity=0.9,
    attenuation_km=3.6e-150,
)


def _mixed4(entry, value):
    """The maximally mixed two-qubit matrix with one entry replaced."""
    m = np.eye(4, dtype=complex) / 4.0
    m[entry] = value
    return m


def _mc(**kw):
    return McConfig(**{"p0": 0.1, "blocks": 100, "rounds": 2, "trials": 10, **kw})


# {id: (call, exception type, exact message)}, one row per input; the value
# types' constructor rows come first, then the rest module by module
REFUSALS = {
    "bell-a": (lambda: BellDiagonal(-0.1, 0.5, 0.3, 0.1), ValueError, "coefficient a must be >= 0, got -0.1"),
    "bell-b": (lambda: BellDiagonal(0.5, -0.1, 0.3, 0.1), ValueError, "coefficient b must be >= 0, got -0.1"),
    "bell-c": (lambda: BellDiagonal(0.5, 0.3, -0.1, 0.1), ValueError, "coefficient c must be >= 0, got -0.1"),
    "bell-d": (lambda: BellDiagonal(0.5, 0.3, 0.1, -0.1), ValueError, "coefficient d must be >= 0, got -0.1"),
    "bell-nan": (lambda: BellDiagonal(0.5, math.nan, 0.0, 0.0), ValueError, "coefficient b must be >= 0, got nan"),
    # the first failing coefficient names itself
    "bell-first": (lambda: BellDiagonal(0.5, -1e-13, -0.2, -0.3), ValueError, "coefficient c must be >= 0, got -0.2"),
    "bell-sum": (lambda: BellDiagonal(0.5, 0.5, 0.5, 0.0), ValueError, "coefficients must sum to <= 1, got 1.5"),
    "bell-inf": (lambda: BellDiagonal(math.inf, 0.0, 0.0, 0.0), ValueError, "coefficients must sum to <= 1, got inf"),
    "outcome-high": (lambda: PurifyOutcome(BellDiagonal(*STATE), 1.5), ValueError,
                     "success_prob must lie in [0, 1], got 1.5"),
    "outcome-low": (lambda: PurifyOutcome(BellDiagonal(*STATE), -0.1), ValueError,
                    "success_prob must lie in [0, 1], got -0.1"),
    "outcome-nan": (lambda: PurifyOutcome(BellDiagonal(*STATE), math.nan), ValueError,
                    "success_prob must lie in [0, 1], got nan"),
    "code-d-high": (lambda: Code(3, 5, "css"), ValueError, "need 1 <= d <= n, got n=3, d=5"),
    "code-d-low": (lambda: Code(3, 0, "css"), ValueError, "need 1 <= d <= n, got n=3, d=0"),
    "code-even-d": (lambda: Code(4, 2, "css"), ValueError, "majority decoding needs odd d, got d=2"),
    "code-family": (lambda: Code(7, 3, "surface"), ValueError, "unknown code family 'surface'"),
    "code-repetition-d": (lambda: Code(7, 3, "repetition"), ValueError, "repetition codes have d = n, got n=7, d=3"),
    "code-n-float": (lambda: Code(7.5, 3, "css"), ValueError, "code parameter n must be an integer, got 7.5"),
    "code-d-float": (lambda: Code(7, 3.0, "css"), ValueError, "code parameter d must be an integer, got 3.0"),
    "code-n-bool": (lambda: Code(True, True, "repetition"), ValueError,
                    "code parameter n must be an integer, got True"),
    "code-n-str": (lambda: Code("7", 3, "css"), ValueError, "code parameter n must be an integer, got '7'"),
    # every tail holds C(n, ceil(n/2)), which has no float from n = 1030; a
    # huge n is refused without building one
    "code-n-1030": (lambda: Code(1030, 1029, "css"), ValueError, "code length n must be at most 1029, got n=1030"),
    "code-n-1031": (lambda: Code(1031, 1031, "repetition"), ValueError,
                    "code length n must be at most 1029, got n=1031"),
    "code-n-huge": (lambda: Code(10**100, 1, "css"), ValueError,
                    f"code length n must be at most 1029, got n={10**100}"),
    # the integer rule runs before the range rules
    "code-type-first": (lambda: Code(1031, 3.5, "css"), ValueError, "code parameter d must be an integer, got 3.5"),
    "channel-segment": (lambda: ChannelParams(0.0, 0.001, 0.01), ValueError, "segment_length_km must be > 0, got 0.0"),
    "channel-segment-nan": (lambda: ChannelParams(math.nan, 0.001, 0.01), ValueError,
                            "segment_length_km must be > 0, got nan"),
    "channel-strength": (lambda: ChannelParams(20.0, -1.0, 0.01), ValueError,
                         "qubus_strength must be finite and >= 0, got -1.0"),
    "channel-strength-inf": (lambda: ChannelParams(20.0, math.inf, 0.01), ValueError,
                             "qubus_strength must be finite and >= 0, got inf"),
    "channel-angle-0": (lambda: ChannelParams(20.0, 0.001, 0.0), ValueError,
                        "interaction_angle_rad must lie in (0, pi), got 0.0"),
    "channel-angle-pi": (lambda: ChannelParams(20.0, 0.001, math.pi), ValueError,
                         "interaction_angle_rad must lie in (0, pi), got 3.141592653589793"),
    "channel-angle-nan": (lambda: ChannelParams(20.0, 0.001, math.nan), ValueError,
                          "interaction_angle_rad must lie in (0, pi), got nan"),
    "hardware-t-0": (lambda: HardwareParams(0.0, 0.1), ValueError, "local_transmission must lie in (0, 1], got 0.0"),
    "hardware-t-high": (lambda: HardwareParams(1.5, 0.1), ValueError, "local_transmission must lie in (0, 1], got 1.5"),
    # T = 1e-3 rounds the gate error q_g to 1/2
    "hardware-gate-error": (lambda: HardwareParams(1e-3, 0.1), ValueError,
                            "local_transmission must give a gate error below 1/2, got 0.001"),
    "hardware-tau": (lambda: HardwareParams(0.999, 0.0), ValueError, "memory_coherence_s must be > 0, got 0.0"),
    "hardware-speed-inf": (lambda: HardwareParams(0.999, 0.1, math.inf), ValueError,
                           "fiber_speed_m_per_s must be finite and > 0, got inf"),
    "hardware-speed-0": (lambda: HardwareParams(0.999, 0.1, 0.0), ValueError,
                         "fiber_speed_m_per_s must be finite and > 0, got 0.0"),
    "cfg-total": (lambda: _cfg(total_distance_km=0.0), ValueError, "total_distance_km must be > 0, got 0.0"),
    # the first rule broken is the one reported
    "cfg-first": (lambda: _cfg(total_distance_km=-1.0, segment_km=0.0), ValueError,
                  "total_distance_km must be > 0, got -1.0"),
    "cfg-segment": (lambda: _cfg(segment_km=0.0), ValueError, "segment_km must be > 0, got 0.0"),
    "cfg-attenuation": (lambda: _cfg(attenuation_km=0.0), ValueError, "attenuation_km must be > 0, got 0.0"),
    "cfg-attenuation-nan": (lambda: _cfg(attenuation_km=math.nan), ValueError, "attenuation_km must be > 0, got nan"),
    "cfg-rounds-low": (lambda: _cfg(rounds=-1), ValueError, "rounds must be an integer in [0, 1000], got -1"),
    "cfg-rounds-high": (lambda: _cfg(rounds=1001), ValueError, "rounds must be an integer in [0, 1000], got 1001"),
    "cfg-rounds-float": (lambda: _cfg(rounds=2.0), ValueError, "rounds must be an integer in [0, 1000], got 2.0"),
    "cfg-rounds-bool": (lambda: _cfg(rounds=True), ValueError, "rounds must be an integer in [0, 1000], got True"),
    "cfg-no-source": (lambda: _cfg(fidelity=None), ValueError, "give exactly one of channel= or fidelity="),
    "cfg-two-sources": (lambda: _cfg(channel=ChannelParams(*CHANNEL)), ValueError,
                        "give exactly one of channel= or fidelity="),
    "cfg-fidelity-half": (lambda: _cfg(fidelity=0.5), ValueError, "fidelity must lie in (1/2, 1], got 0.5"),
    "cfg-fidelity-high": (lambda: _cfg(fidelity=1.5), ValueError, "fidelity must lie in (1/2, 1], got 1.5"),
    "cfg-channel-segment": (lambda: _channel_cfg(segment_km=10.0, total_distance_km=640.0), ValueError,
                            "channel.segment_length_km must equal segment_km, got 20.0 and 10.0"),
    # the config owns the one attenuation length, NaN included
    "cfg-channel-attenuation": (lambda: _channel_cfg(attenuation_km=math.nan), ValueError,
                                "attenuation_km must be > 0, got nan"),
    "cfg-ratio-3": (lambda: _cfg(total_distance_km=60.0), ValueError,
                    "total_distance_km / segment_km must be a power of two >= 2, got 3.0"),
    "cfg-ratio-1": (lambda: _cfg(total_distance_km=20.0), ValueError,
                    "total_distance_km / segment_km must be a power of two >= 2, got 1.0"),
    "cfg-ratio-inf": (lambda: _cfg(total_distance_km=1e308, segment_km=1e-308), ValueError,
                      "total_distance_km / segment_km must be a power of two >= 2, got inf"),
    # after the ratio, one clock rule: the pump window t_k = (k/2 + 1) 2 L0 / c
    # overflows here, and so does the rate's denominator, which the rule checks
    "cfg-pump-window-inf": (
        lambda: _cfg(hardware=HardwareParams(0.999, 0.1, 1e-308)), ValueError,
        "segment_km / fiber_speed_m_per_s must give a finite storage window and rate, "
        "got segment_km=20.0, fiber_speed_m_per_s=1e-308",
    ),
    # t_k = 1.6e308 s is finite; the css window 3 T0 / 2 and the rate's
    # denominator n 2^k (k/2 + 1) T0 are not
    "cfg-storage-window-inf": (
        lambda: _cfg(code=Code(7, 3, "css"), hardware=HardwareParams(0.999, 0.1, 5e-304)), ValueError,
        "segment_km / fiber_speed_m_per_s must give a finite storage window and rate, "
        "got segment_km=20.0, fiber_speed_m_per_s=5e-304",
    ),
    # at k = 0 only the rate's denominator 3 T0 overflows
    "cfg-rate-inf": (
        lambda: _cfg(rounds=0, hardware=HardwareParams(0.999, 0.1, 5e-304)), ValueError,
        "segment_km / fiber_speed_m_per_s must give a finite storage window and rate, "
        "got segment_km=20.0, fiber_speed_m_per_s=5e-304",
    ),
    # the last rule: the transmittance exp(-L0 / L_att) must lie in (0, 1),
    # where P0 is defined; it rounds to 1 at L0 = 1e-15 km and to 0 at 20000 km
    "cfg-transmittance-1": (
        lambda: _cfg(total_distance_km=2e-15, segment_km=1e-15), ValueError,
        "segment_km / attenuation_km must give a transmittance in (0, 1), got segment_km=1e-15, attenuation_km=25.5",
    ),
    "cfg-transmittance-0": (
        lambda: _cfg(total_distance_km=40000.0, segment_km=20000.0), ValueError,
        "segment_km / attenuation_km must give a transmittance in (0, 1), got segment_km=20000.0, attenuation_km=25.5",
    ),
    "cfg-transmittance-inf-attenuation": (
        lambda: _cfg(attenuation_km=math.inf), ValueError,
        "segment_km / attenuation_km must give a transmittance in (0, 1), got segment_km=20.0, attenuation_km=inf",
    ),
    "density-shape": (lambda: DensityMatrix(np.ones(3)), ValueError, "matrix must be square, got shape (3,)"),
    "density-dim": (lambda: DensityMatrix(np.eye(3) / 3.0), ValueError, "dimension must be 2^m with m <= 4, got 3"),
    "density-hermitian": (lambda: DensityMatrix([[0.5, 0.1], [0.0, 0.5]]), ValueError, "matrix is not Hermitian"),
    "density-nan": (lambda: DensityMatrix([[0.5, math.nan], [math.nan, 0.5]]), ValueError, "matrix is not Hermitian"),
    "density-trace": (lambda: DensityMatrix(np.eye(2)), ValueError, "trace must be 1, got (2+0j)"),
    "density-negative": (lambda: DensityMatrix(np.diag([1.2, -0.2])), ValueError,
                         "negative eigenvalue below floor: -0.2"),
    "mc-p0": (lambda: McConfig(0.0, 1, 0, 1), ValueError, "p0 must lie in (0, 1], got 0.0"),
    "mc-p0-nan": (lambda: McConfig(math.nan, 1, 0, 1), ValueError, "p0 must lie in (0, 1], got nan"),
    "mc-blocks": (lambda: McConfig(0.5, 0, 0, 1), ValueError, "blocks must be an integer >= 1, got 0"),
    "mc-blocks-float": (lambda: McConfig(0.5, 2.5, 0, 1), ValueError, "blocks must be an integer >= 1, got 2.5"),
    "mc-blocks-bool": (lambda: McConfig(0.5, True, 0, 1), ValueError, "blocks must be an integer >= 1, got True"),
    "mc-rounds": (lambda: McConfig(0.5, 1, -1, 1), ValueError, "rounds must be an integer >= 0, got -1"),
    "mc-trials": (lambda: McConfig(0.5, 1, 0, 0), ValueError, "trials must be an integer >= 1, got 0"),
    "mc-seed": (lambda: McConfig(0.5, 1, 0, 1, seed=-1), ValueError, "seed must be an integer >= 0, got -1"),
    "mc-seed-float": (lambda: McConfig(0.5, 1, 0, 1, seed=1.5), ValueError, "seed must be an integer >= 0, got 1.5"),
    # the first rule broken is the one reported
    "mc-first": (lambda: McConfig(0.5, 0, -1, 0), ValueError, "blocks must be an integer >= 1, got 0"),
    "qubus-00": (lambda: QubusPlan(2, 0.1, ({**LEDGER, "00": 0.1},)), ValueError,
                 "ledgers[0]: codeword 00 must carry phase 0, got 0.1"),
    "qubus-11": (lambda: QubusPlan(2, 0.1, ({**LEDGER, "11": -0.1},)), ValueError,
                 "ledgers[0]: codeword 11 must carry phase 0, got -0.1"),
    "qubus-111": (lambda: QubusPlan(3, 0.1, ({"000": 0.0, "011": 0.1, "100": -0.1, "111": 0.2},)), ValueError,
                  "ledgers[0]: codeword 111 must carry phase 0, got 0.2"),
    "qubus-chained": (lambda: QubusPlan(3, 0.1, (dict(LEDGER), {**LEDGER, "11": 0.2})), ValueError,
                      "ledgers[1]: codeword 11 must carry phase 0, got 0.2"),
    # core: the channel, the hardware and each formula's own domain
    "transmittance-attenuation-0": (lambda: transmittance(10.0, 0.0), ValueError,
                                    "attenuation_length_km must be > 0, got 0.0"),
    "transmittance-length-negative": (lambda: transmittance(-1.0, 25.5), ValueError,
                                      "length_km must be >= 0, got -1.0"),
    "transmittance-length-nan": (lambda: transmittance(math.nan, 25.5), ValueError, "length_km must be >= 0, got nan"),
    "raw-f-alpha-negative": (lambda: initial_fidelity(-1.0, 0.3, 0.5), ValueError,
                             "alpha must be finite and >= 0, got -1.0"),
    "raw-f-eta-0": (lambda: initial_fidelity(1.0, 0.3, 0.0), ValueError, "eta must lie in (0, 1], got 0.0"),
    "raw-f-alpha-nan": (lambda: initial_fidelity(math.nan, 0.3, 0.5), ValueError,
                        "alpha must be finite and >= 0, got nan"),
    # an infinite alpha meets a zero factor as inf * 0 = nan
    "raw-f-alpha-inf-0": (lambda: initial_fidelity(math.inf, 0.0, 0.5), ValueError,
                          "alpha must be finite and >= 0, got inf"),
    "raw-f-alpha-inf-1": (lambda: initial_fidelity(math.inf, 0.3, 1.0), ValueError,
                          "alpha must be finite and >= 0, got inf"),
    "raw-f-theta-nan": (lambda: initial_fidelity(1.0, math.nan, 0.5), ValueError, "theta_rad must be finite, got nan"),
    "raw-f-theta-inf": (lambda: initial_fidelity(1.0, math.inf, 0.5), ValueError, "theta_rad must be finite, got inf"),
    # a finite alpha whose square overflows, where 1 - cos(theta) rounds to 0
    "raw-f-exponent": (lambda: initial_fidelity(1e160, 1e-9, 0.5), ValueError,
                       "alpha and theta_rad give no finite dephasing exponent, got alpha=1e+160, theta_rad=1e-09"),
    "p0-lossless": (lambda: success_probability(0.9, 1.0), ValueError,
                    "eta = 1 is the lossless limit; P0 is undefined by this formula"),
    "p0-eta": (lambda: success_probability(0.9, 1.5), ValueError, "eta must lie in (0, 1) for heralding, got 1.5"),
    "p0-f-half": (lambda: success_probability(0.5, 0.5), ValueError, "fidelity must lie in (1/2, 1], got 0.5"),
    "p0-f-low": (lambda: success_probability(0.2, 0.5), ValueError, "fidelity must lie in (1/2, 1], got 0.2"),
    "p0-f-high": (lambda: success_probability(1.0 + 1e-9, 0.5), ValueError,
                  "fidelity must lie in (1/2, 1], got 1.000000001"),
    "gate-error-t-0": (lambda: gate_error_prob(0.0), ValueError, "local_transmission must lie in (0, 1], got 0.0"),
    "gate-error-t-high": (lambda: gate_error_prob(1.1), ValueError, "local_transmission must lie in (0, 1], got 1.1"),
    "memory-elapsed-negative": (lambda: memory_error_prob(-1.0, 0.1), ValueError, "elapsed_s must be >= 0, got -1.0"),
    "memory-coherence-0": (lambda: memory_error_prob(1.0, 0.0), ValueError, "coherence_s must be > 0, got 0.0"),
    "memory-elapsed-nan": (lambda: memory_error_prob(math.nan, 0.1), ValueError, "elapsed_s must be >= 0, got nan"),
    "memory-both-inf": (lambda: memory_error_prob(math.inf, math.inf), ValueError,
                        "elapsed_s and coherence_s cannot both be infinite, got elapsed_s=inf, coherence_s=inf"),
    # a probe of strength 1 at 0.1 rad
    "channel-1-segment": (lambda: ChannelParams(0.0, 1.0, 0.1), ValueError, "segment_length_km must be > 0, got 0.0"),
    "channel-1-strength": (lambda: ChannelParams(20.0, -1.0, 0.1), ValueError,
                           "qubus_strength must be finite and >= 0, got -1.0"),
    "channel-1-angle-0": (lambda: ChannelParams(20.0, 1.0, 0.0), ValueError,
                          "interaction_angle_rad must lie in (0, pi), got 0.0"),
    "channel-1-angle-pi": (lambda: ChannelParams(20.0, 1.0, math.pi), ValueError,
                           "interaction_angle_rad must lie in (0, pi), got 3.141592653589793"),
    "channel-1-angle-nan": (lambda: ChannelParams(20.0, 1.0, math.nan), ValueError,
                            "interaction_angle_rad must lie in (0, pi), got nan"),
    "channel-1-strength-nan": (lambda: ChannelParams(20.0, math.nan, 0.1), ValueError,
                               "qubus_strength must be finite and >= 0, got nan"),
    "hardware-t-1.2": (lambda: HardwareParams(1.2, 0.1), ValueError, "local_transmission must lie in (0, 1], got 1.2"),
    "hardware-tau-0": (lambda: HardwareParams(0.9, 0.0), ValueError, "memory_coherence_s must be > 0, got 0.0"),
    "hardware-tau-negative": (lambda: HardwareParams(0.9, -1.0), ValueError,
                              "memory_coherence_s must be > 0, got -1.0"),
    "hardware-speed-nan": (lambda: HardwareParams(0.999, 0.1, math.nan), ValueError,
                           "fiber_speed_m_per_s must be finite and > 0, got nan"),
    "hardware-speed-negative": (lambda: HardwareParams(0.999, 0.1, -2.0e8), ValueError,
                                "fiber_speed_m_per_s must be finite and > 0, got -200000000.0"),
    # codes
    "code-d-above-n": (lambda: Code(3, 5, "repetition"), ValueError, "need 1 <= d <= n, got n=3, d=5"),
    "code-even-d-css": (lambda: Code(7, 4, "css"), ValueError, "majority decoding needs odd d, got d=4"),
    "code-family-surface": (lambda: Code(3, 3, "surface"), ValueError, "unknown code family 'surface'"),
    "tail-q": (lambda: logical_error_prob(Code(3, 3, "repetition"), 1.5), ValueError,
               "q_eff must lie in [0, 1], got 1.5"),
    "pair-q": (lambda: pair_no_error_prob(1.5), ValueError, "q_logical must lie in [0, 1], got 1.5"),
    "coeffs-f-nan": (lambda: effective_coefficients(math.nan, 0.5), ValueError, "fidelity must lie in [0, 1], got nan"),
    "coeffs-f-high": (lambda: effective_coefficients(1.5, 0.5), ValueError, "fidelity must lie in [0, 1], got 1.5"),
    "coeffs-p-negative": (lambda: effective_coefficients(0.5, -0.1), ValueError, "p_pair must lie in [0, 1], got -0.1"),
    "coeffs-p-nan": (lambda: effective_coefficients(0.5, math.nan), ValueError, "p_pair must lie in [0, 1], got nan"),
    "css-q-m": (lambda: css_effective_qubit_error(-0.1, 0.0, 1.0), ValueError, "q_m_half must lie in [0, 1], got -0.1"),
    "css-f-k": (lambda: css_effective_qubit_error(0.0, 0.0, 1.5), ValueError, "f_k must lie in [0, 1], got 1.5"),
    # one domain for q_g, the one bell_algebra and HardwareParams hold
    "css-q-g-half": (lambda: css_effective_qubit_error(0.1, 0.5, 0.9), ValueError, "q_g must lie in [0, 1/2), got 0.5"),
    "css-q-g-0.7": (lambda: css_effective_qubit_error(0.1, 0.7, 0.9), ValueError, "q_g must lie in [0, 1/2), got 0.7"),
    "css-q-g-1.5": (lambda: css_effective_qubit_error(0.1, 1.5, 0.9), ValueError, "q_g must lie in [0, 1/2), got 1.5"),
    # bell_algebra: the value types, the kernels and the pump's arguments
    "bell-negative": (lambda: BellDiagonal(0.5, -0.1, 0.3, 0.3), ValueError, "coefficient b must be >= 0, got -0.1"),
    "bell-nan-a": (lambda: BellDiagonal(math.nan, 0.1, 0.1, 0.1), ValueError, "coefficient a must be >= 0, got nan"),
    "bell-nan-b": (lambda: BellDiagonal(0.7, math.nan, 0.1, 0.1), ValueError, "coefficient b must be >= 0, got nan"),
    "bell-nan-c": (lambda: BellDiagonal(0.7, 0.1, math.nan, 0.1), ValueError, "coefficient c must be >= 0, got nan"),
    "bell-nan-d": (lambda: BellDiagonal(0.7, 0.1, 0.1, math.nan), ValueError, "coefficient d must be >= 0, got nan"),
    "ideal-zero-branch": (lambda: purify_ideal(BellDiagonal(0.0, 0.0, 0.0, 0.0)), ArithmeticError,
                          "purification branch has zero weight; state cannot be post-selected"),
    "exact-zero-branch": (lambda: purify_imperfect_exact(BellDiagonal(0.0, 0.0, 0.0, 0.0), 0.1), ArithmeticError,
                          "purification branch has zero weight; state cannot be post-selected"),
    # a total inside the constructor's tolerance squares to a P outside it
    "exact-p-above-1": (lambda: purify_imperfect_exact(BellDiagonal(1.000000000001, 0.0, 0.0, 0.0), 0.0), ValueError,
                        "success_prob must lie in [0, 1], got 1.0000000000020002"),
    "exact-q-g-half": (lambda: purify_imperfect_exact(S_WORK, 0.5), ValueError, "q_g must lie in [0, 1/2), got 0.5"),
    "exact-q-g-negative": (lambda: purify_imperfect_exact(S_WORK, -0.1), ValueError,
                           "q_g must lie in [0, 1/2), got -0.1"),
    # a kernel step that fails a check is built as the value type, which raises
    "pump-ideal-b": (lambda: _pump(-0.1, 0.6, 0.3, 0.2, 1, 1.0), ValueError,
                     "coefficient b must be >= 0, got -0.048780487804878064"),
    "pump-noisy-b": (lambda: _pump_noisy(-0.1, 0.6, 0.3, 0.2, _noisy_factors(0.1), 1), ValueError,
                     "coefficient b must be >= 0, got -0.0235527809307605"),
    "pump-ideal-nan": (lambda: _pump(math.nan, 0.6, 0.3, 0.2, 1, 1.0), ValueError,
                       "coefficient a must be >= 0, got nan"),
    "pump-noisy-nan": (lambda: _pump_noisy(math.nan, 0.6, 0.3, 0.2, _noisy_factors(0.1), 1), ValueError,
                       "coefficient a must be >= 0, got nan"),
    "pump-charged-p": (lambda: _pump(0.9, 0.05, 0.03, 0.02, 1, 2.0), ValueError,
                       "success_prob must lie in [0, 1], got 1.7056"),
    "ideal-edge": (lambda: purify_ideal(S_EDGE), ValueError, "success_prob must lie in [0, 1], got 1.0000000000018"),
    "lower-edge": (lambda: purify_k_rounds_lower(S_EDGE, 0.0, 1, 2), ValueError,
                   "success_prob must lie in [0, 1], got 1.0000000000018"),
    "swap-edge": (lambda: swap_ideal(S_EDGE), ValueError, "coefficients must sum to <= 1, got 1.0000000000018"),
    "lower-k-negative": (lambda: purify_k_rounds_lower(S_WORK, 1e-3, 3, -1), ValueError,
                         "round count k must be an integer >= 0, got -1"),
    # a bool is no integer here, as in Code and ProtocolConfig.rounds
    "lower-k-bool": (lambda: purify_k_rounds_lower(S_WORK, 1e-3, 3, True), ValueError,
                     "round count k must be an integer >= 0, got True"),
    "lower-n-bool": (lambda: purify_k_rounds_lower(S_WORK, 1e-3, True, 1), ValueError,
                     "code length n must be an integer >= 1, got True"),
    "lower-n-k-bool": (lambda: purify_k_rounds_lower(S_WORK, 0.01, True, True), ValueError,
                       "code length n must be an integer >= 1, got True"),
    # 4n (2^k - 1) has no float at k = 2000
    "lower-charge": (lambda: purify_k_rounds_lower(S_WORK, 0.1, 3, 2000), ValueError,
                     "gate-charge exponent exceeds the float range, got n=3, k=2000, swaps=0"),
    # pipeline
    "cfg-ratio-noninteger": (lambda: _cfg(segment_km=30.0), ValueError,
                             "total_distance_km / segment_km must be a power of two >= 2, got 42.666666666666664"),
    "cfg-two-sources-20": (lambda: _cfg(channel=ChannelParams(20.0, 20.0, 0.01)), ValueError,
                           "give exactly one of channel= or fidelity="),
    "cfg-channel-segment-25": (lambda: _cfg(channel=ChannelParams(25.0, 20.0, 0.01), fidelity=None), ValueError,
                               "channel.segment_length_km must equal segment_km, got 25.0 and 20.0"),
    "rate-purified-k0": (lambda: rate_purified(_cfg(rounds=0)), ValueError,
                         "rounds = 0 has no purification step; use rate_unpurified"),
    "solve-target": (lambda: operating_point(_cfg(), 1.0), ValueError, "target must lie in (0, 1), got 1.0"),
    # N = 2^1023 css blocks: 2N has no float
    "css-block-count": (
        lambda: final_fidelity(_cfg(total_distance_km=2.0**1023, segment_km=1.0, code=Code(7, 3, "css"), rounds=0)),
        ValueError, f"css block count 2N exceeds the float range, got N={2**1023}",
    ),
    # qubus
    "qubus-enum-cap": (lambda: single_qubus_phases(17, 0.01), ValueError, "explicit ledger limited to n <= 16, got 17"),
    "qubus-n-1": (lambda: single_qubus_phases(1, 0.01), ValueError, "n must be an integer >= 2, got 1"),
    "qubus-theta-0": (lambda: single_qubus_phases(2, 0.0), ValueError, "theta_rad must be finite and > 0, got 0.0"),
    "qubus-theta-negative": (lambda: single_qubus_phases(2, -0.1), ValueError,
                             "theta_rad must be finite and > 0, got -0.1"),
    "qubus-single-000": (lambda: QubusPlan(3, 0.01, ({**single_qubus_phases(3, 0.01).ledgers[0], "000": 0.1},)),
                         ValueError, "ledgers[0]: codeword 000 must carry phase 0, got 0.1"),
    "qubus-chained-11": (
        lambda: QubusPlan(
            3, 0.01, (chained_qubus_phases(3, 0.01).ledgers[0], {"00": 0.0, "01": -0.01, "10": 0.01, "11": -0.1})
        ),
        ValueError, "ledgers[1]: codeword 11 must carry phase 0, got -0.1",
    ),
    "qubus-empty-ledger": (lambda: QubusPlan(2, 0.1, ({},)), ValueError,
                           "ledgers[0]: must map at least one pattern, got {}"),
    "qubus-missing": (
        lambda: QubusPlan(2, 0.01, (single_qubus_phases(2, 0.01).ledgers[0], {"00": 0.0, "01": 0.01, "10": -0.01})),
        ValueError, "ledgers[1]: codeword 11 is missing",
    ),
    # inf * (1 - cos 2 pi) = inf * 0 would print homodyne_error = nan
    "homodyne-beta-inf": (lambda: homodyne_error(math.inf, 2.0 * math.pi), ValueError,
                          "beta must be finite and > 0, got inf"),
    "homodyne-beta-nan": (lambda: homodyne_error(math.nan, 2.0 * math.pi), ValueError,
                          "beta must be finite and > 0, got nan"),
    "homodyne-beta-0": (lambda: homodyne_error(0.0, 0.01), ValueError, "beta must be finite and > 0, got 0.0"),
    "homodyne-beta-negative": (lambda: homodyne_error(-1.0, 0.01), ValueError, "beta must be finite and > 0, got -1.0"),
    "homodyne-theta-0": (lambda: homodyne_error(10.0, 0.0), ValueError, "theta_rad must be finite and > 0, got 0.0"),
    # a non-finite theta is refused by name at every entry point
    **{
        f"theta-{name}-{theta}": (
            functools.partial(call, theta), ValueError, f"theta_rad must be finite and > 0, got {theta}"
        )
        for name, call in {
            "feasibility": lambda t: feasibility(5, t),
            "phases-distinct": lambda t: phases_distinct(5, t),
            "phases-distinct-analytic": lambda t: phases_distinct(20, t),
            "single": lambda t: single_qubus_phases(5, t),
            "chained": lambda t: chained_qubus_phases(5, t),
            "homodyne-error": lambda t: homodyne_error(1.0, t),
            "min-beta": lambda t: min_beta(t, 0.1),
        }.items()
        for theta in (math.inf, -math.inf, math.nan)
    },
    # at theta = 2 pi, 1 - cos theta is 0.0: no amplitude separates the probe states
    "min-beta-gap-0": (
        lambda: min_beta(2.0 * math.pi, 1e-3), ArithmeticError,
        "no finite amplitude reaches the target error, got theta_rad=6.283185307179586, target_error=0.001",
    ),
    "min-beta-target-0": (lambda: min_beta(0.01, 0.0), ValueError, "target_error must lie in (0, 1/2), got 0.0"),
    "min-beta-target-half": (lambda: min_beta(0.01, 0.5), ValueError, "target_error must lie in (0, 1/2), got 0.5"),
    "min-beta-target-1": (lambda: min_beta(0.01, 1.0), ValueError, "target_error must lie in (0, 1/2), got 1.0"),
    # oracle
    "density-hermitian-4": (lambda: DensityMatrix(_mixed4((0, 1), 0.1)), ValueError, "matrix is not Hermitian"),
    # a NaN on the diagonal or off it: the eigenvalue solve reads only one triangle
    "density-nan-diagonal": (lambda: DensityMatrix(_mixed4((1, 1), math.nan)), ValueError, "matrix is not Hermitian"),
    "density-nan-off": (lambda: DensityMatrix(_mixed4((0, 1), math.nan)), ValueError, "matrix is not Hermitian"),
    "density-trace-4": (lambda: DensityMatrix(np.eye(4, dtype=complex)), ValueError, "trace must be 1, got (4+0j)"),
    "density-negative-4": (lambda: DensityMatrix(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)), ValueError,
                           "negative eigenvalue below floor: -0.2"),
    "density-shape-2x4": (lambda: DensityMatrix(np.zeros((2, 4))), ValueError,
                          "matrix must be square, got shape (2, 4)"),
    "density-shape-4": (lambda: DensityMatrix(np.zeros((4,))), ValueError, "matrix must be square, got shape (4,)"),
    "density-dim-1": (lambda: DensityMatrix(np.zeros((1, 1))), ValueError, "dimension must be 2^m with m <= 4, got 1"),
    "density-dim-3": (lambda: DensityMatrix(np.zeros((3, 3))), ValueError, "dimension must be 2^m with m <= 4, got 3"),
    "density-dim-32": (lambda: DensityMatrix(np.zeros((32, 32))), ValueError,
                       "dimension must be 2^m with m <= 4, got 32"),
    "bell-matrix-sum": (lambda: _bell_matrix(BellDiagonal(0.5, 0.2, 0.0, 0.0)), ValueError,
                        "state must be normalized, coefficients sum to 0.7"),
    # not numpy's LinAlgError from an eigenvalue solve on NaN entries
    "swapping-nan": (lambda: simulate_swapping(BellDiagonal(0.7, math.nan, 0.2, 0.1)), ValueError,
                     "coefficient b must be >= 0, got nan"),
    "variant-nan": (lambda: match_gate_variant([(BellDiagonal(math.nan, 0.1, 0.1, 0.1), 0.01)]), ValueError,
                    "coefficient a must be >= 0, got nan"),
    "run-gate-swap": (lambda: _run(_bell_matrix(BellDiagonal(1.0, 0.0, 0.0, 0.0)), ((("SWAP", (0, 1)),),)), ValueError,
                      "no index map for gate 'SWAP'"),
    "index-map-h": (lambda: _index_map(2, "H", (0,)), ValueError, "no index map for gate 'H'"),
    # a value string is refused like any other non-member
    "round-zz-before": (
        lambda: simulate_purification_round(S_ROUND, 0.1, "zz_before"), ValueError,
        "variant must be one of zz_before, zz_after, z_control_x_target_before, z_control_x_target_after, "
        "got 'zz_before'",
    ),
    "round-zcxt-after": (
        lambda: simulate_purification_round(S_ROUND, 0.1, "z_control_x_target_after"), ValueError,
        "variant must be one of zz_before, zz_after, z_control_x_target_before, z_control_x_target_after, "
        "got 'z_control_x_target_after'",
    ),
    "round-sideways": (
        lambda: simulate_purification_round(S_ROUND, 0.1, "zz_sideways"), ValueError,
        "variant must be one of zz_before, zz_after, z_control_x_target_before, z_control_x_target_after, "
        "got 'zz_sideways'",
    ),
    "round-none": (
        lambda: simulate_purification_round(S_ROUND, 0.1, None), ValueError,
        "variant must be one of zz_before, zz_after, z_control_x_target_before, z_control_x_target_after, "
        "got None",
    ),
    "round-q-g-negative": (lambda: simulate_purification_round(S_ROUND, -0.01), ValueError,
                           "q_g must lie in [0, 1/2), got -0.01"),
    "round-q-g-half": (lambda: simulate_purification_round(S_ROUND, 0.5), ValueError,
                       "q_g must lie in [0, 1/2), got 0.5"),
    "round-q-g-nan": (lambda: simulate_purification_round(S_ROUND, math.nan), ValueError,
                      "q_g must lie in [0, 1/2), got nan"),
    "enum-n": (lambda: enumerate_logical_error(Code(51, 51, "repetition"), 0.1), ValueError,
               "enumeration is limited to n <= 15, got n=51"),
    "enum-q": (lambda: enumerate_logical_error(Code(3, 3, "repetition"), 1.5), ValueError,
               "q must lie in [0, 1], got 1.5"),
    "variant-no-samples": (lambda: match_gate_variant([]), ValueError, "need at least one (state, q_g) sample"),
    # the first bad sample is the one reported
    "variant-q-g-first": (lambda: match_gate_variant([BAD_GATE, GOOD_SAMPLE]), ValueError,
                          "q_g must lie in [0, 1/2), got 0.6"),
    "variant-q-g-second": (lambda: match_gate_variant([GOOD_SAMPLE, BAD_GATE]), ValueError,
                           "q_g must lie in [0, 1/2), got 0.6"),
    "variant-state-first": (lambda: match_gate_variant([BAD_STATE, GOOD_SAMPLE]), ValueError,
                            "state must be normalized, coefficients sum to 0.7"),
    "variant-state-second": (lambda: match_gate_variant([GOOD_SAMPLE, BAD_STATE]), ValueError,
                             "state must be normalized, coefficients sum to 0.7"),
    "variant-state-wins": (lambda: match_gate_variant([GOOD_SAMPLE, BAD_STATE, BAD_GATE]), ValueError,
                           "state must be normalized, coefficients sum to 0.7"),
    "variant-q-g-wins": (lambda: match_gate_variant([GOOD_SAMPLE, BAD_GATE, BAD_STATE]), ValueError,
                         "q_g must lie in [0, 1/2), got 0.6"),
    # montecarlo
    "mc-p0-0": (lambda: _mc(p0=0.0), ValueError, "p0 must lie in (0, 1], got 0.0"),
    "mc-p0-high": (lambda: _mc(p0=1.5), ValueError, "p0 must lie in (0, 1], got 1.5"),
    "mc-p0-negative": (lambda: _mc(p0=-0.1), ValueError, "p0 must lie in (0, 1], got -0.1"),
    "mc-blocks-0": (lambda: _mc(blocks=0), ValueError, "blocks must be an integer >= 1, got 0"),
    "mc-blocks-2.5": (lambda: _mc(blocks=2.5), ValueError, "blocks must be an integer >= 1, got 2.5"),
    "mc-rounds-negative": (lambda: _mc(rounds=-1), ValueError, "rounds must be an integer >= 0, got -1"),
    "mc-trials-0": (lambda: _mc(trials=0), ValueError, "trials must be an integer >= 1, got 0"),
    "mc-blocks-true": (lambda: _mc(blocks=True), ValueError, "blocks must be an integer >= 1, got True"),
    "mc-rounds-true": (lambda: _mc(rounds=True), ValueError, "rounds must be an integer >= 0, got True"),
    "mc-trials-true": (lambda: _mc(trials=True), ValueError, "trials must be an integer >= 1, got True"),
    "mc-seed-negative": (lambda: _mc(seed=-1), ValueError, "seed must be an integer >= 0, got -1"),
    "mc-seed-1.5": (lambda: _mc(seed=1.5), ValueError, "seed must be an integer >= 0, got 1.5"),
    "mc-seed-true": (lambda: _mc(seed=True), ValueError, "seed must be an integer >= 0, got True"),
    # numpy draws each count, and sizes the array of trials, as int64
    "mc-blocks-int64": (lambda: McConfig(1.0, 2**63, 2, 10), ValueError,
                        "blocks must be at most 2**63 - 1, got 9223372036854775808"),
    "mc-trials-int64": (lambda: McConfig(1.0, 64, 2, 2**63), ValueError,
                        "trials must be at most 2**63 - 1, got 9223372036854775808"),
    # past 2^24 blocks the walk is refused before it starts
    "window-blocks": (
        lambda: finite_window_estimate(
            _cfg(hardware=HardwareParams(0.9999, 0.01)), 0.95, McConfig(1.0, 2**63 - 1, 2, 2)
        ),
        ValueError, "blocks must be at most 2**24 for the exact finite-window estimate, got 9223372036854775807",
    ),
    "simulate-error-row": (lambda: simulate_rate(DEEP, 0.9, McConfig(1.0, 64, 2, 10)), ValueError,
                           "coefficients must sum to <= 1, got 1.0000000000010947"),
    "window-error-row": (lambda: finite_window_estimate(DEEP, 0.9, McConfig(1.0, 64, 2, 10)), ValueError,
                         "coefficients must sum to <= 1, got 1.0000000000010947"),
    "simulate-overflow": (lambda: simulate_rate(TINY, 0.9, McConfig(1.0, 100, 0, 10)), ArithmeticError,
                          "Monte Carlo rate per memory overflows a float (pump window 1e-155 s)"),
}


@pytest.mark.parametrize("call, kind, message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_refusal(call, kind, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


# the modules whose every raise is a row here, or an UNREACHED entry
LIBRARY = ("core", "codes", "bell_algebra", "pipeline", "qubus", "oracle", "montecarlo")
# {site: (covering test, why no row reaches it)}
UNREACHED = {
    "montecarlo.simulate_rate: trials must fit in memory, got {}": (
        "test_cli.py::TestMain::test_montecarlo_trials_past_memory_names_the_field",
        "only numpy failing a huge allocation reaches it, so the covering test patches numpy's draw",
    ),
}


def _template(exc):
    """A raised exception's message with {} for each formatted value, or {its source} where it is no literal."""
    message = exc.args[0] if isinstance(exc, ast.Call) and exc.args else exc
    if isinstance(message, ast.Constant):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in message.values)
    return f"{{{ast.unparse(message)}}}"


@functools.cache
def raise_sites():
    """{site: (module, first line, last line)} of each raise in LIBRARY; a site
    is the raise's owner path and its message template, never a line number."""
    spans = [
        (f"{owner}: {_template(node.exc)}", (module, node.lineno, node.end_lineno))
        for module, _, owner, node in _nodes()
        if module in LIBRARY and isinstance(node, ast.Raise)
    ]
    sites = dict(spans)
    assert len(sites) == len(spans), "two raises share a site"
    return sites


def site_of(call):
    """The site of the raise that ``call``'s exception left from, or where it left."""
    try:
        call()
    except Exception as exc:
        tb = exc.__traceback__
    else:
        return "no exception"
    while tb.tb_next:
        tb = tb.tb_next
    path, line = Path(tb.tb_frame.f_code.co_filename), tb.tb_lineno
    found = [
        site
        for site, (module, first, last) in raise_sites().items()
        if path == PACKAGE / f"{module}.py" and first <= line <= last
    ]
    return found[0] if found else f"{path.name}:{line}"


@functools.cache
def reached():
    """{site: [row ids]} over every row."""
    rows = collections.defaultdict(list)
    for rid, (call, _, _) in REFUSALS.items():
        rows[site_of(call)].append(rid)
    return rows


def test_every_row_leaves_from_a_library_raise():
    assert {site: rows for site, rows in reached().items() if site not in raise_sites()} == {}


def test_every_raise_has_a_row_or_an_unreached_entry():
    assert sorted(raise_sites().keys() - reached().keys() - UNREACHED.keys()) == []
    # an entry names a live site that no row reaches, and a test that exists
    assert {site: reached()[site] for site in UNREACHED if site in reached()} == {}
    assert UNREACHED.keys() <= raise_sites().keys()
    for test, _ in UNREACHED.values():
        file, *names = test.split("::")
        scope = ast.parse((TESTS / file).read_text())
        for name in names:
            defs = getattr(scope, "body", [])
            scope = next((n for n in defs if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        assert scope is not None, test


# the exception types a refusal check must pin by message
REFUSAL_TYPES = {"ValueError", "ArithmeticError", "ConfigError"}


def message_blind(tree):
    """Each ``pytest.raises`` of a refusal type that neither matches a message nor binds the exception."""
    return [
        ast.unparse(item.context_expr)
        for node in ast.walk(tree)
        if isinstance(node, ast.With)
        for item in node.items
        if isinstance(call := item.context_expr, ast.Call)
        and ast.unparse(call.func) == "pytest.raises"
        and REFUSAL_TYPES & {n.id for arg in call.args[:1] for n in ast.walk(arg) if isinstance(n, ast.Name)}
        and not any(k.arg == "match" for k in call.keywords)
        and item.optional_vars is None
    ]


def test_no_refusal_check_is_blind_to_its_message():
    assert message_blind(ast.parse("with pytest.raises(ValueError): f()"))  # positive control
    blind = {p.name: message_blind(ast.parse(p.read_text())) for p in sorted(TESTS.glob("*.py"))}
    assert {name: found for name, found in blind.items() if found} == {}
