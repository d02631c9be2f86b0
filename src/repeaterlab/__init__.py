"""Fidelity and rate models for hybrid quantum repeaters.

Closed-form recursions for purification, swapping, and encoded storage,
cross-checked by density-matrix simulation, exhaustive enumeration, and
Monte Carlo sampling.
"""

from .bell_algebra import (
    BellDiagonal,
    PurifyOutcome,
    purify_ideal,
    purify_imperfect_exact,
    purify_k_rounds_lower,
    purify_lower_bound,
    swap_ideal,
    swap_lower_bound,
)
from .codes import (
    Code,
    code_catalog,
    css_effective_qubit_error,
    effective_coefficients,
    logical_error_prob,
    pair_no_error_prob,
)
from .core import (
    ChannelParams,
    HardwareParams,
    gate_error_prob,
    initial_fidelity,
    memory_error_prob,
    success_probability,
    transmittance,
)
from .montecarlo import McConfig, RateEstimate, WindowStats, required_blocks, simulate_rate, simulate_window
from .oracle import (
    DensityMatrix,
    GateErrorVariant,
    VariantReport,
    apply_dephasing,
    apply_noisy_two_qubit_gate,
    bell_diagonal_projection,
    enumerate_logical_error,
    match_gate_variant,
    simulate_purification_round,
    simulate_swapping,
)
from .pipeline import (
    OperatingPoint,
    ProtocolConfig,
    SweepResult,
    Timing,
    evaluate,
    final_fidelity,
    heralding_probability,
    operating_point,
    pump_success_probability,
    rate_purified,
    rate_unpurified,
    sweep,
    timing,
    with_fidelity,
)
from .qubus import (
    Feasibility,
    QubusPlan,
    chained_qubus_phases,
    feasibility,
    homodyne_error,
    min_beta,
    phases_distinct,
    single_qubus_phases,
)

__version__ = "0.1.0"
