"""Fidelity and rate models for hybrid quantum repeaters.

Closed-form recursions for purification, swapping, and encoded storage,
cross-checked by density-matrix simulation, exhaustive enumeration, and
Monte Carlo sampling.

The names below are exported lazily (PEP 562): a submodule is imported on
first access to one of its names, so the closed-form model never pulls in
numpy, which only ``oracle`` and ``montecarlo`` need.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bell_algebra": (
        "BellDiagonal", "PurifyOutcome", "purify_ideal", "purify_imperfect_exact",
        "purify_k_rounds_lower", "purify_lower_bound", "swap_ideal", "swap_lower_bound",
    ),
    "codes": (
        "Code", "code_catalog", "css_effective_qubit_error", "effective_coefficients",
        "logical_error_prob", "pair_no_error_prob",
    ),
    "core": (
        "ChannelParams", "HardwareParams", "gate_error_prob", "initial_fidelity",
        "memory_error_prob", "success_probability", "transmittance",
    ),
    "montecarlo": (
        "McConfig", "RateEstimate", "WindowStats", "finite_window_estimate", "simulate_rate",
        "simulate_window",
    ),
    "oracle": (
        "DensityMatrix", "GateErrorVariant", "VariantReport", "apply_dephasing",
        "apply_noisy_two_qubit_gate", "bell_diagonal_projection", "enumerate_logical_error",
        "match_gate_variant", "simulate_purification_round", "simulate_swapping",
    ),
    "pipeline": (
        "OperatingPoint", "ProtocolConfig", "SweepResult", "Timing", "evaluate", "final_fidelity",
        "heralding_probability", "operating_point", "pump_success_probability", "rate_purified",
        "rate_unpurified", "sweep", "timing", "with_fidelity",
    ),
    "qubus": (
        "Feasibility", "QubusPlan", "chained_qubus_phases", "feasibility", "homodyne_error",
        "min_beta", "phases_distinct", "single_qubus_phases",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_ORIGIN})
