"""Span recorder for the traced run.

Wraps the public functions of each layer from outside the package: in the
module that defines a function and in every ``repeaterlab`` module that
imported the name, so internal calls are caught too.  A class is traced
through its ``__init__``.  Spans (name, start, end, parent, op) live in
flat arrays while the run lasts and are written to one file at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# layer module -> traced public names; span labels are "<layer>.<name>"
TRACED = {
    "repeaterlab.cli": ("parse_config", "to_protocol_config", "emit_csv", "main"),
    "repeaterlab.pipeline": (
        "sweep",
        "evaluate",
        "final_fidelity",
        "pump_success_probability",
        "heralding_probability",
        "operating_point",
    ),
    "repeaterlab.bell_algebra": (
        "purify_ideal",
        "purify_imperfect_exact",
        "swap_ideal",
        "purify_k_rounds_lower",
        "BellDiagonal",
    ),
    "repeaterlab.codes": (
        "logical_error_prob",
        "effective_coefficients",
        "css_effective_qubit_error",
        "code_catalog",
    ),
    "repeaterlab.core": (
        "transmittance",
        "initial_fidelity",
        "success_probability",
        "gate_error_prob",
        "memory_error_prob",
    ),
    "repeaterlab.oracle": (
        "simulate_purification_round",
        "simulate_swapping",
        "enumerate_logical_error",
        "match_gate_variant",
        "DensityMatrix",
    ),
    "repeaterlab.montecarlo": ("simulate_rate",),
    "repeaterlab.qubus": ("feasibility", "phases_distinct", "single_qubus_phases"),
}

OP_LABEL = "op"
_COLUMNS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "q"), ("end", "q"))


def labels() -> list[str]:
    return [f"{mod.rpartition('.')[2]}.{name}" for mod, names in TRACED.items() for name in names]


class Tracer:
    """Records one span per call of a wrapped function while ``enabled``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.cols = {col: array(code) for col, code in _COLUMNS}
        self.stack = [-1]
        self.op = -1  # index of the op whose spans are being recorded
        self.enabled = True

    def wrap(self, fn, label: str):
        fid = len(self.names)
        self.names.append(label)
        name, parent, op = self.cols["name"], self.cols["parent"], self.cols["op"]
        start, end = self.cols["start"], self.cols["end"]
        stack, clock = self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(name)
            name.append(fid)
            parent.append(stack[-1])
            op.append(self.op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every name in TRACED wherever a repeaterlab module holds it."""
        for modname, attrs in TRACED.items():
            module = importlib.import_module(modname)
            layer = modname.rpartition(".")[2]
            for attr in attrs:
                obj = getattr(module, attr)
                if isinstance(obj, type):
                    obj.__init__ = self.wrap(obj.__init__, f"{layer}.{attr}")
                    continue
                wrapper = self.wrap(obj, f"{layer}.{attr}")
                for other in list(sys.modules.values()):
                    if other is None or not other.__name__.partition(".")[0] == "repeaterlab":
                        continue
                    for key in [k for k, v in vars(other).items() if v is obj]:
                        setattr(other, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.cols["name"])}
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in _COLUMNS:
                self.cols[col].tofile(fh)


def aggregate(path: str) -> dict[str, dict[str, float]]:
    """Per-label calls, total and self time (s) from a span file.

    Self time is a span's duration minus the durations of its child spans;
    calls never overlap within one thread, so children never double count.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = {}
        for col, code in _COLUMNS:
            cols[col] = array(code)
            cols[col].fromfile(fh, n)
    name, parent, start, end = cols["name"], cols["parent"], cols["start"], cols["end"]
    child_ns = array("q", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    calls = [0] * len(header["names"])
    total_ns = [0] * len(header["names"])
    self_ns = [0] * len(header["names"])
    for i in range(n):
        dur = end[i] - start[i]
        calls[name[i]] += 1
        total_ns[name[i]] += dur
        self_ns[name[i]] += dur - child_ns[i]
    return {
        label: {"calls": calls[j], "total_s": total_ns[j] * 1e-9, "self_s": self_ns[j] * 1e-9}
        for j, label in enumerate(header["names"])
    }
