"""The names perfbench's traced run wraps still exist, and each traced class builds through its own __init__.

The tracer (perfbench/tracer.py) looks up every name in its ``TRACED``
table when a traced run starts, so a renamed or inlined function would
crash that run.  It wraps a class through ``__init__``, so a traced class
defines its own, where its checks run; one that only inherits it, as a
plain NamedTuple does, would give a span that times none of its work.  The
table is read from the file as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TRACED = [(module, name) for module, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m.rpartition('.')[2]}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    obj = getattr(importlib.import_module(module), name, None)
    assert obj is not None, f"{module} has no {name}"
    if isinstance(obj, type):
        assert "__init__" in vars(obj), f"{module}.{name} inherits its __init__"
