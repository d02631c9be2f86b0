"""Each perfbench workload runs one op against the package as it stands.

The benchmark (perfbench/) builds value types and calls the pipeline by
name, so a signature change there would otherwise show only as a failed
benchmark run.  Each workload here sets up at the default seed, loads batch
0, runs op 0 and checks its output in full, as the benchmark's worker does.
The workloads are read from the file as it stands, with perfbench/ on
``sys.path`` for the ``inputs`` module they import.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    sys.path.insert(0, str(_PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", _PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_PERFBENCH))
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup({"seed": workloads.DEFAULT_SEED, "work_dir": str(tmp_path)})
    workload.load(0)
    out = workload.op(0)
    assert workload.check(0, out) is None
