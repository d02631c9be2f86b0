"""Each perfbench workload runs against the package as it stands.

The benchmark (perfbench/) builds value types and calls the pipeline by
name, so a signature change there would otherwise show only as a failed
benchmark run, and a moved number only as a failed op.  Each workload here
sets up at the default seed and loads batch 0, as the benchmark's worker
does: one test runs op 0 and checks its output in full, the other runs the
whole batch and compares its digests with the frozen ones.  The workloads
are read from the file as it stands, with perfbench/ on ``sys.path`` for
the ``inputs`` module they import.
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

# the perfbench output digests at the default seed; verify's is a model
# invariant that perfbench itself does not freeze
FROZEN = {**workloads.FROZEN, "verify": {"output": "82c58da1b705780e"}}


def printed(name, workload, ops):
    # a grid-sweep op is one rate-sweep, which prints its one summary line;
    # the other workloads print nothing
    if name != "grid-sweep":
        return ""
    return "".join(f"wrote {workload.entry_counts[j]['rows']} rows to {workload.csv_path}\n" for j in ops)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_passes_its_check(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]()
    workload.setup({"seed": workloads.DEFAULT_SEED, "work_dir": str(tmp_path)})
    workload.load(0)
    out = workload.op(0)
    assert workload.check(0, out) is None
    assert capsys.readouterr().out == printed(name, workload, [0])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_batch_0_gives_the_frozen_digests(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]()
    workload.setup({"seed": workloads.DEFAULT_SEED, "work_dir": str(tmp_path)})
    input_digest = workload.load(0)
    problems = [workload.check(j, workload.op(j)) for j in range(workload.batch_size)]
    assert [p for p in problems if p is not None] == []
    assert capsys.readouterr().out == printed(name, workload, range(workload.batch_size))
    if "input" in FROZEN[name]:
        assert input_digest == FROZEN[name]["input"]
    assert workload.output_digest() == FROZEN[name]["output"]
