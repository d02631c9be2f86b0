"""The frozen-value comparator: it finds no change between a tree and itself,
and it measures a change where there is one."""

import math
import subprocess
import sys
from pathlib import Path

import frozen_diff

ROOT = Path(__file__).resolve().parents[1]


def test_the_working_tree_against_itself_moves_nothing():
    proc = subprocess.run(
        [sys.executable, frozen_diff.__file__, str(ROOT), str(ROOT)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["suite", "rows", "changed", "max_abs", "max_rel", "max_ulp", "one", "side", "only"]
    # 144 catalog rows, 448 map solves and the values of the six frozen-output
    # generators, none changed, no column on one side only
    assert [line.split() for line in lines[1:]] == [
        ["catalog", "144", "0", "0", "0", "0", "-"],
        ["map", "448", "0", "0", "0", "0", "-"],
        ["purification", "400", "0", "0", "0", "0", "-"],
        ["variant_rows", "80", "0", "0", "0", "0", "-"],
        ["swapping", "112", "0", "0", "0", "0", "-"],
        ["enumeration", "389", "0", "0", "0", "0", "-"],
        ["montecarlo", "112", "0", "0", "0", "0", "-"],
        ["phases_distinct", "752", "0", "0", "0", "0", "-"],
    ]


def test_a_one_ulp_move_and_a_dropped_column_are_reported():
    old = [{"x": 1.0, "gone": 2.0, "label": "a"}, {"x": math.nan, "gone": 0.0, "label": "b"}]
    new = [{"x": math.nextafter(1.0, 2.0), "label": "a"}, {"x": math.nan, "label": "b"}]
    got = frozen_diff.compare(old, new)
    assert got["rows"] == (2, 2)
    assert got["changed"] == 1  # NaN against NaN is unchanged
    assert (got["max_abs"], got["max_rel"], got["max_ulp"]) == (2.0**-52, 2.0**-52 / (1.0 + 2.0**-52), 1)
    assert got["first"] == (0, {"x": (1.0, 1.0 + 2.0**-52)})
    assert (got["old_only"], got["new_only"]) == (["gone"], [])
    assert frozen_diff.report({"s": got})[-1] == "s first changed row, #0 in suite order: x 1.0 -> 1.0000000000000002"


def test_a_sign_of_zero_or_a_label_counts_as_a_change():
    got = frozen_diff.compare([{"x": 0.0, "label": "a"}], [{"x": -0.0, "label": "b"}])
    assert got["changed"] == 1
    assert got["max_ulp"] == math.inf  # a label has no distance
    assert frozen_diff._ordinal(-0.0) == frozen_diff._ordinal(0.0) == 0
    assert frozen_diff._ordinal(-5e-324) == -1
