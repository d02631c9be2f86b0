"""The frozen-value comparator: it finds no change between a tree and itself,
and it measures a change where there is one."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import frozen_diff

ROOT = Path(__file__).resolve().parents[1]


def test_the_working_tree_against_itself_moves_nothing():
    proc = subprocess.run(
        [sys.executable, frozen_diff.__file__, str(ROOT), str(ROOT)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["suite", "rows", "changed", "max_abs", "max_rel", "max_ulp", "one", "side", "only"]
    # one row per SUITES entry, none changed, no column on one side only
    assert [line.split() for line in lines[1:]] == [
        [suite, str(rows), "0", "0", "0", "0", "-"]
        for suite, rows in [
            ("catalog", 144), ("map", 448), ("purification", 400), ("variant_rows", 80), ("swapping", 112),
            ("enumeration", 389), ("montecarlo", 112), ("phases_distinct", 752), ("parse_config", 2000),
            ("cli_report", 6), ("cli_points", 69), ("cli_qubus_check", 40), ("cli_oracle_verify", 12),
            ("cli_montecarlo", 9), ("cli_gnuplot", 11), ("cli_rate_sweep", 14),
        ]
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


def test_a_failed_tree_leaves_no_child_running(tmp_path, monkeypatch):
    # the tree without src fails first; the other child must not outlive main
    children = []
    start = frozen_diff.evaluate_tree
    monkeypatch.setattr(frozen_diff, "evaluate_tree", lambda tree: children.append(start(tree)) or children[-1])
    with pytest.raises(SystemExit, match="failed"):
        frozen_diff.main([str(tmp_path), str(ROOT)])
    assert [child.returncode is not None for child in children] == [True, True]


def test_a_suite_whose_row_count_differs_exits_1(tmp_path, monkeypatch, capsys):
    suites = {"old": {"s": [{"x": 1.0}, {"x": 2.0}]}, "new": {"s": [{"x": 1.0}]}}

    def fake_child(tree):
        dump = {"package": str(Path(tree, "src", "repeaterlab", "__init__.py")), "suites": suites[Path(tree).name]}
        return subprocess.Popen(
            [sys.executable, "-c", "import sys; print(sys.argv[1])", json.dumps(dump)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    monkeypatch.setattr(frozen_diff, "evaluate_tree", fake_child)
    assert frozen_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines()[1].split() == ["s", "2/1", "0", "0", "0", "0", "-"]
