"""Show which frozen values moved between two source trees, and by how much.

The digests of ``test_frozen_outputs.SUITES`` say only *that* a value
moved.  This script evaluates every suite of that registry under two source
trees, one subprocess each with ``PYTHONPATH`` set to ``<tree>/src``, one
row per row the suite's generator yields (a lone value becomes the column
``value``).  The inputs are always this directory's test files, so both
trees see the same inputs.  For each suite it prints the rows compared and
changed, the largest absolute, relative and ulp change, the first changed
row, and any column present on one side only.

    python tests/frozen_diff.py OLD_TREE NEW_TREE

A tree is a checkout's root, holding ``src/repeaterlab``.  The exit status
is 0 when no value changed and both sides have the same rows, 1 otherwise;
a column on one side only is reported but is not a change.
"""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path


def _dump() -> None:
    """Child side: every suite of the importable repeaterlab, as JSON on stdout."""
    import repeaterlab
    from test_frozen_outputs import SUITES

    suites = {
        suite: [row if isinstance(row, dict) else {"value": row} for row in rows()]
        for suite, (rows, _) in SUITES.items()
    }
    json.dump({"package": repeaterlab.__file__, "suites": suites}, sys.stdout)


def evaluate_tree(tree: str) -> subprocess.Popen:
    """Start the child that evaluates every suite under ``tree``'s ``src``."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree, "src").resolve())}
    return subprocess.Popen(
        [sys.executable, __file__, "--dump"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _collect(proc: subprocess.Popen, tree: str) -> dict:
    out, err = proc.communicate(timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"frozen_diff: evaluating {tree} failed:\n{err}")
    data = json.loads(out)
    want = Path(tree, "src", "repeaterlab").resolve()
    if Path(data["package"]).resolve().parent != want:
        raise SystemExit(f"frozen_diff: {tree} imported repeaterlab from {data['package']}, not {want}")
    return data


def _ordinal(x: float) -> int:
    """``x``'s place on the line of doubles, so that neighbours differ by 1 (both zeros map to 0)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _same(a: object, b: object) -> bool:
    # bit for bit: NaN equals NaN, and 0.0 differs from -0.0
    return type(a) is type(b) and repr(a) == repr(b)


def compare(old: list[dict], new: list[dict]) -> dict:
    """Row-by-row comparison of one suite's two sides, over the columns both have."""
    old_cols = list(old[0]) if old else []
    new_cols = list(new[0]) if new else []
    common = [c for c in old_cols if c in new_cols]
    changed_rows, first = 0, None
    max_abs = max_rel = 0.0
    max_ulp: float = 0  # an int count, or inf
    for i, (a_row, b_row) in enumerate(zip(old, new)):
        moved = [c for c in common if not _same(a_row[c], b_row[c])]
        if not moved:
            continue
        changed_rows += 1
        if first is None:
            first = (i, {c: (a_row[c], b_row[c]) for c in moved})
        for c in moved:
            a, b = a_row[c], b_row[c]
            if isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b):
                diff = abs(a - b)
                max_abs = max(max_abs, diff)
                max_rel = max(max_rel, diff / max(abs(a), abs(b)) if diff else 0.0)
                max_ulp = max(max_ulp, abs(_ordinal(a) - _ordinal(b)))
            else:  # a number appeared or vanished, or a label or flag changed
                max_abs = max_rel = max_ulp = math.inf
    return {
        "rows": (len(old), len(new)),
        "changed": changed_rows,
        "max_abs": max_abs,
        "max_rel": max_rel,
        "max_ulp": max_ulp,
        "first": first,
        "old_only": [c for c in old_cols if c not in new_cols],
        "new_only": [c for c in new_cols if c not in old_cols],
    }


def report(results: dict[str, dict]) -> list[str]:
    """The comparison table, then each suite's first changed row."""
    width = max(map(len, ["suite", *results]))
    lines = [f"{'suite':{width}s} {'rows':>9s} {'changed':>7s} {'max_abs':>9s} {'max_rel':>9s} {'max_ulp':>7s}  one side only"]
    for suite, r in results.items():
        rows = str(r["rows"][0]) if r["rows"][0] == r["rows"][1] else "{}/{}".format(*r["rows"])
        sides = [f"{c} (old only)" for c in r["old_only"]] + [f"{c} (new only)" for c in r["new_only"]]
        lines.append(
            f"{suite:{width}s} {rows:>9s} {r['changed']:>7d} {r['max_abs']:>9.3g} {r['max_rel']:>9.3g} "
            f"{r['max_ulp']:>7}  {', '.join(sides) or '-'}"
        )
    for suite, r in results.items():
        if r["first"] is not None:
            i, moved = r["first"]
            cells = "; ".join(f"{c} {a!r} -> {b!r}" for c, (a, b) in moved.items())
            lines.append(f"{suite} first changed row, #{i} in suite order: {cells}")
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--dump"]:
        _dump()
        return 0
    if len(argv) != 2:
        print("usage: python tests/frozen_diff.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    procs = [evaluate_tree(tree) for tree in argv]  # the two trees run side by side
    try:
        old, new = (_collect(p, t) for p, t in zip(procs, argv))
    finally:  # a failed or timed-out tree leaves no child running
        for p in procs:
            p.kill()
            p.communicate()
    results = {suite: compare(rows, new["suites"][suite]) for suite, rows in old["suites"].items()}
    print("\n".join(report(results)))
    moved = any(r["changed"] or r["rows"][0] != r["rows"][1] for r in results.values())
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
