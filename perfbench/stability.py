"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/stability.py [--out FILE]

Runs perfbench/run.py once per seed 0..9 for every workload in
BENCHMARK.json, then prints each end-to-end metric's median and its
spread, the distance between the first and third quartile as a share of
the median, next to the bound BENCHMARK.json fixes.  It then makes one
traced run per workload at the default seed.  ``--out`` writes the
medians, spreads, per-layer metrics and the machine line as JSON
(perfbench/baseline.json is such a file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple[str, dict]:
    """The machine line and the result object of one benchmark run."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} attempted={result['attempted']}", file=sys.stderr)
    return lines[0].split(" ", 5)[-1], result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"workloads": {}, "per_layer": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(RUNS):
            summary["machine"], result = run(spec, workload, seed, 0)
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:17s} {name:12s} median {median:12.6g}  spread {spread:7.4f}  bound {bounds[name]}{flag}")
        summary["workloads"][workload] = rows
    for workload in summary["workloads"]:
        _, result = run(spec, workload, DEFAULT_SEED, 1)
        ok = ok and result["correct"]
        summary["per_layer"][workload] = {name: m["value"] for name, m in result["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
