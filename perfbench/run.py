"""Benchmark of repeaterlab's three uses: grid sweeps, operating-point solves
and brute-force verification.

    python3 perfbench/run.py --workload grid-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a repeaterlab checkout.  The workload runs in one
fresh single-threaded child process (perfbench/worker.py) against src/
through PYTHONPATH; it draws the seeded inputs, and it also times set-up
in fresh interpreters.  This parent process turns the timings into
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the workload twice for a fixed
op count, untraced and traced, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import tracer
from workloads import DEFAULT_SEED, FROZEN, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# modules each workload calls; set-up time is the time to import them
ENTRY_MODULES = {
    "grid-sweep": ("repeaterlab.cli",),
    "operating-points": ("repeaterlab.pipeline",),
    "verify": (
        "repeaterlab.oracle",
        "repeaterlab.montecarlo",
        "repeaterlab.qubus",
        "repeaterlab.codes",
        "repeaterlab.pipeline",
    ),
}
IMPORTTIME_LAUNCHES = 3   # -X importtime launches per traced run
TRACE_OPS = {"grid-sweep": 25, "operating-points": 588, "verify": 100}
CHILD_TIMEOUT_S = 170
# The worker's calibration loop on an uncontended core of the machine the
# baseline was taken on (perfbench/baseline.json names it).  Scaled times
# read as wall times on such a core.
CAL_REF_S = 0.9e-3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPEATERLAB_THREADS", None)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
    )
    return env


def make_job(workload: str, seed: int, work: Path) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "work_dir": str(work),
        "result_path": str(work / "result.json"),
        "setup_argv": [sys.executable, "-c", setup_code(workload)],
    }


def setup_code(workload: str) -> str:
    """Program of a set-up child: import the entry modules, then say so."""
    return "".join(f"import {m}\n" for m in ENTRY_MODULES[workload]) + "print('ready', flush=True)\n"


def importtime_stderr(workload: str, env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", setup_code(workload)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return proc.stderr


def import_seconds(stderr: str) -> dict[str, float]:
    """Cumulative import time of numpy and of repeaterlab from -X importtime."""
    out = {"numpy": 0.0, "repeaterlab": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if name.strip() in out and cumulative.strip().isdigit():
            out[name.strip()] = int(cumulative) * 1e-6
    return out


def run_worker(job: dict, work: Path, env: dict) -> dict:
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(Path(job["result_path"]).read_text())


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def scaled(seconds: float, calibration_s: float) -> float:
    """A time taken while the calibration loop took ``calibration_s``, at reference core speed."""
    return seconds * CAL_REF_S / calibration_s


def scaled_op_seconds(res: dict) -> list[float]:
    """Each op time of a worker result, scaled by the calibrations just before and after it."""
    cal = res["calibrations"]
    starts = [i for i, _ in cal]
    times = []
    for i, t in enumerate(res["op_seconds"]):
        k = bisect.bisect_right(starts, i) - 1
        times.append(scaled(t, (cal[k][1] + cal[k + 1][1]) / 2))
    return times


def end_to_end(job: dict, work: Path, env: dict, seconds: float) -> tuple[dict, dict]:
    """Op-time metrics of one untraced run, plus set-up time and peak memory.

    On a shared machine a co-tenant can slow a core 1.4-2x for seconds to
    minutes, which swung raw op times by 20-50% between runs.  So every op
    time, and every set-up time, is scaled by the worker's calibration loop
    around it to the speed of an uncontended core.  The loop is fixed code,
    so a change to the program moves the scaled times as much as the raw
    ones.  The metrics pool every op of the run; no input is timed twice.
    """
    res = run_worker(dict(job, trace=False, fixed_ops=0, seconds=seconds), work, env)
    times = scaled_op_seconds(res)
    ops_per_s = len(times) / sum(times)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "rows_per_s": (res["counts"]["rows"] / len(times) * ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (p90(times) * 1e3, "ms"),
        "setup_s": (statistics.median(scaled(t, c) for c, t in res["setup_seconds"]), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    return metrics, res


def per_layer(workload: str, job: dict, work: Path, env: dict) -> tuple[dict, dict]:
    importtime_stderr(workload, env)  # fills the bytecode cache
    imports = [import_seconds(importtime_stderr(workload, env)) for _ in range(IMPORTTIME_LAUNCHES)]
    ops = TRACE_OPS[workload]
    plain = run_worker(dict(job, trace=False, fixed_ops=ops, seconds=0), work, env)
    job = dict(job, trace=True, fixed_ops=ops, seconds=0, spans_path=str(work / "spans.bin"))
    res = run_worker(job, work, env)
    spans = tracer.aggregate(job["spans_path"])

    metrics: dict[str, tuple[float, str]] = {}
    for label in tracer.labels():
        row = spans[label]
        metrics[f"{label}.calls"] = (row["calls"], "count")
        metrics[f"{label}.self_s"] = (row["self_s"], "s")
        metrics[f"{label}.total_s"] = (row["total_s"], "s")

    # Every per-layer metric is printed on every workload; a ratio whose
    # denominator a workload never exercises (no solves on grid-sweep) is
    # printed as 0 and named on a "# not applicable" line.
    res["not_applicable"] = []

    def ratio(name: str, num: float, den: float, unit: str) -> None:
        if not den:
            res["not_applicable"].append(name)
        metrics[name] = (num / den if den else 0.0, unit)

    counts = res["counts"]
    purify_calls = spans["bell_algebra.purify_ideal"]["calls"] + spans["bell_algebra.purify_imperfect_exact"]["calls"]
    ratio(
        "pipeline.final_fidelity.calls_per_solve",
        spans["pipeline.final_fidelity"]["calls"],
        spans["pipeline.operating_point"]["calls"],
        "count",
    )
    ratio("bell_algebra.purify_calls_per_pump_round", purify_calls, counts["pump_rounds"], "count")
    ratio(
        "montecarlo.samples_per_s",
        counts.get("mc_samples", 0),
        spans["montecarlo.simulate_rate"]["self_s"],
        "1/s",
    )
    ratio("qubus.patterns_per_s", counts.get("qubus_patterns", 0), spans["qubus.feasibility"]["total_s"], "1/s")
    metrics.update(
        {
            "setup.import_numpy_s": (statistics.median(i["numpy"] for i in imports), "s"),
            "setup.import_repeaterlab_s": (statistics.median(i["repeaterlab"] for i in imports), "s"),
            "trace.overhead": (sum(scaled_op_seconds(res)) / sum(scaled_op_seconds(plain)), "ratio"),
        }
    )
    return metrics, res


# functions with a hand-measured per-call time to compare against
PER_CALL_LABELS = (
    "bell_algebra.purify_ideal",
    "bell_algebra.purify_imperfect_exact",
    "bell_algebra.swap_ideal",
    "codes.logical_error_prob",
    "pipeline.final_fidelity",
    "pipeline.evaluate",
    "pipeline.operating_point",
    "oracle.simulate_purification_round",
    "oracle.match_gate_variant",
)


def spans_per_call(metrics: dict, label: str) -> str:
    calls = metrics[f"{label}.calls"][0]
    if not calls:
        return ""
    total = metrics[f"{label}.total_s"][0] / calls * 1e6
    own = metrics[f"{label}.self_s"][0] / calls * 1e6
    return f"{total:.2f} ({own:.2f}) over {calls} calls"


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} numpy={numpy_version}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repeaterlab" / "__init__.py").is_file():
        print(f"perfbench: no src/repeaterlab under {ROOT}; run from a repeaterlab checkout", file=sys.stderr)
        return 2

    env = child_env()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        job = make_job(args.workload, args.seed, work)
        if args.trace:
            metrics, res = per_layer(args.workload, job, work, env)
        else:
            metrics, res = end_to_end(job, work, env, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(res["op_seconds"])
    failed = res["failed"]
    input_digest = res["input_digest"]
    # the untraced run covers all of batch 0, so its outputs are complete
    frozen = FROZEN.get(args.workload) if args.seed == DEFAULT_SEED and not args.trace else None
    if frozen is not None:
        if input_digest != frozen["input"]:
            print(f"perfbench: input digest {input_digest} != frozen {frozen['input']}", file=sys.stderr)
            failed = attempted
        elif res["output_digest"] != frozen["output"]:
            print(
                f"perfbench: output digest {res['output_digest']} != frozen {frozen['output']}",
                file=sys.stderr,
            )
            failed = attempted
    for problem in res["failures"]:
        print(f"perfbench: {problem}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} input={input_digest} output={res['output_digest']} {machine()}")
    print(f"# ops={attempted} failed={failed} failed_ops={failed / attempted:.6g}")
    if "feasible_share" in res:
        print(f"# feasible={res['feasible_share']:.4f} infeasible={1 - res['feasible_share']:.4f}")
    if args.trace:
        print(f"# not applicable on {args.workload} (printed as 0): {', '.join(res['not_applicable']) or 'none'}")
        print("# traced time per call, total (self) in us:")
        for label in PER_CALL_LABELS:
            row = spans_per_call(metrics, label)
            if row:
                print(f"#   {label}: {row}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
