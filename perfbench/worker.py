"""Measured process: runs one workload's ops and writes their times.

Usage: python3 perfbench/worker.py JOB.json

The job file names the workload, its seed, a directory for scratch files,
the run length and whether to trace.  The worker draws each batch of
inputs itself, outside the timed region.  Only the workload's own
repeaterlab modules are imported (by its ``setup``); the tracer and its
imports come in only for a traced run.  Results go to the job's
``result_path`` as JSON.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import sys
import time

from workloads import WORKLOADS

MIN_BATCHES = 3
SETUP_LAUNCHES = 10
CAL_INTERVAL_S = 0.05


def calibrate() -> float:
    """Seconds of a fixed interpreter-bound loop: how fast the core runs now.

    The loop builds small dicts of floats and formatted numbers, the kind of
    work the workloads do, with the garbage collector off so that the
    program's heap does not enter it.  The best of three.
    """
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            rows = [{"x": k * 0.37, "r": math.sqrt(k + 1.0), "s": f"{k * 0.37:.6g}"} for k in range(1500)]
            sum(row["r"] for row in rows)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def time_setup(argv: list[str]) -> float:
    """Seconds from spawning ``argv`` until it prints its ready line.

    os.posix_spawn keeps subprocess and its imports out of this process.
    """
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    pid = os.posix_spawn(
        argv[0], argv, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1), (os.POSIX_SPAWN_CLOSE, read_fd)]
    )
    os.close(write_fd)
    line = b""
    while not line.endswith(b"\n"):
        chunk = os.read(read_fd, 64)
        if not chunk:
            break
        line += chunk
    elapsed = time.perf_counter() - t0
    os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    if line != b"ready\n" or status != 0:
        raise RuntimeError(f"set-up child {argv} printed {line!r}, wait status {status}")
    return elapsed


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    workload = WORKLOADS[job["workload"]]()
    workload.setup(job)
    input_digest = workload.load(0)
    op = workload.op
    tracer = None
    if job["trace"]:
        from tracer import OP_LABEL, Tracer

        tracer = Tracer()
        tracer.install()
        op = tracer.wrap(workload.op, OP_LABEL)

    clock = time.perf_counter
    times: list[float] = []
    setup_times: list[tuple[float, float]] = []
    failures: list[str] = []
    counts: dict[str, int] = {}
    cal: list[tuple[int, float]] = []  # (index of the next op, calibration seconds)

    def run_op(j: int) -> None:
        if tracer is not None:
            tracer.op = len(times)
        t0 = clock()
        try:
            out = op(j)
        except Exception as exc:  # a raising op is a failed op, the run goes on
            times.append(clock() - t0)
            failures.append(f"op {len(times) - 1}: {type(exc).__name__}: {exc}")
            return
        times.append(clock() - t0)
        if tracer is not None:
            tracer.enabled = False
        problem = workload.check(j, out)
        if tracer is not None:
            tracer.enabled = True
        if problem is not None:
            failures.append(f"op {len(times) - 1}: {problem}")
        for name, value in workload.entry_counts[j].items():
            counts[name] = counts.get(name, 0) + value

    def run_ops(n: int) -> None:
        """Ops 0..n-1 of the loaded batch, with calibrations around them."""
        last_cal = -math.inf
        for j in range(n):
            if clock() - last_cal >= CAL_INTERVAL_S:
                cal.append((len(times), calibrate()))
                last_cal = clock()
            run_op(j)
        cal.append((len(times), calibrate()))

    # A fixed op count runs the first ops of batch 0, so traced call counts
    # repeat exactly.  Otherwise the run makes whole batches, each of fresh
    # inputs, at least MIN_BATCHES of them, until the given seconds are up,
    # and times SETUP_LAUNCHES fresh interpreters at batch starts spread
    # over the run.
    seconds = job["seconds"]
    cpus = sorted(os.sched_getaffinity(0))
    if job["fixed_ops"]:
        os.sched_setaffinity(0, {cpus[0]})
        run_ops(job["fixed_ops"])
    else:
        time_setup(job["setup_argv"])  # fills the bytecode cache; users pay that once
        began = clock()
        batch = 0
        while batch < MIN_BATCHES or clock() - began < seconds:
            if batch:
                workload.load(batch)
            # A co-tenant of a shared machine can slow a core by half for
            # seconds at a time.  Each batch stays on one core, and the
            # core's speed is calibrated every CAL_INTERVAL_S between its
            # ops, so that each op time can be scaled by the speed around it.
            os.sched_setaffinity(0, {cpus[batch % len(cpus)]})
            if clock() - began >= len(setup_times) * seconds / SETUP_LAUNCHES:
                setup_times.append((calibrate(), time_setup(job["setup_argv"])))
            run_ops(workload.batch_size)
            batch += 1
        while len(setup_times) < SETUP_LAUNCHES:
            setup_times.append((calibrate(), time_setup(job["setup_argv"])))

    result = {
        "op_seconds": times,
        "setup_seconds": setup_times,
        "calibrations": cal,
        "failed": len(failures),
        "failures": failures[:5],
        "input_digest": input_digest,
        "output_digest": workload.output_digest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counts": counts,
        **getattr(workload, "report", dict)(),
    }
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(job["spans_path"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
