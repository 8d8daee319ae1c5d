"""One pass of one workload in a fresh process, so curvesig's caches start
empty, as they do for a script or a CLI run.

    python3 bench/worker.py --workload check --seed 1 [--trace] [--setup-only]

Prints one JSON line: the time the inputs were ready (`time.perf_counter`,
which is system-wide, so the parent can subtract the time it spawned this
process), the op latencies, the calibration chunks timed between the ops
(see calibration.py), the checked outcome and, with --trace, the per-layer
figures.  The checks run after the timed pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
import workloads
from tracer import Tracer

PROBES = 5
SETUP_CHUNKS = 5


def _probe(code: str) -> tuple[float, str]:
    start = perf_counter()
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=workloads.ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return perf_counter() - start, done.stderr


def process_metrics(latencies, results) -> dict[str, float]:
    """Where a cold process spends its time: a bare interpreter, the imports
    it does not make, and the rest (argument parsing, compute, output, exit).
    With `results` (the cli workload's children, run with -X importtime) the
    figures are medians over those children; without, the import figures
    come from probes that only import curvesig."""
    bare = [_probe("pass") for _ in range(PROBES)]
    interpreter_s = statistics.median(wall for wall, _ in bare)
    baseline = {name for _, err in bare for name in workloads.parse_importtime(err)}
    if results is None:
        imports = [workloads.import_seconds(_probe("import curvesig")[1], baseline)
                   for _ in range(PROBES)]
        return {"cli.interpreter_s": interpreter_s,
                "cli.import_s": statistics.median(i for i, _ in imports),
                "cli.import.numpy_s": statistics.median(n for _, n in imports),
                "cli.process_s": 0.0, "cli.run_s": 0.0}
    pairs = [(lat, workloads.import_seconds(r[2], baseline)) for lat, r in zip(latencies, results)
             if not isinstance(r, workloads.Failure)]
    return {"cli.interpreter_s": interpreter_s,
            "cli.import_s": statistics.median(i for _, (i, _) in pairs),
            "cli.import.numpy_s": statistics.median(n for _, (_, n) in pairs),
            "cli.process_s": statistics.median(lat for lat, _ in pairs),
            "cli.run_s": statistics.median(lat - i for lat, (i, _) in pairs) - interpreter_s}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    ready = perf_counter()
    chunk, reference_s, chunk_every_s = calibration.PYTHON if workload.in_process else calibration.PROCESS
    # chunks[j] was timed after chunk_at[j] ops; its time is not the pass's.
    chunks, chunk_at = [chunk()], [0]
    if args.setup_only:
        chunks += [chunk() for _ in range(SETUP_CHUNKS - 1)]
        print(json.dumps({"ready": ready, "chunks": chunks, "reference_s": reference_s}))
        return

    tracer = Tracer() if args.trace and workload.in_process else None
    if tracer:
        tracer.install()
    latencies, results = [], []
    start = previous = last_chunk = perf_counter()
    paused = 0.0
    for result in workload.ops(inputs, args.trace):
        now = perf_counter()
        if result is workloads.RESTART:
            previous = now
            continue
        latencies.append(now - previous)
        results.append(result)
        if now - last_chunk >= chunk_every_s:
            chunks.append(chunk())
            chunk_at.append(len(latencies))
            last_chunk = perf_counter()
            paused += last_chunk - now
            now = last_chunk
        previous = now
    elapsed = perf_counter() - start - paused
    chunks.append(chunk())
    chunk_at.append(len(latencies))
    if tracer:
        tracer.uninstall()
    layers = (tracer or Tracer()).metrics()
    layers["missing_spans"] = tracer.missing if tracer else []

    failed, errors = workload.verify(inputs, results)
    layers.update(workload.layer_metrics(results))
    if args.trace:
        layers.update(process_metrics(latencies, None if workload.in_process else results))
    if workload.in_process:
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        maxrss_kb = max((r[3] for r in results if not isinstance(r, workloads.Failure)), default=0)
    print(json.dumps({
        "ready": ready,
        "elapsed": elapsed,
        "latencies": latencies,
        "chunks": chunks,
        "chunk_at": chunk_at,
        "reference_s": reference_s,
        "failed": failed,
        "errors": errors[:20],
        "maxrss_kb": maxrss_kb,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
