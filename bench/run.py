"""curvesig benchmark: time one workload end to end, or trace it per layer.

    python3 bench/run.py --workload tabulate --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is taken from src/ next to this directory.
Workloads: tabulate, check, enumerate, cli (see bench/README.md).  The run is
one process that starts fresh worker processes one after another, each doing
one pass of the workload, until the timed passes add up to --seconds.  Every
worker starts cold, as a script or CLI run does.

With --trace 0 the last stdout line holds the end-to-end metrics: times
scaled to a reference speed by the calibration chunks the workers time
between ops (calibration.py), each op taken at its median over the passes.
With --trace 1 it holds the per-layer metrics of traced passes, each paired with
an untraced pass of the same inputs to give the tracing overhead.  Lines
before it give every metric by name and unit, the failed ratio, the tail
percentile with its sample count, and the environment.  Exit status is 0
when a result is printed, 1 when a worker fails unexpectedly and 2 when
curvesig cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tabulate", "check", "enumerate", "cli")
SETUP_SAMPLES = 5
# With fewer ops than this in a pass, the tail over the ops' medians would lie
# too near their median, so the tail pools the latencies of every pass.
PER_OP_MIN_OPS = 50
# A run must end within 180 s; no worker may start a pass past this point.
DEADLINE_S = 170
STARTED = perf_counter()

# Every per-layer figure a traced run reports, with its unit.  A workload
# that does not reach a layer reports 0 for it.
PER_LAYER = {
    "singularities.calls": "count", "singularities.self_s": "s", "singularities.errors": "count",
    "signature.build.calls": "count", "signature.build.built": "count", "signature.build.self_s": "s",
    "signature.at.calls": "count", "signature.at.self_s": "s",
    "signature.jump_set.calls": "count", "signature.jump_set.self_s": "s",
    "signature.integral.calls": "count", "signature.integral.self_s": "s",
    "signature.value_at.calls": "count", "signature.value_at.self_s": "s",
    "signature.seifert.calls": "count", "signature.seifert.retries": "count",
    "signature.seifert.self_s": "s", "signature.errors": "count",
    "deformation.full_report.calls": "count", "deformation.value_at_per_report": "ratio",
    "deformation.full_report.self_s": "s", "deformation.genus_formula.self_s": "s",
    "deformation.signature_bound.self_s": "s", "deformation.one_sided_bound.self_s": "s",
    "deformation.m_number_bound.self_s": "s", "deformation.errors": "count",
    "enumeration.reports": "count", "enumeration.emitted": "count", "enumeration.emit_ratio": "ratio",
    "enumeration.nodes": "count", "enumeration.walk.self_s": "s", "enumeration.errors": "count",
    "cli.process_s": "s", "cli.interpreter_s": "s", "cli.import_s": "s", "cli.import.numpy_s": "s",
    "cli.run_s": "s", "cli.serialize_s": "s", "cli.errors": "count",
    "trace.overhead_ms": "ms", "trace.overhead_ratio": "ratio",
}

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}


def environment() -> dict:
    env = dict(os.environ)
    # Without this an OpenBLAS worker thread keeps a second core busy.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def describe(env: dict) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"]}


class WorkerFailed(RuntimeError):
    pass


def run_worker(env, workload, seed, *flags) -> dict:
    """One worker, in a session of its own so that a timeout also ends the
    processes it started."""
    spawned = perf_counter()
    worker = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                               "--seed", str(seed), *flags],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        stdout, stderr = worker.communicate(timeout=max(1.0, DEADLINE_S - (spawned - STARTED)))
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise WorkerFailed(f"worker {workload} {' '.join(flags)} passed the {DEADLINE_S} s deadline")
    if worker.returncode != 0:
        raise WorkerFailed(f"worker {workload} {' '.join(flags)} exited {worker.returncode}:\n"
                           f"{stderr[-2000:]}")
    out = json.loads(stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest latency, and which percentile that is."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def scaled(p) -> tuple[list[float], float]:
    """A pass's op latencies and the time it spent outside its timed ops, as
    they would read at the reference speed.  Each op is scaled by the mean of
    the calibration chunks timed just before and just after it; the rest of
    the pass by the median chunk of the pass."""
    chunks, chunk_at, reference_s = p["chunks"], p["chunk_at"], p["reference_s"]
    latencies, j = [], 0
    for i, latency in enumerate(p["latencies"]):
        while chunk_at[j + 1] <= i:
            j += 1
        latencies.append(latency * reference_s / ((chunks[j] + chunks[j + 1]) / 2))
    untimed = (p["elapsed"] - sum(p["latencies"])) * reference_s / statistics.median(chunks)
    return latencies, untimed


def typical_pass(passes) -> tuple[list[float], float]:
    """Every pass of a run does the same ops in the same order, so each op
    has one latency per pass.  Returns each op's median scaled latency over
    the passes, and the median scaled time a pass spent outside its ops."""
    per_pass = [scaled(p) for p in passes]
    per_op = [statistics.median(column) for column in zip(*(lats for lats, _ in per_pass))]
    return per_op, statistics.median(untimed for _, untimed in per_pass)


def end_to_end(env, workload, seed, seconds) -> tuple[dict, dict]:
    passes, timed = [], 0.0
    while timed < seconds:
        passes.append(run_worker(env, workload, seed))
        timed += passes[-1]["elapsed"]
    workers = list(passes)
    while len(workers) < SETUP_SAMPLES:
        workers.append(run_worker(env, workload, seed, "--setup-only"))
    setups = [w["setup_s"] * w["reference_s"] / statistics.median(w["chunks"]) for w in workers]
    # The machine's speed changes while a run lasts.  Scaling by the
    # calibration chunks takes out most of that; an op's median over the
    # passes drops the passes whose chunks missed a short spell.
    per_op, untimed = typical_pass(passes)
    if len(per_op) >= PER_OP_MIN_OPS:
        tail_sample = per_op
    else:
        tail_sample = [lat for p in passes for lat in scaled(p)[0]]
    tail_s, tail_pct = tail(tail_sample)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(per_op) / (sum(per_op) + untimed),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
    }
    chunks = [c for w in workers for c in w["chunks"]]
    info = {"passes": len(passes), "timed_s": timed, "ops": sum(len(p["latencies"]) for p in passes),
            "ops_per_pass": len(per_op), "tail_percentile": tail_pct, "tail_samples": len(tail_sample),
            "setup_samples": len(setups), "chunks": len(chunks),
            "chunk_ms": {"reference": passes[0]["reference_s"] * 1e3, "median": statistics.median(chunks) * 1e3,
                         "min": min(chunks) * 1e3, "max": max(chunks) * 1e3},
            "unscaled": {"setup_s": statistics.median(w["setup_s"] for w in workers),
                         "ops_per_s": sum(len(p["latencies"]) for p in passes) / timed},
            "pass_s": [round(p["elapsed"], 4) for p in passes]}
    return {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}, \
        {"all": passes, "info": info}


def traced(env, workload, seed, seconds) -> tuple[dict, dict]:
    """Alternate untraced and traced single passes on the same inputs until
    --seconds have passed; report the median of each per-layer figure."""
    plain, spans = [], []
    started = perf_counter()
    while not spans or perf_counter() - started < seconds:
        plain.append(run_worker(env, workload, seed))
        spans.append(run_worker(env, workload, seed, "--trace"))
    metrics = {k: statistics.median(s["layers"].get(k, 0) for s in spans)
               for k in PER_LAYER if not k.startswith("trace.")}

    def mean_op_ms(p):
        return p["elapsed"] / max(1, len(p["latencies"])) * 1e3

    untraced_ms = statistics.median(mean_op_ms(p) for p in plain)
    metrics["trace.overhead_ms"] = statistics.median(mean_op_ms(s) for s in spans) - untraced_ms
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_ms"] / untraced_ms
    info = {"pairs": len(spans), "untraced_mean_op_ms": untraced_ms,
            "missing_spans": spans[0]["layers"].get("missing_spans", [])}
    return {name: (value, PER_LAYER[name]) for name, value in metrics.items()}, \
        {"all": plain + spans, "info": info}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = environment()
    if not (ROOT / "src" / "curvesig" / "__init__.py").is_file():
        print(f"error: no curvesig package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Untimed: proves the package imports from this checkout, and compiles its bytecode.
    probe = subprocess.run([sys.executable, "-c", "import curvesig; print(curvesig.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if probe.returncode != 0 or not Path(probe.stdout.strip()).is_relative_to(ROOT / "src"):
        print(f"error: curvesig does not import from {ROOT / 'src'}\n{probe.stderr}", file=sys.stderr)
        return 2

    measure = traced if args.trace else end_to_end
    try:
        metrics, detail = measure(env, args.workload, args.seed, args.seconds)
    except (WorkerFailed, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    passes = detail["all"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    correct = failed == 0 and not errors

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"env={json.dumps(describe(env))}")
    print(f"# {json.dumps(detail['info'])}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<34} {value:>14.6g} {unit}")
    print(f"{args.workload:<10} {'failed_ratio':<34} {failed / max(1, attempted):>14.6g} ratio "
          f"({failed} of {attempted} ops)")
    for error in errors[:20]:
        print(f"# check failed: {error}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
