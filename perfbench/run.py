"""Benchmark of the ``twistqkd`` key-rate pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point_model --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh interpreter (``worker.py``) whose environment
has the BLAS/OpenMP thread variables removed, so it measures the threading a
library or CLI user gets by default.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.  The
last line of the output is one JSON object; the line before it is a JSON
record of the environment, the samples and every failed or rejected point.
The run exits nonzero when a fixed reference point does not match.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Fresh interpreters started to time set-up, and CLI processes to time one
# `twistqkd keyrate` call; each figure is the median over them.
SETUP_REPEATS = 5
CLI_REPEATS = 3
CLI_ARGS = ("keyrate", "--delta", "0.1", "--depol", "0.05", "--eta", "0.5",
            "--dark", "1e-5", "--distance", "50")
# Slack beyond --seconds for the worker's set-up, reference check and the
# last operation, which may overrun the deadline.
WORKER_SLACK_S = 90.0
CHILD_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "points_per_s": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "twist.optimize_phase_errors_ms": "ms",
    "twist.self_ms": "ms",
    "twist.cpu_per_wall": "ratio",
    "twist.naive_phase_errors_us": "us",
    "sdp.solve_sdp_ms": "ms",
    "sdp.iterations": "count",
    "sdp.calls_per_point": "count",
    "states.tetrahedron_check_us": "us",
    "states.model_states_us": "us",
    "channel.detection_stats_us": "us",
    "channel.build_gamma_us": "us",
    "evegram.solve_eve_us": "us",
    "evegram.key_basis_stats_us": "us",
    "evegram.repair_share": "ratio",
    "keyrate.six_state_rate_us": "us",
    "keyrate.keyrate_point_ms": "ms",
    "keyrate.self_share": "ratio",
    "keyrate.scan_to_csv_ms": "ms",
    "keyrate.scan_self_share": "ratio",
    "cli.process_s": "s",
    "trace.overhead_ms": "ms",
    "trace.absent_wrappers": "count",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list, timeout: float) -> tuple[float, str]:
    """Run a child interpreter to completion; return (start clock, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited with {proc.returncode}")
    return start, proc.stdout


def worker_args(workload: str, seed: int, seconds: float, trace: int) -> list:
    return [str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds)), "--trace", str(trace)]


def setup_seconds(workload: str, seed: int) -> list:
    """Interpreter start to the worker's ``ready``, for fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start, out = run_child(worker_args(workload, seed, 0, 0) + ["--setup-only"], CHILD_TIMEOUT_S)
        ready = [line for line in out.splitlines() if line.startswith("ready ")]
        samples.append(float(ready[0].split()[1]) - start)
    return samples


def cli_seconds() -> list:
    samples = []
    for _ in range(CLI_REPEATS):
        start, _ = run_child(["-m", "twistqkd.cli", *CLI_ARGS], CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return samples


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    # The ceiling keeps git from reporting a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def quantiles(latencies_ns: list) -> tuple[float, float]:
    """Median and 90th percentile in ms."""
    ms = [v / 1e6 for v in latencies_ns]
    if len(ms) == 1:
        return ms[0], ms[0]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return statistics.median(ms), deciles[8]


def end_to_end(phase: dict, setup: list, peak_rss_kb: int) -> dict:
    p50, p90 = quantiles(phase["latencies_ns"])
    counts = phase["counts"]
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "points_per_s": phase["points"] / (phase["busy_ns"] / 1e9),
        "ok_share": counts.get("ok", 0) / phase["points"],
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def trace_accounting(result: dict) -> dict:
    """Tracing overhead and how far the traced layer self times account for
    the untraced ``keyrate_point`` time of the same points.

    Both phases ran the same operations, so their difference per point is
    the cost of the wrappers; its standard error over the pairs says how
    well the machine's noise lets that cost be resolved.  The layer self
    times add up to the traced ``keyrate_point`` time; their residual
    against the untraced time, which the caller measured around each direct
    call, is what the wrappers inside ``keyrate_point`` cost, and should lie
    within the overhead.  ``scan`` calls ``keyrate_point`` itself, so on
    ``scan_sweep`` there is no untraced time of it and the residual is None.
    """
    untraced, traced = result["untraced"], result["traced"]
    points = traced["points"]
    per_op = [
        (t - u) / (points / len(traced["ops"])) / 1e6
        for t, u in zip(traced["latencies_ns"], untraced["latencies_ns"])
    ]
    overhead = (traced["busy_ns"] - untraced["busy_ns"]) / points / 1e6
    layer_self = result["trace"]["accounting"]["layer_self_ms_per_point"]
    inner = untraced["keyrate_point_ns"]
    untraced_kp = None if None in inner else sum(inner) / points / 1e6
    residual = None if untraced_kp is None else sum(layer_self.values()) - untraced_kp
    return {
        **result["trace"]["accounting"],
        "paired_operations": len(per_op),
        "overhead_ms_per_point": overhead,
        "overhead_se_ms_per_point": (
            statistics.stdev(per_op) / len(per_op) ** 0.5 if len(per_op) > 1 else None
        ),
        "median_paired_overhead_ms_per_point": statistics.median(per_op),
        "traced_keyrate_point_ms": sum(layer_self.values()),
        "untraced_keyrate_point_ms": untraced_kp,
        "residual_ms_per_point": residual,
    }


def per_layer(result: dict, accounting: dict, cli: list) -> dict:
    metrics = dict(result["trace"]["metrics"])
    metrics["cli.process_s"] = statistics.median(cli)
    metrics["trace.overhead_ms"] = accounting["overhead_ms_per_point"]
    metrics["trace.absent_wrappers"] = len(result["trace"]["absent"])
    return metrics


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one benchmark; return (final result, detail record)."""
    _, out = run_child(worker_args(workload, seed, seconds, trace), seconds + WORKER_SLACK_S)
    result = json.loads(out.splitlines()[-1])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "environment": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "caller_thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
            "worker_blas": result.get("blas"),
            "versions": result.get("versions"),
        },
        "reference_mismatches": result["references"],
    }
    if result["references"]:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, record

    phases = [result[k] for k in ("untraced", "traced") if k in result]
    attempted = sum(p["points"] for p in phases)
    counts = dict(sum((Counter(p["counts"]) for p in phases), Counter()))
    failed = counts.get("failed", 0)
    record.update(
        {
            "attempted_points": attempted,
            "outcomes": counts,
            "fail_share": (attempted - counts.get("ok", 0)) / attempted,
            "operations": [len(p["latencies_ns"]) for p in phases],
            "failures": [f for p in phases for f in p["failures"]],
        }
    )
    correct = failed == 0
    if trace:
        accounting = trace_accounting(result)
        metrics = per_layer(result, accounting, cli_seconds())
        units = PER_LAYER_UNITS
        correct = correct and result["trace"]["restored"]
        record["trace_detail"] = {
            **{k: v for k, v in result["trace"].items() if k != "metrics"},
            "accounting": accounting,
        }
    else:
        setup = setup_seconds(workload, seed)
        metrics = end_to_end(result["untraced"], setup, result["peak_rss_kb"])
        units = END_TO_END_UNITS
        record["setup_samples_s"] = setup
        record["latency_samples"] = len(result["untraced"]["latencies_ns"])
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return final, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "twistqkd" / "__init__.py").is_file():
        print(f"error: no twistqkd sources under {SRC}", file=sys.stderr)
        return 2
    try:
        final, record = bench(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in final["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(final))
    return 0 if not record["reference_mismatches"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
