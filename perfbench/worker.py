"""One workload run in a fresh interpreter; started by ``run.py``.

The worker imports ``twistqkd``, builds the workload's inputs, prints
``ready`` (and exits there with ``--setup-only``), checks the fixed
reference points, then runs the closed loop for the given time.  With
``--trace 1`` every operation runs twice, once untraced and once traced,
and the spans of the traced runs give the per-layer metrics.  The last
line of its output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Every failure record is kept up to this many; counts are always complete.
MAX_FAILURE_RECORDS = 1000


def blas_info() -> list:
    """OpenBLAS libraries loaded in this process, with their thread counts."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    entry["threads"] = int(threads())
                    entry["config"] = config().decode()
        found.append(entry)
    return found


class Phase:
    """Latencies, outcome counts and failure records of one timed loop."""

    def __init__(self):
        self.ops = []
        self.latencies_ns = []
        # Time of the keyrate_point calls inside each operation, measured by
        # the caller; None where the workload does not call it directly.
        self.keyrate_point_ns = []
        self.points = 0
        self.counts = Counter()
        self.failures = []

    def record(self, index: int, op, latency_ns: int, keyrate_point_ns, outcomes: list) -> None:
        self.ops.append(index)
        self.latencies_ns.append(latency_ns)
        self.keyrate_point_ns.append(keyrate_point_ns)
        self.points += op.points
        for point, (status, error, message) in enumerate(outcomes):
            self.counts[status] += 1
            if status != "ok" and len(self.failures) < MAX_FAILURE_RECORDS:
                self.failures.append(
                    {"op": index, "point": point, "status": status, "params": op.params,
                     "error": error, "message": message}
                )

    def summary(self) -> dict:
        return {
            "ops": self.ops,
            "latencies_ns": self.latencies_ns,
            "keyrate_point_ns": self.keyrate_point_ns,
            "points": self.points,
            "busy_ns": sum(self.latencies_ns),
            "counts": dict(self.counts),
            "failures": self.failures,
        }


def run_op(tq, index: int, op, phase: Phase) -> None:
    """Run one operation, time it and record its checked outcomes."""
    inner = []

    def timed(fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            inner.append(time.perf_counter_ns() - start)

    start = time.perf_counter_ns()
    try:
        value = op.run(timed)
        error = None
    except tq.errors.QkdError as exc:
        error = ("rejected", exc)
    except Exception as exc:  # noqa: BLE001 - an untyped error is a failed operation
        error = ("failed", exc)
    latency = time.perf_counter_ns() - start
    if error is None:
        outcomes = op.outcomes(value)
    else:
        status, exc = error
        outcomes = [(status, type(exc).__name__, str(exc))] * op.points
    phase.record(index, op, latency, sum(inner) if inner else None, outcomes)


def run_phase(tq, ops, seconds: float) -> Phase:
    """Run operations back to back until ``seconds`` have passed."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(ops):
        run_op(tq, index, op, phase)
        if time.perf_counter() >= deadline:
            break
    return phase


def run_traced(tq, ops, seconds: float) -> tuple[Phase, Phase, tracer.Tracer, bool]:
    """Run every operation untraced and traced until ``seconds`` have passed.

    The two runs of an operation evaluate the same points back to back, so
    the traced spans cover every kind of point and the difference between
    the phases measures the wrappers rather than the inputs or the machine's
    drift.  Which run goes first follows the Thue-Morse sequence, so each
    order is equally common within every residue class of the operation
    index modulo a power of two, such as the pure points of ``point_model``;
    plain alternation would always run those untraced first.
    Also returns the tracer and whether every wrapped function was restored.
    """
    untraced, traced, spans = Phase(), Phase(), tracer.Tracer()
    modules = {m: sys.modules[m] for m in tracer.MODULES}
    restored = True
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(ops):
        traced_first = bin(index).count("1") % 2 == 1
        for with_trace in (True, False) if traced_first else (False, True):
            if not with_trace:
                run_op(tq, index, op, untraced)
                continue
            spans.op = index
            spans.install(modules)
            try:
                run_op(tq, index, op, traced)
            finally:
                restored = spans.restore() and restored
        if time.perf_counter() >= deadline:
            break
    return untraced, traced, spans, restored


def run(name: str, seed: int, seconds: float, trace: bool, setup_only: bool = False) -> dict:
    import numpy
    import scipy
    import twistqkd as tq

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        ops = workloads.build(tq, name, seed, os.path.join(tmp, "scan.csv"))
        # run.py reads this clock reading; CLOCK_MONOTONIC is shared by all
        # processes on the machine.
        print(f"ready {time.perf_counter()!r}", flush=True)
        if setup_only:
            return {}
        result = {
            "references": workloads.check_references(tq),
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "twistqkd": getattr(tq, "__version__", None),
            },
            "blas": blas_info(),
        }
        if result["references"]:
            return result
        if not trace:
            result["untraced"] = run_phase(tq, ops, seconds).summary()
        else:
            untraced, traced, spans, restored = run_traced(tq, ops, seconds)
            metrics, accounting = tracer.layer_metrics(spans.spans, traced.points)
            result["untraced"] = untraced.summary()
            result["traced"] = traced.summary()
            result["trace"] = {
                "metrics": metrics,
                "accounting": accounting,
                "absent": spans.absent,
                "restored": restored,
                "spans": len(spans.spans),
            }
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    if not args.setup_only:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
