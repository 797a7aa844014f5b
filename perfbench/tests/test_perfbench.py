"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench/tests``."""

import dataclasses
import itertools
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import twistqkd as tq  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(trace, key):
    result = _bench("point_asym", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_spec_names_the_workloads_and_units_of_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def _model_result(**changes):
    ens = tq.model_states(tq.ModelParams(delta=0.1, depol=0.05))
    channel = tq.ChannelParams(eta=workloads.ETA, p_dark=workloads.P_DARK, distance_km=50.0)
    return dataclasses.replace(tq.keyrate_point(ens, ens, channel), **changes)


def test_gate_passes_a_real_result_and_rejects_perturbed_ones():
    good = _model_result()
    assert workloads.check_result(good) is None
    assert workloads.check_result(dataclasses.replace(good, e_minus=good.e_z + 1e-3))
    assert workloads.check_result(dataclasses.replace(good, e_plus=1.0 + 1e-9))
    assert workloads.check_result(dataclasses.replace(good, e_minus=float("nan")))
    assert workloads.check_result(
        dataclasses.replace(good, rate_twisted=good.rate_naive - 2 * workloads.RATE_ORDER_TOL)
    )


def test_reference_points_match_and_a_perturbed_reference_is_reported(monkeypatch):
    assert workloads.check_references(tq) == []
    references = json.loads(json.dumps(workloads.REFERENCES))
    references["model_d0.1_p0.05_50km"]["e_plus"] += 2 * workloads.REFERENCE_TOL
    monkeypatch.setattr(workloads, "REFERENCES", references)
    problems = workloads.check_references(tq)
    assert len(problems) == 1 and "e_plus" in problems[0]


def test_reference_mismatch_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "check_references", lambda tq: ["perturbed"])
    result = worker.run("point_model", 1, 0.01, trace=False)
    assert result["references"] == ["perturbed"]
    assert "untraced" not in result


def test_traced_run_restores_the_wrapped_functions(capsys):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracer.TARGETS}
    result = worker.run("point_model", 2, 0.01, trace=True)
    assert result["trace"]["restored"] is True
    assert result["trace"]["absent"] == []
    assert result["trace"]["metrics"]["sdp.calls_per_point"] == 2.0
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn


def test_missing_wrapper_target_is_reported_absent():
    modules = {m: sys.modules[m] for m in tracer.MODULES}
    modules["twistqkd.twist"] = types.SimpleNamespace()
    spans = tracer.Tracer()
    spans.install(modules)
    try:
        assert spans.absent == ["twistqkd.twist.solve_sdp"]
        ens = tq.model_states(tq.ModelParams(delta=0.0, depol=0.0))
        channel = tq.ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0)
        tq.keyrate_point(ens, ens, channel)
    finally:
        assert spans.restore() is True
    metrics, _ = tracer.layer_metrics(spans.spans, points=1)
    assert metrics["sdp.calls_per_point"] == 0
    assert metrics["keyrate.keyrate_point_ms"] > 0


def test_traced_phase_covers_the_same_points_pure_ones_included(capsys):
    ops = list(itertools.islice(workloads.build(tq, "point_model", 6, ""), 4))
    pure = {i for i, op in enumerate(ops) if op.params["depol"] == 0.0}
    assert pure
    untraced, traced, spans, restored = worker.run_traced(tq, iter(ops), seconds=1e9)
    assert restored
    assert untraced.ops == traced.ops == [0, 1, 2, 3]
    # Thue-Morse order: op 0 runs untraced first, op 4 (also pure) traced first.
    assert [bin(i).count("1") % 2 for i in (0, 4, 8, 12)] == [0, 1, 1, 0]
    traced_ops = {s.op for s in spans.spans if s.name == "keyrate.keyrate_point"}
    assert traced_ops == {0, 1, 2, 3}
    assert pure <= {s.op for s in spans.spans if s.name == "sdp.solve_sdp"}
    # The caller timed every direct keyrate_point call in both phases.
    assert None not in untraced.keyrate_point_ns + traced.keyrate_point_ns


def _phase(latencies_ms, keyrate_point_ms):
    ns = [int(v * 1e6) for v in latencies_ms]
    inner = [None if v is None else int(v * 1e6) for v in keyrate_point_ms]
    return {"ops": list(range(len(ns))), "latencies_ns": ns, "keyrate_point_ns": inner,
            "points": len(ns), "busy_ns": sum(ns)}


def test_accounting_compares_traced_layers_with_the_untraced_time():
    result = {
        "untraced": _phase([10.0, 20.0], [9.0, 19.0]),
        "traced": _phase([10.5, 20.5], [9.4, 19.4]),
        "trace": {"accounting": {"layer_self_ms_per_point": {"keyrate": 1.0, "twist": 13.3}}},
    }
    acc = run.trace_accounting(result)
    assert acc["overhead_ms_per_point"] == pytest.approx(0.5)
    assert acc["untraced_keyrate_point_ms"] == pytest.approx(14.0)
    assert acc["residual_ms_per_point"] == pytest.approx(0.3)
    assert acc["overhead_se_ms_per_point"] == pytest.approx(0.0, abs=1e-9)
    # Without a direct call (scan_sweep) there is no untraced time to compare.
    result["untraced"] = _phase([10.0, 20.0], [None, None])
    assert run.trace_accounting(result)["residual_ms_per_point"] is None


def test_failed_asym_points_are_counted_not_dropped(capsys):
    n = 12
    ops = list(itertools.islice(workloads.build(tq, "point_asym", 5, ""), n))
    phase = worker.run_phase(tq, iter(ops), seconds=1e9)
    raised = []
    for op in ops:
        try:
            op.run()
        except tq.errors.QkdError as exc:
            raised.append(type(exc).__name__)
    assert raised, "expected some point_asym points to raise at this commit"
    assert phase.points == n
    assert phase.counts["rejected"] == len(raised)
    assert phase.counts["ok"] == n - len(raised)
    assert [f["error"] for f in phase.failures] == raised
    assert all(f["message"] for f in phase.failures)


def test_inputs_depend_only_on_the_seed():
    def first_params(seed):
        return [op.params for op in itertools.islice(workloads.build(tq, "point_model", seed, ""), 5)]

    assert first_params(4) == first_params(4)
    assert first_params(4) != first_params(5)
    pure = [p["depol"] == 0.0 for p in first_params(4)]
    assert pure == [True, False, False, False, True]


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_model", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no twistqkd sources" in proc.stderr
