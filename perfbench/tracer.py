"""Span tracing of the ``twistqkd`` layers, from outside the package.

The tracer replaces public functions at the layer boundaries with wrappers
that record one span per call, at the place where the caller looks the name
up: ``twistqkd.keyrate``'s module globals for the stages of one point,
``twistqkd.twist.solve_sdp`` for the two programs per point, and the package
attributes the workloads call.  A name that no longer exists (for example
``solve_sdp`` once the phase errors have a closed form) is reported absent
instead of failing the run.  Spans stay in memory until :func:`layer_metrics`
derives the per-layer figures from them.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

MODULES = ("twistqkd", "twistqkd.keyrate", "twistqkd.twist")

# (module, attribute, span name).  A span name is "<layer>.<function>"; the
# layer is the twistqkd module that defines the function.
TARGETS = (
    ("twistqkd", "model_states", "states.model_states"),
    ("twistqkd", "keyrate_point", "keyrate.keyrate_point"),
    ("twistqkd", "scan", "keyrate.scan"),
    ("twistqkd", "scan_to_csv", "keyrate.scan_to_csv"),
    ("twistqkd.keyrate", "model_states", "states.model_states"),
    ("twistqkd.keyrate", "keyrate_point", "keyrate.keyrate_point"),
    ("twistqkd.keyrate", "tetrahedron_check", "states.tetrahedron_check"),
    ("twistqkd.keyrate", "detection_stats", "channel.detection_stats"),
    ("twistqkd.keyrate", "build_gamma", "channel.build_gamma"),
    ("twistqkd.keyrate", "solve_eve", "evegram.solve_eve"),
    ("twistqkd.keyrate", "key_basis_stats", "evegram.key_basis_stats"),
    ("twistqkd.keyrate", "optimize_phase_errors", "twist.optimize_phase_errors"),
    ("twistqkd.keyrate", "naive_phase_errors", "twist.naive_phase_errors"),
    ("twistqkd.keyrate", "six_state_rate", "keyrate.six_state_rate"),
    ("twistqkd.twist", "solve_sdp", "sdp.solve_sdp"),
)

# Spans whose CPU time is recorded as well as their wall time.
CPU_SPANS = frozenset({"twist.optimize_phase_errors"})

# What a span keeps of its function's return value.
RESULT_FIELDS = {
    "sdp.solve_sdp": "iterations",
    "evegram.solve_eve": "clipped_mass",
}


@dataclass
class Span:
    name: str
    start_ns: int
    parent: int | None
    op: int | None
    end_ns: int = 0
    cpu_ns: int = 0
    value: float | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Tracer:
    """Records spans while installed; :meth:`restore` puts the originals back."""

    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    op: int | None = None
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def install(self, modules: dict) -> None:
        """Wrap every target found in ``modules`` (import name -> module)."""
        self.absent = []
        for module_name, attr, span_name in TARGETS:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name))
            self._patched.append((module, attr, original))

    def restore(self) -> bool:
        """Put the original functions back; True when every one is back."""
        patched, self._patched = self._patched, []
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
        return all(getattr(module, attr) is original for module, attr, original in patched)

    def begin(self, name: str) -> int:
        span = Span(name, 0, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        if name in CPU_SPANS:
            span.cpu_ns = time.process_time_ns()
        span.start_ns = time.perf_counter_ns()
        return len(self.spans) - 1

    def end(self, index: int, result=None) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        if span.name in CPU_SPANS:
            span.cpu_ns = time.process_time_ns() - span.cpu_ns
        self._stack.pop()
        attr = RESULT_FIELDS.get(span.name)
        if attr is not None and result is not None:
            span.value = getattr(result, attr, None)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, result)

        return traced


def _self_ns(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration_ns for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration_ns
    return own


def layer_metrics(spans: list, points: int) -> tuple[dict, dict]:
    """Per-layer metrics, and each layer's self time inside keyrate_point,
    from the spans of a run.

    Layer times are per key-rate point (``points``), so they add up, except
    ``keyrate.scan_to_csv_ms``, which is per CSV written.  A function that
    was never called on the workload's path reads 0.
    """
    own = _self_ns(spans)
    total, self_ns, count = {}, {}, {}
    for span, span_self in zip(spans, own):
        total[span.name] = total.get(span.name, 0) + span.duration_ns
        self_ns[span.name] = self_ns.get(span.name, 0) + span_self
        count[span.name] = count.get(span.name, 0) + 1
    points = max(points, 1)

    def per_point(name: str, scale: float) -> float:
        return total.get(name, 0) / points / scale

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    sdp_spans = [s for s in spans if s.name == "sdp.solve_sdp" and s.value is not None]
    eve_spans = [s for s in spans if s.name == "evegram.solve_eve" and s.value is not None]
    twist_spans = [s for s in spans if s.name == "twist.optimize_phase_errors"]
    kp_total = total.get("keyrate.keyrate_point", 0)
    metrics = {
        "twist.optimize_phase_errors_ms": per_point("twist.optimize_phase_errors", 1e6),
        "twist.self_ms": (
            self_ns.get("twist.optimize_phase_errors", 0) + self_ns.get("twist.naive_phase_errors", 0)
        ) / points / 1e6,
        "twist.cpu_per_wall": share(
            sum(s.cpu_ns for s in twist_spans), sum(s.duration_ns for s in twist_spans)
        ),
        "twist.naive_phase_errors_us": per_point("twist.naive_phase_errors", 1e3),
        "sdp.solve_sdp_ms": per_point("sdp.solve_sdp", 1e6),
        "sdp.iterations": share(sum(s.value for s in sdp_spans), len(sdp_spans)),
        "sdp.calls_per_point": count.get("sdp.solve_sdp", 0) / points,
        "states.tetrahedron_check_us": per_point("states.tetrahedron_check", 1e3),
        "states.model_states_us": per_point("states.model_states", 1e3),
        "channel.detection_stats_us": per_point("channel.detection_stats", 1e3),
        "channel.build_gamma_us": per_point("channel.build_gamma", 1e3),
        "evegram.solve_eve_us": per_point("evegram.solve_eve", 1e3),
        "evegram.key_basis_stats_us": per_point("evegram.key_basis_stats", 1e3),
        "evegram.repair_share": share(sum(1 for s in eve_spans if s.value > 0), len(eve_spans)),
        "keyrate.six_state_rate_us": per_point("keyrate.six_state_rate", 1e3),
        "keyrate.keyrate_point_ms": kp_total / points / 1e6,
        "keyrate.self_share": share(self_ns.get("keyrate.keyrate_point", 0), kp_total),
        "keyrate.scan_to_csv_ms": share(
            total.get("keyrate.scan_to_csv", 0), count.get("keyrate.scan_to_csv", 0)
        ) / 1e6,
        "keyrate.scan_self_share": share(
            self_ns.get("keyrate.scan", 0), total.get("keyrate.scan", 0)
        ),
    }
    # Self times of every span inside keyrate_point, by layer.  They add up
    # to keyrate_point's traced duration by construction; run.py compares
    # that sum with the untraced duration of the same points.
    layer_self = {}
    for index in _inside_keyrate_point(spans):
        layer = spans[index].name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + own[index]
    accounting = {
        "layer_self_ms_per_point": {k: v / points / 1e6 for k, v in sorted(layer_self.items())},
        "calls": dict(sorted(count.items())),
    }
    return metrics, accounting


def _inside_keyrate_point(spans: list) -> list:
    """Indices of keyrate_point spans and all their descendants."""
    inside = []
    within = [False] * len(spans)
    for index, span in enumerate(spans):
        # Parents precede children in the list, so one pass suffices.
        parent_inside = span.parent is not None and within[span.parent]
        within[index] = parent_inside or span.name == "keyrate.keyrate_point"
        if within[index]:
            inside.append(index)
    return inside
