"""Outside-in tracing of qbench's layers for the benchmark's traced run.

The tracer replaces the module-level bindings through which one qbench
module calls another (for example ``qbench.protocols.sample_counts``) with
wrappers that record a span per call: name, layer, start, end, span id,
parent id and the item the call belongs to. Spans stay in memory and are
written out as JSON lines when the run ends. Leaving the ``with`` block
restores every original binding, so the untraced timed section runs
unpatched code.

Layers are qbench's modules. ``statevector`` is split into its sampling
entry (``statevector.sample``) and its exact oracle (``statevector.ideal``)
because the workloads load them very differently. ``qasm``, ``device``,
``noise``, ``rng``, ``circuits`` and ``distributions`` are data types or
lie off every hot path, so they get no span.
"""
from __future__ import annotations

import itertools
import json
from collections import defaultdict
from time import perf_counter

#: (module, binding, span name); the layer is the span name up to its last dot
WRAPS = (
    ("protocols", "sample_counts", "statevector.sample.sample_counts"),
    ("report", "sample_counts", "statevector.sample.sample_counts"),
    ("protocols", "ideal_distribution", "statevector.ideal.ideal_distribution"),
    ("protocols", "run_statevector", "statevector.ideal.run_statevector"),
    ("statevector", "ideal_distribution", "statevector.ideal.ideal_distribution"),
    ("transpile", "ideal_distribution", "statevector.ideal.ideal_distribution"),
    ("protocols", "run_pipeline", "transpile.run_pipeline"),
    ("report", "run_pipeline", "transpile.run_pipeline"),
    ("transpile", "route_swaps", "transpile.route_swaps"),
    ("transpile", "decompose_to_native", "transpile.decompose_to_native"),
    ("transpile", "cancel_inverse_gates", "transpile.cancel_inverse_gates"),
    ("transpile", "synthesize_two_qubit", "kak.synthesize_two_qubit"),
    ("protocols", "stabilizer_sample", "stabilizer.stabilizer_sample"),
    ("randgen", "deterministic_outcome", "stabilizer.deterministic_outcome"),
    ("protocols", "qv_model_circuit", "randgen.qv_model_circuit"),
    ("protocols", "layered_model_circuit", "randgen.layered_model_circuit"),
    ("protocols", "random_clifford_circuit", "randgen.random_clifford_circuit"),
    ("protocols", "make_mirror_circuit", "randgen.make_mirror_circuit"),
    ("protocols", "volumetric_family", "randgen.volumetric_family"),
    ("report", "qv_model_circuit", "randgen.qv_model_circuit"),
    ("protocols", "clifford_group", "cliffords.clifford_group"),
    ("randgen", "clifford_group", "cliffords.clifford_group"),
    ("protocols", "hog_probability", "metrics.hog_probability"),
    ("protocols", "xeb_alpha", "metrics.xeb_alpha"),
    ("protocols", "collision_volume", "metrics.collision_volume"),
    ("protocols", "hellinger_distance", "metrics.hellinger_distance"),
    ("protocols", "l1_distance", "metrics.l1_distance"),
    # Protocol entry points: the suite reaches them through report's bindings,
    # the single-protocol workloads through the protocols module itself.
    ("report", "run_quantum_volume", "protocols.run_quantum_volume"),
    ("report", "run_volumetric", "protocols.run_volumetric"),
    ("report", "run_rb", "protocols.run_rb"),
    ("report", "run_mirror_benchmark", "protocols.run_mirror_benchmark"),
    ("report", "run_clops", "protocols.run_clops"),
    ("report", "run_collision_test", "protocols.run_collision_test"),
    ("report", "shadow_estimate", "protocols.shadow_estimate"),
    ("report", "xeb_verify_device", "protocols.xeb_verify_device"),
    ("protocols", "run_quantum_volume", "protocols.run_quantum_volume"),
    ("protocols", "run_collision_test", "protocols.run_collision_test"),
    ("protocols", "run_mirror_benchmark", "protocols.run_mirror_benchmark"),
    ("cli", "run_benchmark_suite", "report.run_benchmark_suite"),
    ("cli", "self_verify_report", "report.self_verify_report"),
    ("cli", "render_report", "report.render_report"),
    ("cli", "main", "cli.main"),
)

#: per-layer metrics the traced run reports, in output order
LAYERS = ("statevector.sample", "statevector.ideal", "transpile", "kak", "stabilizer",
          "randgen", "cliffords", "metrics", "protocols", "report", "cli")

_TRANSPILE_PASSES = {"transpile.route_swaps": "route_s",
                     "transpile.decompose_to_native": "decompose_s",
                     "transpile.cancel_inverse_gates": "cancel_s"}
_REPORT_STAGES = {"report.run_benchmark_suite": "suite_s",
                  "report.self_verify_report": "verify_s",
                  "report.render_report": "render_s"}


def executed_gates(circuit) -> int:
    """Gates a simulator applies: every gate except measurements and barriers."""
    return sum(1 for g in circuit.all_gates() if g.kind.value not in ("measure", "barrier"))


def _trajectories(noise, shots: int) -> int:
    """Rows of the statevector batch: one state unless some gate can inject a Pauli."""
    if noise is None:
        return 1
    gate_noise = noise.default_1q or noise.default_2q or any(noise.gate_error.values()) \
        or any(noise.edge_error.values()) \
        or (noise.drift is not None and (max(noise.drift.cycle) > 0 or noise.drift.noise_std > 0))
    return shots if gate_noise else 1


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_sample(tracer, span, args, kwargs, result):
    circuit, shots = args[0], int(_arg(args, kwargs, 1, "shots"))
    gates = executed_gates(circuit)
    span["gate_shots"] = gates * shots
    if span["layer"] == "statevector.sample":
        noise = _arg(args, kwargs, 2, "noise")
        span["amp_updates"] = gates * _trajectories(noise, shots) * (1 << circuit.n_qubits)
    total = sum(result.counts.values())
    if total != shots:
        tracer.problems.append((tracer.item, f"{span['name']} returned {total} counts for {shots} shots"))


def _count_ideal(tracer, span, args, kwargs, result):
    circuit = args[0]
    span["amp_updates"] = executed_gates(circuit) * (1 << circuit.n_qubits)


def _count_pipeline(tracer, span, args, kwargs, result):
    out, log = result
    span["gates_in"] = args[0].gate_count()
    span["gates_out"] = out.gate_count()
    span["swaps_added"] = log.swaps_added


def _count_render(tracer, span, args, kwargs, result):
    span["bytes"] = len(result)


_COUNTERS = {
    "statevector.sample.sample_counts": _count_sample,
    "stabilizer.stabilizer_sample": _count_sample,
    "statevector.ideal.ideal_distribution": _count_ideal,
    "statevector.ideal.run_statevector": _count_ideal,
    "transpile.run_pipeline": _count_pipeline,
    "report.render_report": _count_render,
}


class Tracer:
    """Records spans around qbench's cross-module calls while installed."""

    def __init__(self, qbench):
        self._qbench = qbench
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[dict] = []
        self.problems: list[tuple[int | None, str]] = []
        self.item: int | None = None

    def _wrap(self, name: str, fn):
        layer = name.rsplit(".", 1)[0]
        counter = _COUNTERS.get(name)
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            span = {"id": next(self._ids), "parent": self._stack[-1] if self._stack else None,
                    "item": self.item, "name": name, "layer": layer}
            misses = cache_info().misses if cache_info else 0
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if cache_info and cache_info().misses > misses:
                span["build"] = True
            if counter is not None:
                counter(self, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        originals = {}
        for module_name, attr, span_name in WRAPS:
            module = getattr(self._qbench, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            key = (id(fn), span_name)
            if key not in originals:
                originals[key] = self._wrap(span_name, fn)
            setattr(module, attr, originals[key])
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def gate_shots(self) -> int:
        return sum(s.get("gate_shots", 0) for s in self.spans)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-layer work and time per pass of the workload's item set.

    ``busy_s`` sums a layer's outermost spans, so nested spans of the same
    layer are not counted twice; ``self_s`` is every span's duration minus the
    time its child spans cover. ``cliffords.build_s`` is the total time of the
    ``clifford_group`` calls that built a table, over the whole traced run.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        layer, dur = s["layer"], s["end"] - s["start"]
        totals[f"{layer}.self_s"] += dur - child_time[s["id"]]
        if "error" in s:
            totals[f"{layer}.errors"] += 1
        ancestor = by_id.get(s["parent"])
        while ancestor is not None and ancestor["layer"] != layer:
            ancestor = by_id.get(ancestor["parent"])
        if ancestor is None:
            totals[f"{layer}.calls"] += 1
            totals[f"{layer}.busy_s"] += dur
        for key in ("gate_shots", "amp_updates", "gates_in", "gates_out", "swaps_added", "bytes"):
            if key in s:
                totals[f"{layer}.{key}"] += s[key]
        if s["name"] in _TRANSPILE_PASSES:
            totals[f"transpile.{_TRANSPILE_PASSES[s['name']]}"] += dur
        if s["name"] in _REPORT_STAGES:
            totals[f"report.{_REPORT_STAGES[s['name']]}"] += dur
        if layer == "statevector.ideal" and s["parent"] is not None \
                and by_id[s["parent"]]["name"] == "transpile.run_pipeline":
            totals["transpile.probe_oracle_calls"] += 1
            totals["transpile.probe_oracle_s"] += dur
    build_s = sum(s["end"] - s["start"] for s in spans if s.get("build"))
    out = {name: value / passes for name, value in totals.items()}
    out["cliffords.build_s"] = build_s
    return out


#: per-layer metric names in BENCHMARK.json order, with their units
PER_LAYER = (
    [(f"{layer}.{m}", unit) for layer in LAYERS
     for m, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("errors", "count"))]
    + [("statevector.sample.gate_shots", "count"), ("statevector.sample.amp_updates", "count"),
       ("statevector.ideal.amp_updates", "count"), ("stabilizer.gate_shots", "count"),
       ("transpile.gates_in", "count"), ("transpile.gates_out", "count"),
       ("transpile.swaps_added", "count"), ("transpile.route_s", "s"),
       ("transpile.decompose_s", "s"), ("transpile.cancel_s", "s"),
       ("transpile.probe_oracle_calls", "count"), ("transpile.probe_oracle_s", "s"),
       ("cliffords.build_s", "s"), ("report.suite_s", "s"), ("report.verify_s", "s"),
       ("report.render_s", "s"), ("report.bytes", "count"),
       ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count")]
)
