"""Suite orchestration and reporting: the verify / define / execute / check /
report pipeline, canonical JSON reports with embedded raw records and seed
ledgers, and arithmetic self-verification of every aggregate."""
from __future__ import annotations

import datetime as _dt
import json
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import CX, Circuit, H, PauliString, measure_all
from .device import DeviceModel
from .errors import ValidationError
from .metrics import METRIC_TABLE, collision_delta, metric_record, static_device_metrics
from .noise import NoiseModel
from .protocols import (
    QV_PASS_THRESHOLD, counts_digest, fit_rb_decay, qv_lower_bound, run_clops,
    run_collision_test, run_mirror_benchmark, run_quantum_volume, run_rb,
    run_volumetric, shadow_estimate, xeb_verify_device,
)
from .randgen import qv_model_circuit
from .rng import SeedStream
from .statevector import sample_counts
from .transpile import TranspileConfig, run_pipeline

REPORT_SCHEMA = "report/1"
RUNCFG_SCHEMA = "runcfg/1"

AGG_TOL = 1e-9

#: keys whose values legitimately differ between identical runs
VOLATILE_KEYS = frozenset({"date", "elapsed_seconds", "layers_per_second", "wall_seconds"})


def canonical_json(doc) -> str:
    """Canonical rendering: sorted keys, no whitespace, shortest-round-trip floats."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      ensure_ascii=True)


def strip_volatile(doc):
    """Copy of `doc` with timestamp/wall-time fields removed (for comparisons).

    Aggregates of wall-clock metrics (layers per second) are timing-derived,
    so their numeric fields are stripped along with the raw timing keys.
    """
    if isinstance(doc, Mapping):
        if doc.get("metric") == "layers_per_second":
            doc = {k: v for k, v in doc.items() if k not in ("values", "mean", "std", "record")}
        return {k: strip_volatile(v) for k, v in doc.items() if k not in VOLATILE_KEYS}
    if isinstance(doc, list):
        return [strip_volatile(v) for v in doc]
    return doc


# -- run configuration ------------------------------------------------------------


@dataclass
class RunConfig:
    """Parsed runcfg/1 document."""

    device: DeviceModel
    protocols: list[dict]
    verification: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    peak: TranspileConfig | None = None
    master_seed: int = 0
    repetitions: int = 1
    out: str | None = None

    @classmethod
    def from_json(cls, doc: Mapping, base_dir: Path | None = None) -> "RunConfig":
        if doc.get("schema") != RUNCFG_SCHEMA:
            raise ValidationError(f"unexpected run-config schema {doc.get('schema')!r}")
        dev = doc["device"]
        if isinstance(dev, str):
            path = Path(dev)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            device = DeviceModel.load(path)
        else:
            device = DeviceModel.from_json(dev)
        protocols = list(doc.get("protocols", []))
        for entry in protocols:
            if not isinstance(entry, Mapping) or not isinstance(entry.get("name"), str):
                raise ValidationError(f"protocol entry {entry!r} is not a mapping with a string 'name'")
        peak = doc.get("peak")
        return cls(
            device=device,
            protocols=protocols,
            verification=dict(doc.get("verification", {})),
            noise=dict(doc.get("noise", {})),
            peak=TranspileConfig.from_json({**peak, "mode": "peak"}) if peak else None,
            master_seed=int(doc.get("master_seed", 0)),
            repetitions=int(doc.get("repetitions", 1)),
            out=doc.get("out"),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        return cls.from_json(json.loads(p.read_text()), base_dir=p.parent)

    def to_json(self) -> dict:
        return {
            "schema": RUNCFG_SCHEMA,
            "device": self.device.to_json(),
            "protocols": self.protocols,
            "verification": self.verification,
            "noise": self.noise,
            "peak": self.peak.to_json() if self.peak else None,
            "master_seed": self.master_seed,
            "repetitions": self.repetitions,
            "out": self.out,
        }


def build_noise(config: RunConfig) -> NoiseModel | None:
    """Noise model from the run config: device error book plus overrides."""
    spec = config.noise
    if spec.get("ideal", False):
        return None
    model = NoiseModel.from_device(config.device)
    if "p1" in spec or "p2" in spec or "readout" in spec:
        model = NoiseModel(
            gate_error=dict(model.gate_error) if spec.get("use_device_errors", False) else {},
            edge_error=dict(model.edge_error) if spec.get("use_device_errors", False) else {},
            readout_error=(float(spec.get("readout", 0.0)),),
            default_1q=float(spec.get("p1", 0.0)),
            default_2q=float(spec.get("p2", 0.0)),
            drift=model.drift,
        )
    if "scale" in spec:
        model = model.scaled(float(spec["scale"]))
    if model.is_trivial:
        return None
    return model


# -- protocol dispatch ---------------------------------------------------------------

_GHZ_CACHE: dict[int, Circuit] = {}


def _ghz(width: int) -> Circuit:
    if width not in _GHZ_CACHE:
        gates = [H(0)] + [CX(q, q + 1) for q in range(width - 1)]
        _GHZ_CACHE[width] = Circuit.from_gates(width, gates)
    return _GHZ_CACHE[width]


def _run_protocol(entry: dict, device: DeviceModel, noise: NoiseModel | None,
                  stream: SeedStream, transpile: TranspileConfig | None) -> dict:
    name = entry["name"]
    if name == "quantum_volume":
        return run_quantum_volume(
            device, noise, int(entry.get("max_width", 3)),
            int(entry.get("circuits_per_width", 100)), int(entry.get("shots", 1000)),
            stream, strict=bool(entry.get("strict", True)), transpile=transpile,
        ).to_record()
    if name == "volumetric":
        return run_volumetric(
            device, noise, entry.get("shape", "square"), list(entry.get("widths", [2, 3])),
            entry.get("metric", "hog"), int(entry.get("shots", 1000)), stream,
            transpile=transpile,
        ).to_record()
    if name == "rb":
        return run_rb(
            device, noise, int(entry.get("n_qubits", 1)),
            list(entry.get("lengths", [2, 4, 8, 16, 32])),
            int(entry.get("sequences_per_length", 20)), int(entry.get("shots", 200)),
            stream,
        ).to_record()
    if name == "mirror":
        return run_mirror_benchmark(
            device, noise, list(entry.get("widths", [3])), list(entry.get("depths", [4])),
            int(entry.get("randomizations", 5)), int(entry.get("shots", 200)), stream,
        ).to_record()
    if name == "clops":
        return run_clops(
            device, noise, int(entry.get("width", 3)), int(entry.get("layers_total", 30)),
            int(entry.get("batch", 5)), stream, shots=int(entry.get("shots", 100)),
            transpile=transpile,
        ).to_record()
    if name == "collision":
        return run_collision_test(
            device, noise, int(entry.get("n_qubits", 8)), stream, transpile=transpile,
        ).to_record()
    if name == "shadows":
        width = int(entry.get("width", 3))
        observables = [PauliString(width, s) for s in entry.get("observables", ["Z" * width])]
        estimates = shadow_estimate(_ghz(width), observables,
                                    int(entry.get("snapshots", 2000)), stream)
        return {
            "protocol": "shadows",
            "config": {"prep": "ghz", "width": width,
                       "snapshots": int(entry.get("snapshots", 2000))},
            "seeds": stream.as_record(),
            "items": [e.to_json() for e in estimates],
            "aggregate": {"estimates": {e.observable: e.estimate for e in estimates}},
        }
    raise ValidationError(f"unknown protocol {name!r}")


_HEADLINES = {
    "quantum_volume": ("quantum_volume", "aggregate"),
    "volumetric": ("mean_value", "computed"),
    "rb": ("error_per_clifford", "aggregate"),
    "mirror": ("mean_success", "aggregate"),
    "clops": ("layers_per_second", "aggregate"),
    "collision": ("delta_hat", "aggregate"),
    "shadows": ("first_estimate", "computed"),
    "xeb_verify": ("alpha_mean", "aggregate"),
}

#: shipped-descriptor name for a protocol's headline metric, where one exists
_DESCRIPTOR_FOR = {
    "quantum_volume": "quantum_volume",
    "clops": "clops",
    "collision": "collision_volume",
    "xeb_verify": "xeb",
}
_VOLUMETRIC_DESCRIPTOR = {
    "hog": "heavy_output_generation",
    "hellinger": "hellinger_distance",
    "l1": "l1_distance",
    "xeb": "xeb",
}


def _descriptor_name(entry: dict) -> str:
    name = entry["name"]
    if name == "volumetric":
        return _VOLUMETRIC_DESCRIPTOR.get(entry.get("metric", "hog"), "heavy_output_generation")
    return _DESCRIPTOR_FOR.get(name, _HEADLINES[name][0])


def headline_value(record: dict) -> tuple[str, float]:
    """(metric name, value) summarizing one protocol record."""
    name, source = _HEADLINES[record["protocol"]]
    if source == "aggregate":
        return name, float(record["aggregate"][name])
    if record["protocol"] == "volumetric":
        return name, float(np.mean([r["value"] for r in record["items"]]))
    return name, float(record["items"][0]["estimate"])


# -- suite runner -----------------------------------------------------------------


@dataclass
class Report:
    doc: dict

    def to_json(self) -> dict:
        return self.doc

    def canonical(self) -> str:
        return canonical_json(self.doc)

    @classmethod
    def from_json(cls, doc: dict) -> "Report":
        if doc.get("schema") != REPORT_SCHEMA:
            raise ValidationError(f"unexpected report schema {doc.get('schema')!r}")
        return cls(doc)

    @classmethod
    def load(cls, path: str | Path) -> "Report":
        return cls.from_json(json.loads(Path(path).read_text()))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.canonical() + "\n")


def _checklist(config: RunConfig, verified: bool) -> dict:
    seeds = f"master seed {config.master_seed} with per-item substreams in every record"
    return {
        "relevance": {"note": "", "evidence": "protocol suite spans quality, scalability and speed classes"},
        "reproducibility": {"note": "", "evidence": seeds},
        "fairness": {"note": "", "evidence": "fixed base pipeline; peak passes logged and probe-checked"},
        "verifiability": {"note": "", "evidence": "raw per-item records embedded; arithmetic self-check supported"
                                                 + ("; device verification passed" if verified else "")},
        "usability": {"note": "", "evidence": "single-command run from a JSON config"},
    }


def run_benchmark_suite(config: RunConfig) -> Report:
    """Execute the step-wise suite: device verification gates everything, every
    configured protocol runs under base (and optionally peak), and repeated
    runs are aggregated as mean and standard deviation."""
    t_start = time.perf_counter()
    master = SeedStream(config.master_seed)
    device = config.device
    noise = build_noise(config)

    comp = device.connected_components()
    comp_width = len(comp[0]) if comp else 1
    ver = config.verification
    verification = xeb_verify_device(
        device, noise,
        int(ver.get("n", min(6, comp_width))),
        int(ver.get("circuits", 10)),
        int(ver.get("shots", 5000)),
        master.child(0),
        threshold=float(ver.get("threshold", 0.9)),
    )

    doc: dict = {
        "schema": REPORT_SCHEMA,
        "header": {
            "harness_version": __version__,
            "date": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "master_seed": config.master_seed,
            "repetitions": config.repetitions,
            "device": device.to_json(),
            "noise": config.noise,
            "protocols": config.protocols,
            "verification_config": config.verification,
            "peak": config.peak.to_json() if config.peak else None,
        },
        "metric_descriptors": [d.to_json() for d in METRIC_TABLE],
        "static_metrics": static_device_metrics(device),
        "verification": {**verification.to_record(), "passed": verification.verified,
                         "record": metric_record("xeb", verification.alpha_mean,
                                                 verification.stderr)},
        "base": None,
        "peak": None,
        "aggregates": {},
        "pass_logs": {},
        "quality_checklist": _checklist(config, verification.verified),
        "timing": {},
    }

    if not verification.verified:
        doc["status"] = "device verification failed; protocol stages skipped"
        doc["timing"]["wall_seconds"] = time.perf_counter() - t_start
        return Report(doc)
    doc["status"] = "ok"

    # Fairness audit trail: one representative transpile per mode.
    audit_width = min(3, comp_width)
    if audit_width >= 2:
        audit = measure_all(qv_model_circuit(audit_width, master.child(3)))
        _, base_log = run_pipeline(audit, device, TranspileConfig())
        doc["pass_logs"]["base"] = base_log.to_json()
        if config.peak:
            _, peak_log = run_pipeline(audit, device, config.peak)
            doc["pass_logs"]["peak"] = peak_log.to_json()

    modes: list[tuple[str, TranspileConfig | None]] = [("base", None)]
    if config.peak is not None:
        modes.append(("peak", config.peak))

    for mode, tcfg in modes:
        records = []
        for rep in range(config.repetitions):
            for i, entry in enumerate(config.protocols):
                item_stream = master.child(1 if mode == "base" else 2, rep, i)
                try:
                    record = _run_protocol(entry, device, noise, item_stream, tcfg)
                except Exception as exc:  # a failing protocol must not abort the rest
                    record = {"protocol": entry.get("name", "?"), "config": dict(entry),
                              "seeds": item_stream.as_record(), "items": None,
                              "aggregate": {}, "error": f"{type(exc).__name__}: {exc}"}
                record["mode"] = mode
                record["repetition"] = rep
                records.append(record)
        doc[mode] = records

    for mode, _ in modes:
        for entry in config.protocols:
            values = [headline_value(r)[1] for r in doc[mode]
                      if r["protocol"] == entry["name"] and "error" not in r]
            if values:
                mean = float(np.mean(values))
                std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
                doc["aggregates"][f"{mode}:{entry['name']}"] = {
                    "metric": _HEADLINES[entry["name"]][0],
                    "values": values,
                    "mean": mean,
                    "std": std,
                    "record": metric_record(_descriptor_name(entry), mean,
                                            std if len(values) > 1 else None),
                }

    doc["timing"]["wall_seconds"] = time.perf_counter() - t_start
    return Report(doc)


# -- rendering ----------------------------------------------------------------------


def render_report(report: Report, fmt: str = "json") -> bytes:
    """Canonical JSON, or a SPEC-style plain-text layout."""
    if fmt == "json":
        return (report.canonical() + "\n").encode()
    if fmt != "text":
        raise ValidationError(f"unknown report format {fmt!r}")
    doc = report.doc
    h = doc["header"]
    dev = h["device"]
    lines = []
    bar = "=" * 72
    thin = "-" * 72
    lines += [bar, " Quantum Processor Benchmark Report".ljust(56) + REPORT_SCHEMA, bar]
    lines.append(f" Device: {dev.get('name', 'device')} ({dev['n_qubits']} qubits)")
    lines.append(f" Harness: qbench {h['harness_version']}    Date: {h['date']}")
    lines.append(f" Master seed: {h['master_seed']}    Repetitions: {h['repetitions']}")
    lines.append(thin)
    lines.append(" Hardware / software description")
    lines.append(f"   native gates: {', '.join(dev['native_gates'])}")
    lines.append(f"   couplings: {len(dev['edges'])} edges; "
                 f"largest working component: {doc['static_metrics']['working_connected_qubits']}")
    sm = doc["static_metrics"]
    lines.append(f"   gate fidelity avg: {sm['gate_fidelity']['avg']:.6g}; "
                 f"degree avg: {sm['degree']['avg']:.3g}; "
                 f"coupling norm: {sm['coupling_spectral_norm']:.4g}")
    ver = doc["verification"]
    lines.append(thin)
    lines.append(f" Device verification (XEB): alpha = {ver['aggregate']['alpha_mean']:.4f} "
                 f"(threshold {ver['config']['threshold']}) -> "
                 + ("PASSED" if ver["passed"] else "FAILED"))
    for mode in ("base", "peak"):
        records = doc.get(mode)
        if not records:
            continue
        lines.append(thin)
        lines.append(f" {mode.capitalize()} results")
        lines.append(f"   {'protocol':<16}{'rep':<5}{'metric':<22}{'value':<16}")
        for record in records:
            if "error" in record:
                lines.append(f"   {record['protocol']:<16}{record['repetition']:<5}"
                             f"{'error':<22}{record['error']}")
                continue
            metric, value = headline_value(record)
            lines.append(f"   {record['protocol']:<16}{record['repetition']:<5}"
                         f"{metric:<22}{value:<16.6g}")
        for key, agg in sorted(doc["aggregates"].items()):
            if key.startswith(mode + ":") and len(agg["values"]) > 1:
                lines.append(f"   {key.split(':', 1)[1]:<16}{'avg':<5}{agg['metric']:<22}"
                             f"{agg['mean']:<10.6g} +/- {agg['std']:.3g}")
    lines.append(thin)
    lines.append(" Quality attribute checklist")
    for attr, body in doc["quality_checklist"].items():
        note = body["note"] or "-"
        lines.append(f"   {attr:<16} evidence: {body['evidence']}")
        if body["note"]:
            lines.append(f"   {'':<16} note: {note}")
    lines.append(thin)
    lines.append(f" Status: {doc.get('status', 'ok')}")
    lines.append(bar)
    return ("\n".join(lines) + "\n").encode()


# -- self-verification ----------------------------------------------------------------


@dataclass
class VerifyOutcome:
    ok: bool
    status: str  # "ok" | "discrepancies" | "unverifiable"
    discrepancies: list[str]

    def to_json(self) -> dict:
        return {"ok": self.ok, "status": self.status, "discrepancies": self.discrepancies}


def _close(a: float, b: float, tol: float = AGG_TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


def _verify_record(record: dict, problems: list[str]) -> bool:
    """Recompute a protocol record's aggregate from its raw items.

    Returns False when the record carries no raw items to recompute from.
    """
    protocol = record.get("protocol")
    items = record.get("items")
    agg = record.get("aggregate", {})
    where = f"{record.get('mode', '?')}:{protocol}#rep{record.get('repetition', '?')}"
    if items is None:
        return False
    if protocol == "quantum_volume":
        if not items or any("hogs" not in it for it in items):
            return False
        largest = 0
        prefix = True
        for it in items:
            hogs = it["hogs"]
            if not _close(np.mean(hogs), it["mean_hog"]):
                problems.append(f"{where}: width {it['width']} mean_hog mismatch")
            bound = qv_lower_bound(hogs)
            if not _close(bound, it["lower_bound"]):
                problems.append(f"{where}: width {it['width']} lower_bound mismatch")
            passed = bound > QV_PASS_THRESHOLD
            if passed != it["passed"]:
                problems.append(f"{where}: width {it['width']} pass flag mismatch")
            if passed and prefix:
                largest = it["width"]
            else:
                prefix = False
        if largest != agg.get("largest_passing_width") or (1 << largest) != agg.get("quantum_volume"):
            problems.append(f"{where}: quantum volume aggregate mismatch")
        return True
    if protocol == "rb":
        if not items or any("survivals" not in it for it in items):
            return False
        lengths = [it["length"] for it in items]
        means = []
        for it in items:
            mean = float(np.mean(it["survivals"]))
            if not _close(mean, it["mean"]):
                problems.append(f"{where}: length {it['length']} survival mean mismatch")
            means.append(mean)
        a, p, b, resid = fit_rb_decay(lengths, means, int(record["config"]["n_qubits"]))
        dim = 1 << int(record["config"]["n_qubits"])
        for name, value in (("amplitude", a), ("decay", p), ("offset", b),
                            ("fit_residual", resid),
                            ("error_per_clifford", (dim - 1) * (1 - p) / dim)):
            if not _close(value, agg.get(name, float("nan")), 1e-7):
                problems.append(f"{where}: {name} mismatch")
        return True
    if protocol == "mirror":
        if not items:
            return False
        if not _close(np.mean([it["success"] for it in items]), agg.get("mean_success", float("nan"))):
            problems.append(f"{where}: mean_success mismatch")
        if not _close(np.mean([it["polarization"] for it in items]),
                      agg.get("mean_polarization", float("nan"))):
            problems.append(f"{where}: mean_polarization mismatch")
        return True
    if protocol == "collision":
        if not items:
            return False
        st = items[0]
        if st["distinct"] + st["collisions"] != st["shots"]:
            problems.append(f"{where}: collision counts inconsistent")
        delta = collision_delta(st["collisions"], st["shots"], st["n_outcomes"])
        if not _close(delta, st["delta_hat"]) or not _close(delta, agg.get("delta_hat", float("nan"))):
            problems.append(f"{where}: delta_hat mismatch")
        if (delta >= 0.5) != agg.get("passed"):
            problems.append(f"{where}: collision pass flag mismatch")
        return True
    if protocol in ("xeb_verify",):
        if not items:
            return False
        alphas = [it["alpha_tilde"] for it in items]
        if not _close(np.mean(alphas), agg.get("alpha_mean", float("nan"))):
            problems.append(f"{where}: alpha_mean mismatch")
        if (float(np.mean(alphas)) >= record["config"]["threshold"]) != agg.get("verified"):
            problems.append(f"{where}: verified flag mismatch")
        return True
    if protocol == "volumetric":
        if items is None:
            return False
        for it in items:
            if it["metric"] == "hog" and (it["value"] > QV_PASS_THRESHOLD) != it["passed"]:
                problems.append(f"{where}: volumetric pass flag mismatch at width {it['width']}")
        if agg.get("rows") != len(items):
            problems.append(f"{where}: volumetric row count mismatch")
        return True
    if protocol == "clops":
        ls = agg.get("layers_per_second")
        el = agg.get("elapsed_seconds")
        lx = agg.get("layers_executed")
        if ls is None or el is None or lx is None:
            return False
        if not _close(ls, lx / el, max(AGG_TOL, abs(ls) * 1e-9)):
            problems.append(f"{where}: layers_per_second inconsistent with elapsed time")
        return True
    if protocol == "shadows":
        if not items:
            return False
        for it in items:
            k = sum(1 for ch in it["observable"].lstrip("+-") if ch != "I")
            if not _close(it["variance_bound"], (3.0 ** k) / it["snapshots"]):
                problems.append(f"{where}: shadow variance bound mismatch")
        est = agg.get("estimates", {})
        for it in items:
            if not _close(est.get(it["observable"], float("nan")), it["estimate"]):
                problems.append(f"{where}: shadow estimate aggregate mismatch")
        return True
    return False


def self_verify_report(report: Report, reexecute: int = 0) -> VerifyOutcome:
    """Recompute every aggregate from the embedded per-item records.

    `reexecute > 0` additionally regenerates that many quantum-volume circuits
    from their seed ledger and compares freshly sampled counts hash-exactly.
    Missing raw records yield "unverifiable" rather than failure.
    """
    doc = report.doc
    problems: list[str] = []
    verified_any = False
    unverifiable: list[str] = []

    if doc.get("peak") and not doc.get("base"):
        problems.append("report contains a peak table without the mandatory base table")

    records = [doc["verification"]] if doc.get("verification") else []
    for mode in ("base", "peak"):
        records.extend(doc.get(mode) or [])
    for record in records:
        if _verify_record(record, problems):
            verified_any = True
        else:
            unverifiable.append(str(record.get("protocol")))

    if reexecute > 0:
        problems.extend(_reexecute_check(doc, reexecute))

    if problems:
        return VerifyOutcome(False, "discrepancies", problems)
    if not verified_any:
        return VerifyOutcome(False, "unverifiable",
                             [f"no recomputable records (skipped: {sorted(set(unverifiable))})"])
    return VerifyOutcome(True, "ok", [])


def _reexecute_check(doc: dict, count: int) -> list[str]:
    problems: list[str] = []
    device = DeviceModel.from_json(doc["header"]["device"])
    noise = build_noise(RunConfig(device=device, protocols=[], noise=doc["header"].get("noise", {})))
    done = 0
    for record in doc.get("base") or []:
        if record["protocol"] != "quantum_volume" or done >= count:
            continue
        stream = SeedStream.from_record(record["seeds"])
        shots = int(record["config"]["shots"])
        for it in record["items"]:
            if done >= count:
                break
            if not it.get("sample_hashes"):
                continue
            item = stream.child(it["width"], 0)
            circuit = qv_model_circuit(it["width"], item.child(0))
            executed, _ = run_pipeline(measure_all(circuit), device, TranspileConfig())
            samples = sample_counts(executed, shots, noise, item.child(1).generator())
            if counts_digest(samples) != it["sample_hashes"][0]:
                problems.append(f"re-execution: width {it['width']} circuit 0 sample hash mismatch")
            done += 1
    return problems
