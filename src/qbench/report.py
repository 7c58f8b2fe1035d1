"""Suite orchestration and reporting: the verify / define / execute / check /
report pipeline, canonical JSON reports with embedded raw records and seed
ledgers, and self-verification that rebuilds every record from its raw fields
with the code that built it."""
from __future__ import annotations

import datetime as _dt
import functools
import json
import time
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import CX, Circuit, H, PauliString, measure_all
from .device import DeviceModel
from .errors import ValidationError
from .metrics import METRIC_TABLE, metric_record, static_device_metrics
from .noise import NoiseModel
from .protocols import (
    ClopsResult, CollisionTestResult, MirrorResult, QvResult, RbResult, ShadowsResult,
    VolumetricTable, XebVerifyResult, counts_digest, default_verification_width, qv_item,
    run_clops, run_collision_test, run_mirror_benchmark, run_quantum_volume, run_rb,
    run_volumetric, shadow_estimate, xeb_verify_device,
)
from .randgen import qv_model_circuit
from .rng import SeedStream
# Not called here since re-execution goes through `qv_item`, but bench/tracing.py wraps this binding.
from .statevector import sample_counts  # noqa: F401
from .transpile import TranspileConfig, run_pipeline

REPORT_SCHEMA = "report/1"
RUNCFG_SCHEMA = "runcfg/1"

AGG_TOL = 1e-9
FIT_TOL = 1e-7

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
        _check_shape("run-config", doc, RUNCFG_SCHEMA, (
            ("device", (str, Mapping), None), ("protocols", list, []),
            ("verification", Mapping, {}), ("noise", Mapping, {}), ("peak", (Mapping, type(None)), None),
            ("master_seed", int, 0), ("repetitions", int, 1), ("out", (str, type(None)), None)))
        if doc.get("repetitions", 1) < 1:
            raise ValidationError(f"run-config 'repetitions' must be at least 1: {doc['repetitions']}")
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
            peak=TranspileConfig.from_json(
                {**peak, "mode": "peak", "seed": _number("peak", peak, "seed", int, 0)})
            if peak else None,
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


def _check_shape(what: str, doc, schema: str, fields) -> None:
    """ValidationError unless `doc` is a JSON object of `schema` whose (key, types, default)
    `fields` have the right types."""
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{what} is not a JSON object")
    if doc.get("schema") != schema:
        raise ValidationError(f"unexpected {what} schema {doc.get('schema')!r}")
    for key, kinds, default in fields:
        if not isinstance(doc.get(key, default), kinds):
            raise ValidationError(f"{what} {key!r} has the wrong type: {doc.get(key)!r}")


def _number(section: str, spec: Mapping, key: str, kind: type, default=None):
    """`kind(spec[key])`, or `kind(default)` without the key; ValidationError if not a number."""
    try:
        return kind(spec.get(key, default))
    except (TypeError, ValueError):
        raise ValidationError(
            f"run-config {section}.{key} is not a number: {spec[key]!r}") from None


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
            readout_error=(_number("noise", spec, "readout", float, 0.0),),
            default_1q=_number("noise", spec, "p1", float, 0.0),
            default_2q=_number("noise", spec, "p2", float, 0.0),
            drift=model.drift,
        )
    if "scale" in spec:
        model = model.scaled(_number("noise", spec, "scale", float))
    if model.is_trivial:
        return None
    return model


# -- protocol dispatch ---------------------------------------------------------------

@functools.cache
def _ghz(width: int) -> Circuit:
    return Circuit.from_gates(width, [H(0)] + [CX(q, q + 1) for q in range(width - 1)])


def _run_shadows(e: dict, device, noise, stream: SeedStream, transpile) -> ShadowsResult:
    width = int(e.get("width", 3))
    observables = [PauliString(width, s) for s in e.get("observables", ["Z" * width])]
    snapshots = int(e.get("snapshots", 2000))
    estimates = shadow_estimate(_ghz(width), observables, snapshots, stream)
    return ShadowsResult("ghz", width, snapshots, estimates, stream.as_record())


@dataclass(frozen=True)
class ProtocolSpec:
    """What the suite, the renderer and the verifier know about one protocol.

    `run(entry, device, noise, stream, transpile)` runs a runcfg protocol entry
    with its defaults. It looks protocols up in this module at call time, so
    the benchmark's tracer, which replaces those names, sees every suite call.
    `result.from_record` rebuilds a result from a record's raw fields alone.
    """

    result: type
    headline: str
    #: descriptor name, or names keyed by the entry's "metric"
    descriptor: str | Mapping[str, str]
    run: Callable | None = None
    #: the headline value of a record; None reads aggregate[headline]
    value: Callable[[dict], float] | None = None
    #: a record is rebuilt only from items (if needed) with this key, and these aggregates
    needs_items: bool = True
    raw_item_key: str | None = None
    raw_aggregate: tuple[str, ...] = ()
    #: the aggregate comes from an iterative fit: it is compared to FIT_TOL, and
    #: only in a report of this version, since another version's fit may end elsewhere
    fitted_aggregate: bool = False


PROTOCOLS: dict[str, ProtocolSpec] = {
    "quantum_volume": ProtocolSpec(
        QvResult, "quantum_volume", "quantum_volume", raw_item_key="hogs",
        run=lambda e, device, noise, stream, transpile: run_quantum_volume(
            device, noise, int(e.get("max_width", 3)), int(e.get("circuits_per_width", 100)),
            int(e.get("shots", 1000)), stream, strict=bool(e.get("strict", True)),
            transpile=transpile)),
    "volumetric": ProtocolSpec(
        VolumetricTable, "mean_value",
        {"hog": "heavy_output_generation", "hellinger": "hellinger_distance",
         "l1": "l1_distance", "xeb": "xeb"},
        value=lambda record: float(np.mean([r["value"] for r in record["items"]])),
        needs_items=False,
        run=lambda e, device, noise, stream, transpile: run_volumetric(
            device, noise, e.get("shape", "square"), list(e.get("widths", [2, 3])),
            e.get("metric", "hog"), int(e.get("shots", 1000)), stream, transpile=transpile)),
    "rb": ProtocolSpec(
        RbResult, "error_per_clifford", "error_per_clifford", raw_item_key="survivals",
        fitted_aggregate=True,
        run=lambda e, device, noise, stream, transpile: run_rb(
            device, noise, int(e.get("n_qubits", 1)), list(e.get("lengths", [2, 4, 8, 16, 32])),
            int(e.get("sequences_per_length", 20)), int(e.get("shots", 200)), stream)),
    "mirror": ProtocolSpec(
        MirrorResult, "mean_success", "mean_success",
        run=lambda e, device, noise, stream, transpile: run_mirror_benchmark(
            device, noise, list(e.get("widths", [3])), list(e.get("depths", [4])),
            int(e.get("randomizations", 5)), int(e.get("shots", 200)), stream)),
    "clops": ProtocolSpec(
        ClopsResult, "layers_per_second", "clops", needs_items=False,
        raw_aggregate=("layers_executed", "elapsed_seconds", "layers_per_second"),
        run=lambda e, device, noise, stream, transpile: run_clops(
            device, noise, int(e.get("width", 3)), int(e.get("layers_total", 30)),
            int(e.get("batch", 5)), stream, shots=int(e.get("shots", 100)),
            transpile=transpile)),
    "collision": ProtocolSpec(
        CollisionTestResult, "delta_hat", "collision_volume",
        run=lambda e, device, noise, stream, transpile: run_collision_test(
            device, noise, int(e.get("n_qubits", 8)), stream, transpile=transpile)),
    "shadows": ProtocolSpec(
        ShadowsResult, "first_estimate", "first_estimate", run=_run_shadows,
        value=lambda record: float(record["items"][0]["estimate"])),
    # the suite's device-verification gate; not a runcfg protocol entry
    "xeb_verify": ProtocolSpec(XebVerifyResult, "alpha_mean", "xeb"),
}


def _run_protocol(entry: dict, device: DeviceModel, noise: NoiseModel | None,
                  stream: SeedStream, transpile: TranspileConfig | None) -> dict:
    spec = PROTOCOLS.get(entry["name"])
    if spec is None or spec.run is None:
        raise ValidationError(f"unknown protocol {entry['name']!r}")
    return spec.run(entry, device, noise, stream, transpile).to_record()


def headline_value(record: dict) -> tuple[str, float]:
    """(metric name, value) summarizing one protocol record."""
    spec = PROTOCOLS[record["protocol"]]
    value = spec.value(record) if spec.value else float(record["aggregate"][spec.headline])
    return spec.headline, value


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
        _check_shape("report", doc, REPORT_SCHEMA, (
            ("header", Mapping, {}), ("verification", (Mapping, type(None)), None),
            ("base", (list, type(None)), None), ("peak", (list, type(None)), None)))
        for mode in ("base", "peak"):
            if not all(isinstance(record, Mapping) for record in doc.get(mode) or []):
                raise ValidationError(f"report {mode!r} holds a record that is not a JSON object")
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
        _number("verification", ver, "n", int, default_verification_width(device)),
        _number("verification", ver, "circuits", int, 10),
        _number("verification", ver, "shots", int, 5000),
        master.child(0),
        threshold=_number("verification", ver, "threshold", float, 0.9),
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

    # one aggregate per config entry, pooled over repetitions only
    for mode, _ in modes:
        for i, entry in enumerate(config.protocols):
            values = [headline_value(r)[1] for r in doc[mode][i::len(config.protocols)]
                      if "error" not in r]
            if values:
                spec = PROTOCOLS[entry["name"]]
                descriptor = spec.descriptor if isinstance(spec.descriptor, str) else \
                    spec.descriptor.get(entry.get("metric", "hog"), spec.descriptor["hog"])
                mean = float(np.mean(values))
                std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
                doc["aggregates"][f"{mode}:{i}:{entry['name']}"] = {
                    "metric": spec.headline,
                    "values": values,
                    "mean": mean,
                    "std": std,
                    "record": metric_record(descriptor, mean,
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
    try:
        return _render_text(report.doc)
    except KeyError as exc:
        raise ValidationError(f"report cannot be rendered as text: no {exc.args[0]!r} key") from None


def _render_text(doc: dict) -> bytes:
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
    if ver is None:
        lines.append(" Device verification (XEB): not recorded")
    else:
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
                lines.append(f"   {key.rsplit(':', 1)[1]:<16}{'avg':<5}{agg['metric']:<22}"
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
        return asdict(self)


_MISSING = object()


def _differing_paths(stored, rebuilt, path: str, tol: float):
    """Paths of the fields where `stored` differs from `rebuilt`, numbers by more than `tol`."""
    if isinstance(stored, Mapping) and isinstance(rebuilt, Mapping):
        for key in sorted(set(stored) | set(rebuilt)):
            yield from _differing_paths(stored.get(key, _MISSING), rebuilt.get(key, _MISSING),
                                        f"{path}.{key}", tol)
    elif isinstance(stored, list) and isinstance(rebuilt, list) and len(stored) == len(rebuilt):
        for i, (a, b) in enumerate(zip(stored, rebuilt)):
            yield from _differing_paths(a, b, f"{path}[{i}]", tol)
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (stored, rebuilt)):
        if not abs(stored - rebuilt) <= tol:
            yield path
    elif type(stored) is not type(rebuilt) or stored != rebuilt:
        yield path


def _record_name(record: dict) -> str:
    return f"{record.get('mode', '?')}:{record.get('protocol')}#rep{record.get('repetition', '?')}"


def _verify_record(record: dict, problems: list[str], same_version: bool,
                   uncompared: list[str]) -> bool:
    """Rebuild a protocol record from its raw fields with the code that built it,
    and report every field that differs.

    A fitted aggregate of another version's report is not compared; the
    record's name goes to `uncompared` instead. Returns False when the
    record holds too little raw data to rebuild from.
    """
    spec = PROTOCOLS.get(record.get("protocol"))
    items = record.get("items")
    if spec is None or items is None or (spec.needs_items and not items):
        return False
    if spec.raw_item_key is not None and any(spec.raw_item_key not in it for it in items):
        return False
    if any(key not in record.get("aggregate", {}) for key in spec.raw_aggregate):
        return False
    where = _record_name(record)
    try:
        rebuilt = spec.result.from_record(record).to_record()
    except Exception as exc:  # an edited record may not rebuild at all
        problems.append(f"{where}: record cannot be rebuilt ({type(exc).__name__}: {exc})")
        return True
    # keys the suite adds to a record (mode, repetition, ...) are not the result's
    for key, value in rebuilt.items():
        fitted = key == "aggregate" and spec.fitted_aggregate
        if fitted and not same_version:
            uncompared.append(where)
            continue
        tol = FIT_TOL if fitted else AGG_TOL
        for path in _differing_paths(record.get(key, _MISSING), value, key, tol):
            problems.append(f"{where}: {path} mismatch")
    return True


def self_verify_report(report: Report, reexecute: int = 0) -> VerifyOutcome:
    """Rebuild every record from its raw fields and compare every derived field.

    `reexecute > 0` additionally regenerates that many quantum-volume circuits
    from their seed ledger and compares freshly sampled counts hash-exactly.
    Seeded bits are reproducible only within one harness version, so a report
    made by another version is not re-executed, and its fitted RB aggregates
    are not compared. Missing raw records, a skipped re-execution or an
    uncompared aggregate yield "unverifiable" rather than failure.
    """
    doc = report.doc
    version = doc.get("header", {}).get("harness_version")
    same_version = version == __version__
    versions = f"report made by qbench {version}, this is qbench {__version__}"
    problems: list[str] = []
    verified_any = False
    unverifiable: list[str] = []
    uncompared: list[str] = []

    if doc.get("peak") and not doc.get("base"):
        problems.append("report contains a peak table without the mandatory base table")

    records = [doc["verification"]] if doc.get("verification") else []
    for mode in ("base", "peak"):
        records.extend(doc.get(mode) or [])
    for record in records:
        if _verify_record(record, problems, same_version, uncompared):
            verified_any = True
        else:
            unverifiable.append(str(record.get("protocol")))

    skipped: list[str] = []
    if uncompared:
        skipped.append(f"fitted aggregates not compared ({', '.join(uncompared)}): {versions}")
    if reexecute > 0:
        if same_version:
            problems.extend(_reexecute_check(doc, reexecute))
        else:
            skipped.append(f"re-execution skipped: {versions}")

    if problems:
        return VerifyOutcome(False, "discrepancies", problems)
    if skipped:
        return VerifyOutcome(False, "unverifiable", skipped)
    if not verified_any:
        return VerifyOutcome(False, "unverifiable",
                             [f"no recomputable records (skipped: {sorted(set(unverifiable))})"])
    return VerifyOutcome(True, "ok", [])


def _reexecute_check(doc: dict, count: int) -> list[str]:
    """Re-run circuit 0 of up to `count` base quantum-volume widths and compare
    sample hashes. Records that are not QV records with items are skipped; a
    header or QV record that cannot be re-executed is a problem."""
    header = doc.get("header", {})
    try:
        device = DeviceModel.from_json(header["device"])
        noise = build_noise(RunConfig(device=device, protocols=[], noise=header.get("noise", {})))
    except Exception as exc:  # an edited header may not describe a device at all
        return [f"re-execution: header cannot be read ({type(exc).__name__}: {exc})"]
    problems: list[str] = []
    done = 0
    for record in doc.get("base") or []:
        if record.get("protocol") != "quantum_volume" or "error" in record \
                or not record.get("items") or done >= count:
            continue
        try:
            stream = SeedStream.from_record(record["seeds"])
            shots = int(record["config"]["shots"])
            for it in record["items"]:
                if done >= count:
                    break
                if not it.get("sample_hashes"):
                    continue
                _, samples = qv_item(device, noise, it["width"], 0, shots, stream)
                if counts_digest(samples) != it["sample_hashes"][0]:
                    problems.append(f"re-execution: width {it['width']} circuit 0 sample hash mismatch")
                done += 1
        except Exception as exc:  # an edited record may not re-execute at all
            problems.append(f"re-execution: {_record_name(record)} cannot be re-executed "
                            f"({type(exc).__name__}: {exc})")
    return problems
