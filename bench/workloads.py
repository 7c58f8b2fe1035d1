"""The benchmark's four seeded workloads.

Each workload builds its inputs from the workload seed, runs one item per
call of ``run_item`` (one call of a qbench protocol entry point, or of the
CLI, on the item's own seed child), turns a result into a JSON record
outside the timed section, and checks records for correctness. qbench
receives only the generated inputs.

Item code reaches qbench through module attributes (``protocols.run_rb``
style), so the traced run sees every call through the tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from qbench import cli, protocols
from qbench.circuits import GateKind, measure_all
from qbench.device import DeviceModel
from qbench.noise import DriftSchedule, NoiseModel
from qbench.randgen import layered_model_circuit, qv_model_circuit
from qbench.report import canonical_json, headline_value, strip_volatile
from qbench.rng import SeedStream
from qbench.statevector import ideal_distribution, sample_counts
from qbench.transpile import TranspileConfig, run_pipeline

#: criterion 7's tolerance between a transpiled circuit and its source
EQUIVALENCE_TOL = 1e-8


def _transpile_error(source, device) -> float:
    """Largest difference between the ideal distributions of `source` and its lowering."""
    executed, _ = run_pipeline(measure_all(source), device, TranspileConfig())
    return float(np.max(np.abs(ideal_distribution(source).probs
                                - ideal_distribution(executed).probs)))


class Workload:
    """A fixed, seeded set of `items`; subclasses define the item and its checks."""

    name = ""
    why = ""
    items = 1

    def record(self, i: int, result) -> dict:
        return result.to_record()

    def close(self) -> None:
        pass


class QvNoisy(Workload):
    name = "qv_noisy"
    why = ("noisy QV-5 (p2=0.05, 1000 shots): batched trajectory kernel and Pauli "
           "injection; routing, probe, tableau and report stay idle")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.device = DeviceModel.complete(5)
        self.noise = NoiseModel.uniform(p2=0.05)
        self.max_width = 3 if smoke else 5
        self.shots = 50 if smoke else 1000
        self.items = 2 if smoke else 4
        self.streams = [SeedStream(seed, (i,)) for i in range(self.items)]

    def run_item(self, i: int):
        return protocols.run_quantum_volume(self.device, self.noise, self.max_width, 2,
                                            self.shots, self.streams[i], strict=False)

    def headlines(self, record: dict) -> dict:
        return {"quantum_volume": record["aggregate"]["quantum_volume"],
                "mean_hog": {str(it["width"]): it["mean_hog"] for it in record["items"]}}

    def checks(self, records: dict[int, dict]) -> list[tuple[int | None, str]]:
        """Item 0: each width's first circuit is lowered without changing its ideal
        distribution, and re-sampling it reproduces the timed run's counts digest."""
        problems = []
        for it in records[0]["items"]:
            width = it["width"]
            stream = self.streams[0].child(width, 0)
            circuit = qv_model_circuit(width, stream.child(0))
            err = _transpile_error(circuit, self.device)
            if err > EQUIVALENCE_TOL:
                problems.append((0, f"width {width}: lowering moved the ideal distribution by {err:.1e}"))
            executed, _ = run_pipeline(measure_all(circuit), self.device, TranspileConfig())
            samples = sample_counts(executed, self.shots, self.noise, stream.child(1).generator())
            if sum(samples.counts.values()) != self.shots:
                problems.append((0, f"width {width}: re-sampled set does not hold {self.shots} shots"))
            if protocols.counts_digest(samples) != it["sample_hashes"][0]:
                problems.append((0, f"width {width}: re-sampled counts differ from the timed run"))
        return problems


class CollisionWide(Workload):
    name = "collision_wide"
    why = ("noiseless 14-qubit collision test: one 16384-amplitude state over ~1960 "
           "lowered gates, KAK-heavy transpile, no noise injection")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.n = 8 if smoke else 14
        self.device = DeviceModel.complete(self.n)
        self.items = 2 if smoke else 4
        self.streams = [SeedStream(seed, (i,)) for i in range(self.items)]

    def run_item(self, i: int):
        return protocols.run_collision_test(self.device, None, self.n, self.streams[i])

    def headlines(self, record: dict) -> dict:
        return {"delta_hat": record["aggregate"]["delta_hat"],
                "passed": record["aggregate"]["passed"]}

    def checks(self, records: dict[int, dict]) -> list[tuple[int | None, str]]:
        """The 2^(n/2+5) shot rule on every item, a Porter-Thomas mean delta over the
        item set, and an exact lowering of item 0's circuit."""
        problems = []
        rule = int(round(2.0 ** (self.n / 2.0 + 5)))
        for i, rec in records.items():
            if rec["config"]["shots"] != rule or rec["items"][0]["shots"] != rule:
                problems.append((i, f"shot count {rec['config']['shots']} breaks the 2^(n/2+5) rule ({rule})"))
        mean_delta = float(np.mean([rec["aggregate"]["delta_hat"] for rec in records.values()]))
        if not 0.8 <= mean_delta <= 1.2:
            problems.append((None, f"mean delta_hat {mean_delta:.3f} outside [0.8, 1.2]"))
        circuit = layered_model_circuit(self.n, self.n, self.streams[0].child(0))
        err = _transpile_error(circuit, self.device)
        if err > EQUIVALENCE_TOL:
            problems.append((0, f"lowering moved the ideal distribution by {err:.1e}"))
        return problems


class MirrorNoisy(Workload):
    name = "mirror_noisy"
    why = ("noisy mirror circuits at widths 20 and 50: per-shot tableau loop and Clifford "
           "generation only; statevector, transpile and kak stay idle")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.device = DeviceModel.complete(6 if smoke else 50)
        self.noise = NoiseModel.uniform(p1=0.001, p2=0.005)
        # Widths stay above 2: the Pauli-layer channel only biases wider circuits.
        self.widths = [3, 6] if smoke else [20, 50]
        self.depths = [3] if smoke else [10]
        self.shots = 20 if smoke else 200
        self.streams = [SeedStream(seed, (0,))]

    def _run(self, noise, i: int):
        return protocols.run_mirror_benchmark(self.device, noise, self.widths, self.depths, 1,
                                              self.shots, self.streams[i])

    def run_item(self, i: int):
        return self._run(self.noise, i)

    def headlines(self, record: dict) -> dict:
        # Noisy success has no exact oracle: recorded, never checked.
        return {"mean_success": record["aggregate"]["mean_success"],
                "success": {str(it["width"]): it["success"] for it in record["items"]}}

    def checks(self, records: dict[int, dict]) -> list[tuple[int | None, str]]:
        """The noiseless control of every base succeeds with probability exactly 1."""
        problems = []
        for i, rec in records.items():
            control = self._run(None, i).to_record()
            for noisy, clean in zip(rec["items"], control["items"]):
                if clean["success"] != 1.0:
                    problems.append((i, f"noiseless control at width {clean['width']} "
                                        f"succeeded with {clean['success']}"))
                if clean["expected"] != noisy["expected"]:
                    problems.append((i, f"control at width {clean['width']} expects another outcome"))
        return problems


def suite_device() -> DeviceModel:
    """Linear 6-qubit device with an error book, per-qubit readout error and drift."""
    return DeviceModel.linear(
        6, native_gates=(GateKind.RZ, GateKind.RX, GateKind.CX),
        gate_error={GateKind.RZ: 0.0, GateKind.RX: 0.001, GateKind.CX: 0.01},
        readout_error=(0.01, 0.015, 0.02, 0.01, 0.015, 0.02),
        drift=DriftSchedule((0.0, 0.001, 0.002, 0.001)), name="linear6-drift")


def suite_config(smoke: bool) -> dict:
    """runcfg/1 document running every sampling protocol under base and peak.

    Verification uses width 2: an even width pairs every qubit in every layer,
    so no outcome has ideal probability zero (XEB diverges on those).
    """
    if smoke:
        protocols_ = [
            {"name": "quantum_volume", "max_width": 2, "circuits_per_width": 2, "shots": 50,
             "strict": False},
            {"name": "volumetric", "shape": "square", "widths": [2], "metric": "hog", "shots": 50},
            {"name": "rb", "n_qubits": 2, "lengths": [1, 2], "sequences_per_length": 1,
             "shots": 20},
            {"name": "mirror", "widths": [3], "depths": [2], "randomizations": 1, "shots": 20},
            {"name": "collision", "n_qubits": 3},
            {"name": "shadows", "width": 3, "snapshots": 20},
        ]
        verification = {"n": 2, "circuits": 2, "shots": 500, "threshold": 0.05}
    else:
        protocols_ = [
            {"name": "quantum_volume", "max_width": 3, "circuits_per_width": 3, "shots": 200,
             "strict": False},
            {"name": "volumetric", "shape": "square", "widths": [2, 3], "metric": "hog",
             "shots": 200},
            {"name": "rb", "n_qubits": 2, "lengths": [1, 2, 4], "sequences_per_length": 2,
             "shots": 50},
            {"name": "mirror", "widths": [3, 4], "depths": [3], "randomizations": 1, "shots": 50},
            {"name": "collision", "n_qubits": 4},
            {"name": "shadows", "width": 3, "snapshots": 200},
        ]
        verification = {"n": 2, "circuits": 3, "shots": 500, "threshold": 0.05}
    return {
        "schema": "runcfg/1",
        "device": suite_device().to_json(),
        "protocols": protocols_,
        "verification": verification,
        "noise": {"use_device_errors": True},
        "peak": {"passes": ["validate", "route", "decompose", "cancel_inverses", "validate"]},
        "master_seed": 0,
    }


class SuitePeak(Workload):
    name = "suite_peak"
    why = ("qbench run + check --reexecute + report via cli.main: the only workload with "
           "routing, drift, RB's inline loop, 2q Clifford tables, the peak probe and report")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "run.json"
        self.config_path.write_text(json.dumps(suite_config(smoke), indent=1))
        self.seeds = [int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])
                      for i in range(self.items)]

    def run_item(self, i: int) -> dict:
        report = self.workdir / f"report-{i}.json"
        text = self.workdir / f"report-{i}.txt"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            run_exit = cli.main(["--seed", str(self.seeds[i]), "--out", str(report),
                                 "run", "--config", str(self.config_path)])
            mark = stdout.tell()
            check_exit = cli.main(["check", "--report", str(report), "--reexecute", "2"])
            check_out = stdout.getvalue()[mark:]
            report_exit = cli.main(["--out", str(text), "report", "--in", str(report),
                                    "--format", "text"])
        return {"exits": [run_exit, check_exit, report_exit], "check": check_out}

    def record(self, i: int, result: dict) -> dict:
        doc = json.loads((self.workdir / f"report-{i}.json").read_text())
        try:
            check = json.loads(result["check"])
        except json.JSONDecodeError:
            check = {"status": "unreadable", "output": result["check"]}
        return {"exits": result["exits"], "check": check, "report": strip_volatile(doc)}

    def headlines(self, record: dict) -> dict:
        doc = record["report"]
        values = {"verification_alpha": doc["verification"]["aggregate"]["alpha_mean"]}
        for mode in ("base", "peak"):
            for rec in doc.get(mode) or []:
                if "error" not in rec:
                    values[f"{mode}:{rec['protocol']}"] = headline_value(rec)[1]
        return values

    def checks(self, records: dict[int, dict]) -> list[tuple[int | None, str]]:
        """Verification passes, no protocol record carries an error, re-execution
        reports ok, and every CLI call exits 0."""
        problems = []
        for i, rec in records.items():
            doc = rec["report"]
            if rec["exits"] != [0, 0, 0]:
                problems.append((i, f"run/check/report exit codes {rec['exits']}"))
            if rec["check"].get("status") != "ok":
                problems.append((i, f"check --reexecute status {rec['check'].get('status')!r}"))
            if not doc["verification"]["passed"]:
                problems.append((i, "device verification failed"))
            for mode in ("base", "peak"):
                for r in doc.get(mode) or []:
                    if "error" in r:
                        problems.append((i, f"{mode}:{r['protocol']} raised {r['error']}"))
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (QvNoisy, CollisionWide, MirrorNoisy, SuitePeak)}


def digest(record: dict) -> str:
    """Stable hash of an item's output record."""
    return hashlib.sha256(canonical_json(record).encode()).hexdigest()
