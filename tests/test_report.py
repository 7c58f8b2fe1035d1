import ast
import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qbench
import qbench.protocols
import qbench.report
from qbench.cli import main
from qbench.device import DeviceModel
from qbench.report import (
    Report, RunConfig, canonical_json, headline_value, render_report, run_benchmark_suite,
    self_verify_report, strip_volatile,
)


def make_config(tmp_path=None, *, peak=False, noise=None, seed=21, reps=1):
    doc = {
        "schema": "runcfg/1",
        "device": DeviceModel.complete(4).to_json(),
        "protocols": [
            {"name": "quantum_volume", "max_width": 3, "circuits_per_width": 8,
             "shots": 150, "strict": False},
            {"name": "mirror", "widths": [4], "depths": [4], "randomizations": 2, "shots": 80},
            {"name": "rb", "n_qubits": 1, "lengths": [2, 4, 8], "sequences_per_length": 4,
             "shots": 60},
            {"name": "collision", "n_qubits": 4},
            {"name": "clops", "width": 3, "layers_total": 6, "batch": 2, "shots": 30},
            {"name": "shadows", "width": 3, "observables": ["ZZI"], "snapshots": 400},
        ],
        "verification": {"n": 4, "circuits": 5, "shots": 3000, "threshold": 0.7},
        "noise": noise or {"ideal": True},
        "master_seed": seed,
        "repetitions": reps,
    }
    if peak:
        doc["peak"] = {"passes": ["validate", "route", "decompose",
                                  "cancel_inverses", "validate"]}
    return RunConfig.from_json(doc)


VOLUMETRIC = {"name": "volumetric", "widths": [2, 3], "metric": "hog", "shots": 100}


@pytest.fixture(scope="module")
def report():
    return run_benchmark_suite(make_config())


@pytest.fixture(scope="module")
def full_report():
    """make_config's suite plus a volumetric grid: every protocol record kind."""
    config = make_config()
    config.protocols.append(VOLUMETRIC)
    return run_benchmark_suite(config)


def _record(doc, protocol):
    if protocol == "xeb_verify":
        return doc["verification"]
    return next(r for r in doc["base"] if r["protocol"] == protocol)


def _only(doc, protocol):
    """Copy of `doc` in which only `protocol`'s record keeps its raw items."""
    doc = copy.deepcopy(doc)
    for record in [doc["verification"], *doc["base"]]:
        if record["protocol"] != protocol:
            record["items"] = None
    return doc


#: (record, path to a derived field, edit); "flip" negates a flag
TAMPERS = [
    ("quantum_volume", ("config", "conformant"), "flip"),
    ("quantum_volume", ("items", 0, "circuits"), 1),
    ("quantum_volume", ("items", 0, "mean_hog"), 1e-6),
    ("quantum_volume", ("items", 1, "lower_bound"), 1e-6),
    ("quantum_volume", ("items", 0, "passed"), "flip"),
    ("quantum_volume", ("aggregate", "largest_passing_width"), 1),
    ("quantum_volume", ("aggregate", "quantum_volume"), 1),
    ("volumetric", ("items", 0, "passed"), "flip"),
    ("volumetric", ("aggregate", "rows"), 1),
    ("rb", ("items", 0, "mean"), 1e-8),
    ("rb", ("aggregate", "decay"), 1e-6),
    ("rb", ("aggregate", "error_per_clifford"), 1e-6),
    ("mirror", ("items", 0, "polarization"), 1e-6),
    ("mirror", ("aggregate", "mean_success"), 1e-6),
    ("mirror", ("aggregate", "mean_polarization"), 1e-6),
    ("collision", ("items", 0, "collisions"), 1),
    ("collision", ("items", 0, "delta_hat"), 1e-6),
    ("collision", ("aggregate", "passed"), "flip"),
    ("xeb_verify", ("aggregate", "alpha_mean"), 1e-6),
    ("xeb_verify", ("aggregate", "stderr"), 1e-6),
    ("xeb_verify", ("aggregate", "verified"), "flip"),
    ("clops", ("aggregate", "layers_per_second"), 1e-3),
    ("shadows", ("items", 0, "variance_bound"), 1e-6),
    ("shadows", ("aggregate", "estimates", "+ZZI"), 1e-6),
]


class TestSuite:
    def test_status_ok_and_base_present(self, report):
        assert report.doc["status"] == "ok"
        assert report.doc["verification"]["passed"]
        assert len(report.doc["base"]) == 6
        assert report.doc["peak"] is None

    def test_reproducible_modulo_volatile_fields(self, report):
        again = run_benchmark_suite(make_config())
        assert canonical_json(strip_volatile(report.doc)) == \
            canonical_json(strip_volatile(again.doc))

    def test_different_seed_changes_results(self, report):
        other = run_benchmark_suite(make_config(seed=22))
        assert canonical_json(strip_volatile(report.doc)) != \
            canonical_json(strip_volatile(other.doc))

    def test_repetitions_recorded_with_mean_and_std(self):
        rep = run_benchmark_suite(make_config(reps=2))
        assert len(rep.doc["base"]) == 12
        agg = rep.doc["aggregates"]["base:0:quantum_volume"]
        assert len(agg["values"]) == 2
        assert "mean" in agg and "std" in agg

    def test_protocol_error_recorded_without_aborting_others(self):
        config = make_config()
        config.protocols = [
            {"name": "rb", "n_qubits": 1, "lengths": [4, 4], "sequences_per_length": 2,
             "shots": 20},  # duplicate lengths: the protocol raises
            {"name": "mirror", "widths": [4], "depths": [3], "randomizations": 2,
             "shots": 40},
        ]
        rep = run_benchmark_suite(config)
        assert rep.doc["status"] == "ok"
        errors = [r for r in rep.doc["base"] if "error" in r]
        assert len(errors) == 1 and errors[0]["protocol"] == "rb"
        assert any(r["protocol"] == "mirror" and "error" not in r for r in rep.doc["base"])
        assert "base:0:rb" not in rep.doc["aggregates"]
        text = render_report(rep, "text").decode()
        assert "error" in text
        outcome = self_verify_report(rep)
        assert outcome.ok  # the mirror record is still recomputable

    def test_entries_of_one_protocol_get_one_aggregate_each(self):
        config = make_config(reps=2)
        config.protocols = [{**VOLUMETRIC, "widths": [2], "metric": "hog", "shots": 50},
                            {**VOLUMETRIC, "widths": [2], "metric": "l1", "shots": 50}]
        rep = run_benchmark_suite(config)
        aggs = rep.doc["aggregates"]
        assert sorted(aggs) == ["base:0:volumetric", "base:1:volumetric"]
        assert aggs["base:0:volumetric"]["record"]["name"] == "heavy_output_generation"
        assert aggs["base:1:volumetric"]["record"]["name"] == "l1_distance"
        for i, metric in enumerate(("hog", "l1")):
            own = [r for r in rep.doc["base"] if r["items"][0]["metric"] == metric]
            assert len(own) == 2
            assert aggs[f"base:{i}:volumetric"]["values"] == [headline_value(r)[1] for r in own]

    def test_empty_observable_list_recorded_as_protocol_error(self):
        config = make_config()
        config.protocols = [{"name": "shadows", "width": 3, "observables": [], "snapshots": 10}]
        rep = run_benchmark_suite(config)
        [record] = rep.doc["base"]
        assert record["error"].startswith("ValidationError")
        assert "base:0:shadows" not in rep.doc["aggregates"]

    def test_verification_failure_gates_protocols(self):
        config = make_config(noise={"p1": 1.0, "p2": 1.0, "readout": 0.5})
        rep = run_benchmark_suite(config)
        assert not rep.doc["verification"]["passed"]
        assert rep.doc["base"] is None
        assert rep.doc["peak"] is None
        assert "verification failed" in rep.doc["status"]

    def test_peak_runs_after_base(self):
        rep = run_benchmark_suite(make_config(peak=True))
        assert rep.doc["base"] and rep.doc["peak"]
        assert {r["mode"] for r in rep.doc["peak"]} == {"peak"}
        assert "peak" in rep.doc["pass_logs"]

    def test_canonical_json_roundtrip_is_byte_identical(self, report):
        text = report.canonical()
        assert Report.from_json(json.loads(text)).canonical() == text

    def test_aggregates_carry_metric_records_with_descriptors(self, report):
        agg = report.doc["aggregates"]["base:0:quantum_volume"]
        assert agg["record"]["name"] == "quantum_volume"
        assert agg["record"]["value"] == agg["mean"]
        assert agg["record"]["descriptor"]["performance"] == ["scalability", "quality"]
        ver = report.doc["verification"]["record"]
        assert ver["name"] == "xeb" and "stderr" in ver


class TestRender:
    def test_text_contains_one_line_per_protocol(self, report):
        text = render_report(report, "text").decode()
        for record in report.doc["base"]:
            assert text.count(f"\n   {record['protocol']:<16}0    ") == 1

    def test_text_omits_peak_without_peak_results(self, report):
        assert "Peak results" not in render_report(report, "text").decode()

    def test_text_includes_peak_when_present(self):
        rep = run_benchmark_suite(make_config(peak=True))
        assert "Peak results" in render_report(rep, "text").decode()

    def test_json_format_matches_canonical(self, report):
        assert render_report(report, "json") == (report.canonical() + "\n").encode()


class TestSelfVerify:
    def test_untampered_report_ok(self, report):
        outcome = self_verify_report(report)
        assert outcome.ok and outcome.status == "ok"

    def test_small_aggregate_perturbation_detected(self, report):
        doc = copy.deepcopy(report.doc)
        for record in doc["base"]:
            if record["protocol"] == "rb":
                record["aggregate"]["decay"] += 1e-3
        outcome = self_verify_report(Report(doc))
        assert not outcome.ok
        assert any("decay" in d for d in outcome.discrepancies)

    def test_perturbed_item_detected(self, report):
        doc = copy.deepcopy(report.doc)
        for record in doc["base"]:
            if record["protocol"] == "quantum_volume":
                record["items"][0]["mean_hog"] += 1e-3
        outcome = self_verify_report(Report(doc))
        assert not outcome.ok

    def test_stripped_records_are_unverifiable(self, report):
        doc = copy.deepcopy(report.doc)
        doc["verification"]["items"] = None
        for record in doc["base"]:
            record["items"] = None
        outcome = self_verify_report(Report(doc))
        assert outcome.status == "unverifiable"
        assert not outcome.ok

    @pytest.mark.parametrize("protocol, path, edit", TAMPERS)
    def test_edited_derived_field_detected(self, full_report, protocol, path, edit):
        doc = copy.deepcopy(full_report.doc)
        target = _record(doc, protocol)
        for key in path[:-1]:
            target = target[key]
        last = path[-1]
        target[last] = (not target[last]) if edit == "flip" else target[last] + edit
        outcome = self_verify_report(Report(doc))
        assert outcome.status == "discrepancies"
        assert any(f"{last} mismatch" in d for d in outcome.discrepancies)

    @pytest.mark.parametrize("protocol", ["quantum_volume", "rb", "mirror", "collision",
                                          "xeb_verify", "shadows"])
    def test_record_without_items_is_unverifiable(self, full_report, protocol):
        doc = _only(full_report.doc, protocol)
        _record(doc, protocol)["items"] = []
        assert self_verify_report(Report(doc)).status == "unverifiable"

    @pytest.mark.parametrize("protocol, key", [("quantum_volume", "hogs"), ("rb", "survivals")])
    def test_items_without_raw_values_are_unverifiable(self, full_report, protocol, key):
        doc = _only(full_report.doc, protocol)
        del _record(doc, protocol)["items"][0][key]
        assert self_verify_report(Report(doc)).status == "unverifiable"

    @pytest.mark.parametrize("key", ["layers_executed", "elapsed_seconds", "layers_per_second"])
    def test_clops_without_aggregate_key_is_unverifiable(self, full_report, key):
        doc = _only(full_report.doc, "clops")
        del _record(doc, "clops")["aggregate"][key]
        assert self_verify_report(Report(doc)).status == "unverifiable"

    def test_empty_volumetric_record_is_verifiable(self, full_report):
        doc = _only(full_report.doc, "volumetric")
        record = _record(doc, "volumetric")
        record["items"] = []
        record["aggregate"]["rows"] = 0
        assert self_verify_report(Report(doc)).status == "ok"

    def test_inconsistent_collision_counts_are_a_discrepancy(self, full_report):
        doc = _only(full_report.doc, "collision")
        _record(doc, "collision")["items"][0]["distinct"] += 1
        assert self_verify_report(Report(doc)).status == "discrepancies"

    def test_peak_without_base_flagged(self, report):
        doc = copy.deepcopy(report.doc)
        doc["peak"] = doc["base"]
        doc["base"] = None
        outcome = self_verify_report(Report(doc))
        assert any("mandatory base" in d for d in outcome.discrepancies)

    def test_reexecution_from_seed_ledger(self, report):
        outcome = self_verify_report(report, reexecute=1)
        assert outcome.ok

    def test_reexecution_detects_tampered_samples(self, report):
        doc = copy.deepcopy(report.doc)
        for record in doc["base"]:
            if record["protocol"] == "quantum_volume":
                record["items"][0]["sample_hashes"] = ["0" * 64]
        outcome = self_verify_report(Report(doc), reexecute=1)
        assert any("sample hash" in d for d in outcome.discrepancies)

    def test_reexecution_runs_the_runners_item_code(self, monkeypatch):
        # A QV item built differently from the stock recipe must still re-execute
        # to the stored hashes: the runner and re-execution share `qv_item`.
        stock = qbench.protocols.qv_model_circuit
        monkeypatch.setattr(qbench.protocols, "qv_model_circuit",
                            lambda width, stream: stock(width, stream.child(7)))
        config = make_config()
        config.protocols = [{"name": "quantum_volume", "max_width": 3, "circuits_per_width": 2,
                             "shots": 50, "strict": False}]
        assert self_verify_report(run_benchmark_suite(config), reexecute=2).status == "ok"


class TestTracerBindings:
    def test_suite_calls_protocols_through_report_names(self, monkeypatch):
        # The benchmark's tracer wraps these names in qbench.report; the suite
        # must look them up there at call time for its protocol spans to appear.
        names = ["run_quantum_volume", "run_volumetric", "run_rb", "run_mirror_benchmark",
                 "run_clops", "run_collision_test", "shadow_estimate", "xeb_verify_device"]
        calls = {name: 0 for name in names}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(qbench.report, name, counting(name, getattr(qbench.report, name)))
        config = make_config()
        config.protocols.append(VOLUMETRIC)
        rep = run_benchmark_suite(config)
        assert all("error" not in r for r in rep.doc["base"])
        assert calls == {name: 1 for name in names}

    def test_every_traced_binding_resolves(self):
        for module, attr, _ in _load_tracing().WRAPS:
            assert callable(getattr(importlib.import_module(f"qbench.{module}"), attr, None)), \
                f"qbench.{module}.{attr}"

    def test_no_module_imports_a_name_it_never_uses(self):
        # An import nothing references is dead unless the tracer wraps that
        # binding, as it does randgen.deterministic_outcome and report.sample_counts.
        traced = {(module, attr) for module, attr, _ in _load_tracing().WRAPS}
        src = Path(qbench.__file__).resolve().parent
        dead = []
        for path in sorted(src.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            dead += [f"{path.stem}:{line} {name}" for name, line in imported.items()
                     if name not in used and (path.stem, name) not in traced]
        assert not dead, dead


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestCli:
    def test_full_cli_cycle(self, tmp_path):
        device_path = tmp_path / "dev.json"
        DeviceModel.complete(4).save(device_path)
        config = {
            "schema": "runcfg/1",
            "device": str(device_path),
            "protocols": [{"name": "mirror", "widths": [3], "depths": [3],
                           "randomizations": 2, "shots": 40}],
            "verification": {"n": 3, "circuits": 4, "shots": 2000, "threshold": 0.7},
            "noise": {"ideal": True},
            "master_seed": 9,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        report_path = tmp_path / "report.json"

        assert main(["--out", str(report_path), "run", "--config", str(config_path)]) == 0
        assert report_path.exists()
        assert main(["report", "--in", str(report_path), "--format", "text"]) == 0
        assert main(["report", "--in", str(report_path), "--format", "json"]) == 0
        assert main(["check", "--report", str(report_path)]) == 0

    def test_exit_codes(self, tmp_path):
        device_path = tmp_path / "dev.json"
        DeviceModel.complete(3).save(device_path)

        # usage error: missing config file
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 1
        # verification failure
        code = main(["--seed", "1", "verify", "--device", str(device_path),
                     "--noise-1q", "1.0", "--noise-2q", "1.0",
                     "--width", "3", "--circuits", "3", "--shots", "1500"])
        assert code == 2
        # self-verification discrepancy
        report = run_benchmark_suite(make_config())
        doc = copy.deepcopy(report.doc)
        doc["base"][0]["aggregate"]["quantum_volume"] += 1
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(canonical_json(doc))
        assert main(["check", "--report", str(bad_path)]) == 3

    def test_verify_default_width_is_even(self, tmp_path, capsys):
        # At width 3 some seeds draw a circuit with zero ideal probabilities.
        device_path = tmp_path / "dev.json"
        DeviceModel.linear(3).save(device_path)
        code = main(["--seed", "2", "verify", "--device", str(device_path),
                     "--circuits", "3", "--shots", "500", "--threshold", "0.3"])
        out = capsys.readouterr()
        assert "zero entries" not in out.err
        assert code == 0
        assert json.loads(out.out)["verified"]

    def test_run_default_verification_width_is_even(self, tmp_path):
        device_path = tmp_path / "dev.json"
        DeviceModel.linear(3).save(device_path)
        config = {
            "schema": "runcfg/1",
            "device": str(device_path),
            "protocols": [{"name": "mirror", "widths": [3], "depths": [2],
                           "randomizations": 1, "shots": 20}],
            "verification": {"circuits": 3, "shots": 500, "threshold": 0.3},
            "noise": {"ideal": True},
            "master_seed": 2,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        report_path = tmp_path / "report.json"
        assert main(["--out", str(report_path), "run", "--config", str(config_path)]) == 0
        assert Report.load(report_path).doc["verification"]["config"]["n_qubits"] == 2

    @pytest.mark.parametrize("entry", [{"shots": 10}, {"name": 3}, "rb"])
    def test_malformed_protocol_entry_is_a_usage_error(self, tmp_path, entry):
        doc = make_config().to_json()
        doc["protocols"] = [entry]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path / "r.json"), "run", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize("key, value", [
        ("verification", [1]), ("noise", [1]), ("noise", "x"), ("peak", [1]),
        ("master_seed", "abc"), ("repetitions", "x"), ("device", 5), ("protocols", 5),
    ])
    def test_malformed_config_field_is_a_usage_error(self, tmp_path, key, value):
        doc = make_config().to_json()
        doc[key] = value
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path / "r.json"), "run", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize("section,key",
                             [("verification", "n"), ("noise", "p1"), ("peak", "seed")])
    def test_non_numeric_config_value_is_a_usage_error(self, tmp_path, capsys, section, key):
        doc = make_config().to_json()
        doc[section] = {key: "x"}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path / "r.json"), "run", "--config", str(config_path)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_peak_passes_that_are_not_a_list_exit_1(self, tmp_path, capsys):
        doc = make_config().to_json()
        doc["peak"] = {"passes": 5}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path / "r.json"), "run", "--config", str(config_path)]) == 1
        assert "peak.passes" in capsys.readouterr().err

    def test_peak_passes_given_as_one_string_exit_1(self, tmp_path, capsys):
        # A string is iterable: it used to be read as the passes 'r', 'o', ...
        doc = make_config().to_json()
        doc["peak"] = {"passes": "route"}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path / "r.json"), "run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "peak.passes" in err
        assert "unknown pass" not in err

    @pytest.mark.parametrize("args, key, value, message", [
        (["--seed", "-1"], None, None, "--seed"),
        ([], "master_seed", -5, "non-negative"),
        (["--repetitions", "0"], None, None, "--repetitions"),
        ([], "repetitions", 0, "at least 1"),
        ([], "out", 5, "'out'"),
    ])
    def test_negative_seed_zero_repetitions_or_bad_out_exit_1(self, tmp_path, monkeypatch, capsys,
                                                              args, key, value, message):
        # No --out: a run that went ahead would write report.json into the working directory.
        monkeypatch.chdir(tmp_path)
        doc = make_config().to_json()
        if key is not None:
            doc[key] = value
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        assert main(args + ["run", "--config", str(config_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_negative_reexecute_count_exit_1(self, tmp_path, report, capsys):
        report_path = tmp_path / "report.json"
        report.save(report_path)
        assert main(["check", "--report", str(report_path), "--reexecute", "-1"]) == 1
        assert "--reexecute" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: [doc],
        lambda doc: {**doc, "base": 5},
        lambda doc: {**doc, "base": ["quantum_volume"]},
        lambda doc: {**doc, "verification": "passed"},
    ], ids=["top-level-list", "base-number", "record-string", "verification-string"])
    @pytest.mark.parametrize("command", [["check", "--report"], ["report", "--format", "text", "--in"]])
    def test_malformed_report_shape_exit_1(self, tmp_path, report, capsys, edit, command):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(edit(report.doc)))
        assert main(command + [str(report_path)]) == 1
        assert "report" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: {k: v for k, v in doc.items() if k != "header"}, "header"),
        (lambda doc: {**doc, "base": [{}] + doc["base"]}, "protocol"),
        (lambda doc: {**doc, "verification": {k: v for k, v in doc["verification"].items()
                                              if k != "aggregate"}}, "aggregate"),
    ], ids=["no-header", "empty-base-record", "verification-without-aggregate"])
    def test_text_report_missing_key_exit_1(self, tmp_path, report, capsys, edit, key):
        # Report.from_json accepts these shapes; rendering them names the missing key.
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(edit(report.doc)))
        assert main(["report", "--format", "text", "--in", str(report_path)]) == 1
        assert repr(key) in capsys.readouterr().err

    def test_text_report_without_verification(self, tmp_path, report, capsys):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps({**report.doc, "verification": None}))
        assert main(["report", "--format", "text", "--in", str(report_path)]) == 0
        assert "Device verification (XEB): not recorded" in capsys.readouterr().out

    def test_reexecution_of_another_versions_report_is_unverifiable(self, tmp_path, capsys):
        doc = make_config().to_json()
        doc["protocols"] = [{"name": "quantum_volume", "max_width": 2, "circuits_per_width": 2,
                             "shots": 20, "strict": False}]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        assert main(["--out", str(report_path), "run", "--config", str(config_path)]) == 0
        check = ["check", "--report", str(report_path)]
        capsys.readouterr()
        assert main(check + ["--reexecute", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

        stored = json.loads(report_path.read_text())
        stored["header"]["harness_version"] = "0.0.1"
        report_path.write_text(json.dumps(stored))
        assert main(check + ["--reexecute", "1"]) == 3
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["status"] == "unverifiable"
        assert "0.0.1" in outcome["discrepancies"][0]
        assert qbench.__version__ in outcome["discrepancies"][0]
        assert main(check) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_rb_fit_of_another_version_is_unverifiable(self, full_report, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        check = ["check", "--report", str(report_path)]
        doc = _only(full_report.doc, "rb")
        _record(doc, "rb")["aggregate"]["decay"] += 1e-6
        Report(doc).save(report_path)
        assert main(check) == 3
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["status"] == "discrepancies"
        assert any("decay mismatch" in d for d in outcome["discrepancies"])

        doc["header"]["harness_version"] = "0.3.0"
        Report(doc).save(report_path)
        assert main(check) == 3
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["status"] == "unverifiable"
        assert "base:rb#rep0" in outcome["discrepancies"][0]
        assert "0.3.0" in outcome["discrepancies"][0]
        assert qbench.__version__ in outcome["discrepancies"][0]

        # the raw-derived fields are still compared
        _record(doc, "rb")["items"][0]["mean"] += 1e-6
        Report(doc).save(report_path)
        assert main(check) == 3
        assert json.loads(capsys.readouterr().out)["status"] == "discrepancies"

    def test_check_reexecute_skips_errored_records(self, tmp_path, capsys):
        doc = make_config().to_json()
        doc["protocols"] = [
            # strict by default: fewer than 100 circuits per width is a protocol error
            {"name": "quantum_volume", "max_width": 2, "circuits_per_width": 4, "shots": 20},
            {"name": "mirror", "widths": [3], "depths": [2], "randomizations": 1, "shots": 20},
        ]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        assert main(["--out", str(report_path), "run", "--config", str(config_path)]) == 0
        assert "error" in json.loads(report_path.read_text())["base"][0]
        assert main(["check", "--report", str(report_path)]) == 0
        # The errored QV record is skipped, so the requested re-execution covers nothing.
        capsys.readouterr()
        assert main(["check", "--report", str(report_path), "--reexecute", "1"]) == 3
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["status"] == "unverifiable"
        assert any("re-execution covered no circuit" in p for p in outcome["discrepancies"])

    @pytest.mark.parametrize("edit, status", [
        (lambda doc, qv: qv["config"].pop("shots"), "discrepancies"),
        (lambda doc, qv: qv.pop("seeds"), "discrepancies"),
        (lambda doc, qv: qv["items"][0].pop("width"), "discrepancies"),
        (lambda doc, qv: qv["items"][0].update(width="2"), "discrepancies"),
        (lambda doc, qv: doc["header"].pop("device"), "discrepancies"),
        (lambda doc, qv: qv.clear(), "unverifiable"),
        (lambda doc, qv: qv.update(items=None), "unverifiable"),
    ], ids=["no-shots", "no-seeds", "no-width", "string-width", "no-device", "empty-record",
            "null-items"])
    def test_check_reexecute_of_an_edited_report(self, tmp_path, report, capsys, edit, status):
        # A record that is not a QV record with items is skipped, so when no QV
        # record is left the re-execution covers nothing and is unverifiable; a
        # QV record or header that cannot be re-executed is a discrepancy naming it.
        doc = copy.deepcopy(report.doc)
        edit(doc, _record(doc, "quantum_volume"))
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", "--report", str(report_path), "--reexecute", "1"]) == 3
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["status"] == status
        if status == "discrepancies":
            assert any(p.startswith("re-execution: ") and ("Error" in p)
                       and ("base:quantum_volume#rep0" in p or "header" in p)
                       for p in outcome["discrepancies"])
        else:
            assert outcome["discrepancies"] == [
                "re-execution covered no circuit: no base quantum_volume record holds an item "
                "with sample hashes"]

    @pytest.mark.parametrize("field, value, annotation", [
        ("width", "2", "int"), ("width", 2.0, "int"), ("width", True, "int"),
        ("hogs", [0.8, "0.9"], "list[float]"), ("hogs", [0.8, False], "list[float]"),
        ("hogs", 0.8, "list[float]"), ("sample_hashes", [1], "list[str]"),
    ])
    def test_plain_check_rejects_raw_fields_of_the_wrong_type(self, tmp_path, report, capsys,
                                                              field, value, annotation):
        doc = copy.deepcopy(report.doc)
        _record(doc, "quantum_volume")["items"][0][field] = value
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", "--report", str(report_path)]) == 3
        problems = json.loads(capsys.readouterr().out)["discrepancies"]
        assert problems == [f"base:quantum_volume#rep0: record cannot be rebuilt (ValidationError: "
                            f"QvWidthRecord.{field} is {type(value).__name__}, not {annotation})"]

    def test_parse_and_stats_commands(self, tmp_path):
        qasm = tmp_path / "c.qasm"
        qasm.write_text("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
                        "measure q -> c;\n")
        assert main(["parse", "--qasm", str(qasm)]) == 0
        assert main(["stats", "--qasm", str(qasm)]) == 0
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n")
        assert main(["parse", "--qasm", str(bad)]) == 1


def test_cli_imports_no_scipy():
    code = ("import sys, qbench.cli, qbench.report; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(qbench.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def test_version_matches_pyproject():
    # A regex, not tomllib, which Python 3.10 lacks; the first version key is [project]'s.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version\s*=\s*"([^"]+)"', text, re.M).group(1) == qbench.__version__


class TestRunConfig:
    def test_config_roundtrip(self):
        config = make_config(peak=True)
        doc = config.to_json()
        back = RunConfig.from_json(doc)
        assert back.master_seed == config.master_seed
        assert back.peak.passes == config.peak.passes

    def test_unknown_schema_rejected(self):
        from qbench.errors import ValidationError

        with pytest.raises(ValidationError):
            RunConfig.from_json({"schema": "runcfg/9", "device": DeviceModel.complete(2).to_json()})
