import pytest

from qbench.circuits import CX, Circuit, H, Rz, measure_all
from qbench.device import DeviceModel, validate_against_device
from qbench.errors import ValidationError
from qbench.noise import NoiseModel
from qbench.circuits import GateKind


def line(n, **kw):
    return DeviceModel.linear(n, **kw)


class TestDeviceModel:
    def test_t2_bounded_by_twice_t1(self):
        with pytest.raises(ValidationError):
            DeviceModel.linear(2, t1=(10e-6, 10e-6), t2=(30e-6, 10e-6))
        DeviceModel.linear(2, t1=(10e-6, 10e-6), t2=(20e-6, 10e-6))

    def test_probabilities_in_range(self):
        with pytest.raises(ValidationError):
            DeviceModel.linear(2, readout_error=(1.5, 0.0))
        with pytest.raises(ValidationError):
            DeviceModel.linear(2, gate_error={GateKind.CX: -0.1})

    @pytest.mark.parametrize("book, message", [
        ({"gate_error": {"cx": 1.5}}, "probability 1.5 outside [0, 1]"),
        ({"edge_error": {(1, 0): -0.25}}, "probability -0.25 outside [0, 1]"),
        ({"readout_error": (0.0, 2.0)}, "probability 2.0 outside [0, 1]"),
    ])
    def test_device_and_noise_model_refuse_the_same_rates(self, book, message):
        for make in (lambda: DeviceModel.linear(2, **book), lambda: NoiseModel(**book)):
            with pytest.raises(ValidationError) as err:
                make()
            assert str(err.value) == message

    def test_device_and_noise_model_normalize_the_error_book_alike(self):
        with pytest.raises(ValidationError) as err:
            NoiseModel(default_2q=1.25)
        assert str(err.value) == "probability 1.25 outside [0, 1]"
        dev = DeviceModel.linear(3, gate_error={"cx": 0.5}, edge_error={(2, 1): 0.25})
        noise = NoiseModel(gate_error={"cx": 0.5}, edge_error={(2, 1): 0.25})
        for model in (dev, noise):
            assert dict(model.gate_error) == {GateKind.CX: 0.5}
            assert dict(model.edge_error) == {(1, 2): 0.25}
            with pytest.raises(TypeError):
                model.gate_error[GateKind.H] = 0.1
        assert dev.readout_error == (0.0, 0.0, 0.0) and noise.readout_error == ()

    def test_coupling_strength_in_range(self):
        with pytest.raises(ValidationError):
            DeviceModel(n_qubits=2, working=(True, True), edges=((0, 1, 2.0),),
                        native_gates=frozenset({GateKind.CX}))

    def test_edges_to_dead_qubits_flagged_by_validate(self):
        dev = DeviceModel(n_qubits=3, working=(True, False, True),
                          edges=((0, 1, 1.0), (1, 2, 1.0)),
                          native_gates=frozenset({GateKind.CX, GateKind.H}))
        assert len(dev.validate()) == 2
        assert dev.working_edges() == ()

    def test_json_roundtrip(self, tmp_path):
        dev = DeviceModel.linear(4, gate_error={GateKind.CX: 0.01, GateKind.H: 0.001},
                                 edge_error={(0, 1): 0.02},
                                 gate_duration={GateKind.CX: 300e-9},
                                 t1=(50e-6,) * 4, t2=(60e-6,) * 4,
                                 readout_error=(0.01,) * 4)
        path = tmp_path / "dev.json"
        dev.save(path)
        back = DeviceModel.load(path)
        assert back.to_json() == dev.to_json()

    def test_components(self):
        dev = DeviceModel(n_qubits=5, working=(True,) * 5,
                          edges=((0, 1, 1.0), (3, 4, 1.0)),
                          native_gates=frozenset({GateKind.CX}))
        assert dev.connected_components()[0] == [0, 1]


class TestValidateAgainstDevice:
    def test_coupled_cx_is_clean(self):
        c = Circuit.from_gates(2, [CX(0, 1)])
        assert validate_against_device(c, line(2)) == []

    def test_uncoupled_cx_is_one_connectivity_violation(self):
        c = Circuit.from_gates(3, [CX(0, 2)])
        violations = validate_against_device(c, line(3))
        assert [v.category for v in violations] == ["connectivity"]

    def test_non_native_rz_is_gate_set_violation(self):
        dev = line(2, native_gates=(GateKind.H, GateKind.CX))
        violations = validate_against_device(Circuit.from_gates(1, [Rz(0, 0.1)]), dev)
        assert [v.category for v in violations] == ["gate-set"]

    def test_dead_qubit_flagged(self):
        dev = DeviceModel(n_qubits=2, working=(True, False), edges=((0, 1, 1.0),),
                          native_gates=frozenset({GateKind.H, GateKind.CX}))
        violations = validate_against_device(Circuit.from_gates(2, [H(1)]), dev)
        assert [v.category for v in violations] == ["dead-qubit"]

    def test_measure_and_barrier_always_legal(self):
        c = measure_all(Circuit.from_gates(2, [H(0)]))
        assert validate_against_device(c, line(2)) == []
