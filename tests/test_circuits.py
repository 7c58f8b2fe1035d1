import numpy as np
import pytest

from qbench.circuits import (
    CX, Circuit, Gate, GateKind, H, Measure, PauliString, Rz, S, Sdg, SWAP, U2Q, X,
    circuit_stats, gate_unitary, inverse_circuit, inverse_gate, measure_all,
)
from qbench.errors import NonInvertibleError, ValidationError
from qbench.randgen import qv_model_circuit, random_clifford_circuit
from qbench.rng import SeedStream
from qbench.statevector import run_statevector


class TestGate:
    def test_arity_enforced(self):
        with pytest.raises(ValidationError):
            Gate(GateKind.H, (0, 1))
        with pytest.raises(ValidationError):
            Gate(GateKind.CX, (0,))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValidationError):
            Gate(GateKind.CX, (1, 1))

    def test_rotation_needs_finite_angle(self):
        with pytest.raises(ValidationError):
            Gate(GateKind.RZ, (0,), angle=float("nan"))
        with pytest.raises(ValidationError):
            Gate(GateKind.RZ, (0,))

    def test_u2q_unitarity_checked_at_1e_10(self):
        good = np.eye(4, dtype=complex)
        U2Q(0, 1, good)
        bad = good.copy()
        bad[0, 0] = 1.0 + 1e-6
        with pytest.raises(ValidationError):
            U2Q(0, 1, bad)

    def test_pauli_layer_letters_match_targets(self):
        Gate(GateKind.PAULI, (0, 2), paulis="XZ")
        with pytest.raises(ValidationError):
            Gate(GateKind.PAULI, (0, 2), paulis="X")
        with pytest.raises(ValidationError):
            Gate(GateKind.PAULI, (0,), paulis="Q")

    @pytest.mark.parametrize("kind, targets, fields, message", [
        (GateKind.H, (0, 1), {}, "h expects 1 target(s), got 2"),
        (GateKind.CX, (0,), {}, "cx expects 2 target(s), got 1"),
        (GateKind.MEASURE, (0, 1), {"cbit": 0}, "measure expects 1 target(s), got 2"),
        (GateKind.CX, (1, 1), {}, "cx targets must be distinct: (1, 1)"),
        (GateKind.PAULI, (2, 2), {"paulis": "XZ"}, "pauli targets must be distinct: (2, 2)"),
        (GateKind.BARRIER, (0, 3, 0), {}, "barrier targets must be distinct: (0, 3, 0)"),
        (GateKind.H, (-1,), {}, "qubit indices must be nonnegative"),
        (GateKind.SWAP, (0, -2), {}, "qubit indices must be nonnegative"),
        (GateKind.RZ, (0,), {}, "rz needs a finite angle"),
        (GateKind.RX, (0,), {"angle": float("nan")}, "rx needs a finite angle"),
        (GateKind.RY, (0,), {"angle": float("inf")}, "ry needs a finite angle"),
        (GateKind.H, (0,), {"angle": 0.5}, "h takes no angle"),
        (GateKind.U2Q, (0, 1), {"matrix": np.eye(2)}, "u2q matrix must be 4x4"),
        (GateKind.U2Q, (0, 1), {}, "u2q matrix must be 4x4"),
        (GateKind.U2Q, (0, 1), {"matrix": 2 * np.eye(4)}, "u2q matrix is not unitary within 1e-10"),
        (GateKind.U2Q, (0, 1), {"matrix": np.full((4, 4), np.nan)},
         "u2q matrix is not unitary within 1e-10"),
        (GateKind.CX, (0, 1), {"matrix": np.eye(4)}, "cx takes no matrix"),
        (GateKind.PAULI, (), {"paulis": ""}, "pauli layer needs at least one target"),
        (GateKind.PAULI, (0, 1), {}, "pauli letters must match target count"),
        (GateKind.PAULI, (0, 1), {"paulis": "X"}, "pauli letters must match target count"),
        (GateKind.PAULI, (0,), {"paulis": "Q"}, "bad pauli letters: 'Q'"),
        (GateKind.PAULI, (0,), {"paulis": "X", "sign": 2}, "pauli sign must be +1 or -1"),
        (GateKind.Z, (0,), {"paulis": "Z"}, "z takes no pauli letters"),
        (GateKind.MEASURE, (0,), {}, "measure needs a nonnegative classical bit"),
        (GateKind.MEASURE, (0,), {"cbit": -1}, "measure needs a nonnegative classical bit"),
        (GateKind.RZ, (0,), {"angle": 0.1, "cbit": 0}, "rz takes no classical bit"),
        (GateKind.BARRIER, (), {}, "barrier needs at least one target"),
        # A gate with several faults reports the first, in field order.
        (GateKind.H, (0,), {"angle": 0.5, "cbit": 0}, "h takes no angle"),
        (GateKind.RZ, (0,), {"angle": float("nan"), "matrix": np.eye(4)}, "rz needs a finite angle"),
        (GateKind.MEASURE, (0,), {"paulis": "X"}, "measure takes no pauli letters"),
        # A fractional or non-numeric index is refused, not truncated.
        (GateKind.H, (1.5,), {}, "qubit indices must be integers: (1.5,)"),
        (GateKind.CX, (0.9, 1.2), {}, "qubit indices must be integers: (0.9, 1.2)"),
        (GateKind.X, ("0",), {}, "qubit indices must be integers: ('0',)"),
        (GateKind.MEASURE, (0,), {"cbit": 1.5}, "measure needs an integer classical bit: 1.5"),
        (GateKind.MEASURE, (0,), {"cbit": 1.0}, "measure needs an integer classical bit: 1.0"),
    ])
    def test_every_invalid_field_is_rejected(self, kind, targets, fields, message):
        with pytest.raises(ValidationError) as err:
            Gate(kind, targets, **fields)
        assert str(err.value) == message

    def test_numpy_integers_index_qubits_and_bits(self):
        g = Gate(GateKind.CX, (np.int64(0), np.int32(2)))
        m = Measure(np.int64(1), np.uint8(3))
        assert g.targets == (0, 2) and m.targets == (1,) and m.cbit == 3
        assert all(type(v) is int for v in (*g.targets, *m.targets, m.cbit))

    def test_unitaries_are_unitary(self):
        for g in [H(0), X(0), S(0), Sdg(0), Rz(0, 0.7), CX(0, 1), SWAP(0, 1)]:
            u = gate_unitary(g)
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12


class TestCircuit:
    def test_layer_cannot_touch_qubit_twice(self):
        with pytest.raises(ValidationError):
            Circuit(2, ((H(0), X(0)),))

    def test_targets_in_range(self):
        with pytest.raises(ValidationError):
            Circuit(2, ((CX(0, 2),),))

    def test_measure_must_sit_in_final_layer(self):
        with pytest.raises(ValidationError):
            Circuit(1, ((Measure(0, 0),), (H(0),)))
        Circuit(1, ((Measure(0, 0),), (H(0),)), {"mid_measure": True})

    def test_from_gates_packs_greedily(self):
        c = Circuit.from_gates(2, [H(0), H(1), CX(0, 1), H(0)])
        assert c.depth == 3
        assert [len(l) for l in c.layers] == [2, 1, 1]

    def test_from_gates_hoists_measures_to_final_layer(self):
        c = Circuit.from_gates(2, [H(0), Measure(0, 0), Measure(1, 1)])
        assert all(g.kind is GateKind.MEASURE for g in c.layers[-1])
        assert c.measured_qubits() == (0, 1)

    def test_with_metadata_rechecks_the_layers_only_for_mid_measure(self):
        c = Circuit(1, ((Measure(0, 0),), (H(0),)), {"mid_measure": True})
        stamped = c.with_metadata(name="x")
        assert stamped == c and stamped.layers is c.layers
        assert dict(stamped.metadata) == {"mid_measure": True, "name": "x"}
        assert dict(c.metadata) == {"mid_measure": True}
        with pytest.raises(TypeError):
            stamped.metadata["name"] = "y"
        with pytest.raises(ValidationError):
            c.with_metadata(mid_measure=False)

    @pytest.mark.parametrize("gate, message", [
        ({"kind": "cx", "targets": [0.9, 1.2]}, "qubit indices must be integers: (0.9, 1.2)"),
        ({"kind": "measure", "targets": [0], "cbit": 1.5}, "measure needs an integer classical bit: 1.5"),
    ])
    def test_from_json_rejects_fractional_indices(self, gate, message):
        doc = {"schema": "circuit/1", "n_qubits": 2, "layers": [[gate]]}
        with pytest.raises(ValidationError) as err:
            Circuit.from_json(doc)
        assert str(err.value) == message

    def test_metadata_excluded_from_equality(self):
        a = Circuit.from_gates(1, [H(0)], metadata={"name": "a"})
        b = Circuit.from_gates(1, [H(0)], metadata={"name": "b"})
        assert a == b

    def test_json_roundtrip_including_u2q(self):
        u = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4))
                         + 1j * np.random.default_rng(1).normal(size=(4, 4)))[0]
        c = Circuit.from_gates(3, [H(0), Rz(1, 0.25), U2Q(0, 2, u), Measure(0, 0)])
        back = Circuit.from_json(c.to_json())
        assert back == c


class TestStats:
    def test_hand_counted_example(self):
        c = Circuit(2, ((H(0), H(1)), (CX(0, 1),)))
        st = circuit_stats(c)
        assert (st.width, st.depth) == (2, 2)
        assert st.gate_density == pytest.approx(3 / 4)
        assert st.two_qubit_count == 1
        assert st.measurement_density == 0.0

    def test_empty_circuit_densities_are_zero(self):
        st = circuit_stats(Circuit(3, ()))
        assert st.depth == 0
        assert st.gate_density == 0.0
        assert st.measurement_density == 0.0

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
    def test_model_circuit_two_qubit_count(self, m):
        st = circuit_stats(qv_model_circuit(m, SeedStream(1)))
        assert st.two_qubit_count == m * (m // 2)
        assert st.depth == m

    def test_depth_equals_layers_and_width_equals_qubits(self):
        for k in range(5):
            c = random_clifford_circuit(4, 6, SeedStream(10 + k))
            st = circuit_stats(c)
            assert st.depth == len(c.layers)
            assert st.width == c.n_qubits


class TestInverse:
    def test_self_inverse_h(self):
        c = Circuit(1, ((H(0),),))
        assert inverse_circuit(c) == c

    def test_s_becomes_sdg(self):
        assert inverse_circuit(Circuit(1, ((S(0),),))) == Circuit(1, ((Sdg(0),),))

    def test_measure_not_invertible(self):
        with pytest.raises(NonInvertibleError):
            inverse_circuit(measure_all(Circuit(1, ((H(0),),))))

    def test_clifford_roundtrip_acts_as_identity(self):
        c = random_clifford_circuit(4, 8, SeedStream(3))
        roundtrip = Circuit(4, c.layers + inverse_circuit(c).layers)
        amps = run_statevector(roundtrip).amps
        target = np.zeros(16)
        target[0] = 1.0
        assert np.max(np.abs(np.abs(amps) ** 2 - target)) < 1e-10

    def test_involution_up_to_inverse_pair_normalization(self):
        c = Circuit.from_gates(2, [S(0), Rz(1, 0.3), CX(0, 1), Sdg(1)])
        assert inverse_circuit(inverse_circuit(c)) == c

    def test_rotation_and_u2q_inverses(self):
        g = Rz(0, 0.5)
        assert inverse_gate(g).angle == -0.5
        u = np.diag([1, 1j, -1, -1j]).astype(complex)
        gi = inverse_gate(U2Q(0, 1, u))
        assert np.allclose(gi.matrix, u.conj().T)


class TestPauliString:
    def test_length_must_match(self):
        with pytest.raises(ValidationError):
            PauliString(3, "XY")

    def test_weight_counts_non_identity(self):
        assert PauliString(4, "IXYZ").weight == 3

    def test_as_gate_spans_register(self):
        g = PauliString(3, "XIZ").as_gate()
        assert g.targets == (0, 1, 2)
        assert g.paulis == "XIZ"
