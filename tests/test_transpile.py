import dataclasses
import sys

import numpy as np
import pytest

from qbench.circuits import (
    CX, CZ, Barrier, Circuit, Gate, GateKind, H, PauliLayer, ROTATION_KINDS, Ry, Rz, SWAP,
    TWO_QUBIT_KINDS, U2Q, gate_unitary, inverse_circuit, measure_all,
)
from qbench import kak
from qbench.device import DeviceModel, validate_against_device
from qbench.errors import EquivalenceProbeError, TranspileError
from qbench.kak import (
    TwoQubitSequence, canonical_matrix, sequence_matrix, synthesize_two_qubit, weyl_decompose,
)
from qbench.randgen import (
    haar_unitary, layered_model_circuit, qv_model_circuit, random_clifford_circuit,
)
from qbench.rng import SeedStream
from qbench import transpile
from qbench.statevector import ideal_distribution, run_statevector
from qbench.transpile import (
    PASS_REGISTRY, TranspileConfig, cancel_inverse_gates, decompose_to_native,
    register_pass, route_swaps, run_pipeline,
)

RXCX = (GateKind.RZ, GateKind.RX, GateKind.CX)
RYCZ = (GateKind.RZ, GateKind.RY, GateKind.CZ)
RYCX = (GateKind.RZ, GateKind.RY, GateKind.CX)
RXCZ = (GateKind.RZ, GateKind.RX, GateKind.CZ)

_ANGLES = {"0": 0.0, "pi4": np.pi / 4, "pi2": np.pi / 2}
_CORNERS = {f"canonical_{a}_{b}_{c}": canonical_matrix(_ANGLES[a], _ANGLES[b], _ANGLES[c])
            for a in _ANGLES for b in _ANGLES for c in _ANGLES}


def _near(corner: np.ndarray, eps: float, seed: int) -> np.ndarray:
    """A seeded unitary within eps of `corner` dressed with random local gates."""
    rng = SeedStream(seed).generator()
    left = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    right = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    vals, vecs = np.linalg.eigh(h + h.conj().T)
    kick = vecs @ np.diag(np.exp(1j * eps * vals / np.max(np.abs(vals)))) @ vecs.conj().T
    return left @ corner @ right @ kick


#: canonical(a, b, c) gives W the eigenphases 2(a - b + c), 2(a + b - c),
#: -2(a + b + c) and 2(-a + b + c), and two of them, p and q, merge in
#: Re W + t Im W when p + q = 2 atan(t) mod 2 pi. So 2a = atan(t1) merges a pair
#: at the first weight, and -2b = atan(t2) another at the second; dressed with
#: local gates, these inputs need the second and the third weight.
_T1, _T2 = kak._WEIGHTS[:2]
_LATE_WEIGHTS = {
    "second_weight": _near(canonical_matrix(np.arctan(_T1) / 2, 0.3, 0.1), 0.0, 90),
    "third_weight": _near(canonical_matrix(np.arctan(_T1) / 2, -np.arctan(_T2) / 2, 0.1), 0.0, 91),
}

_SYNTHESIS_INPUTS = [
    pytest.param(np.eye(4, dtype=complex), id="identity"),
    pytest.param(gate_unitary(CX(0, 1)), id="cx"),
    pytest.param(gate_unitary(CZ(0, 1)), id="cz"),
    pytest.param(gate_unitary(SWAP(0, 1)), id="swap"),
    pytest.param(np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
                 id="iswap"),
    pytest.param(np.array([[1, 0, 0, 0], [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
                           [0, (1 - 1j) / 2, (1 + 1j) / 2, 0], [0, 0, 0, 1]]), id="sqrt_swap"),
    pytest.param(np.kron(haar_unitary(2, SeedStream(65).generator()),
                         haar_unitary(2, SeedStream(66).generator())), id="haar_local"),
    *(pytest.param(m, id=name) for name, m in _CORNERS.items()),
    *(pytest.param(_near(m, eps, 67 + k), id=f"{name}_near{eps:g}")
      for eps in (1e-9, 1e-7) for k, (name, m) in enumerate(_CORNERS.items())),
    *(pytest.param(m, id=name) for name, m in _LATE_WEIGHTS.items()),
]


def _assert_three_cx_synthesis(seq: TwoQubitSequence, u: np.ndarray) -> None:
    """Exactly three CX, and every sequence of the stack equals its input up to phase to 1e-9."""
    u = np.asarray(u, dtype=complex).reshape(-1, 4, 4)
    assert sum(1 for op in seq.ops if op[0] == "cx") == 3
    m = sequence_matrix(seq)
    inner = np.einsum("nij,nij->n", m.conj(), u)
    phase = (inner / np.abs(inner))[:, None, None]
    assert np.max(np.abs(phase * m - u)) < 1e-9


class TestKak:
    def test_reconstruction_on_haar_samples(self):
        rng = SeedStream(60).generator()
        for _ in range(200):
            u = haar_unitary(4, rng)
            dec = weyl_decompose(u)
            assert np.max(np.abs(dec.reconstruct() - u)) < 1e-9

    def test_synthesis_uses_exactly_three_cx(self):
        rng = SeedStream(61).generator()
        for _ in range(100):
            u = haar_unitary(4, rng)
            _assert_three_cx_synthesis(synthesize_two_qubit(u), u)

    @pytest.mark.parametrize("u", _SYNTHESIS_INPUTS)
    def test_synthesis_of_clifford_specials(self, u):
        _assert_three_cx_synthesis(synthesize_two_qubit(u), u)

    def test_late_weight_inputs_fail_the_earlier_weights(self, monkeypatch):
        for k, m in enumerate(_LATE_WEIGHTS.values()):
            monkeypatch.setattr(kak, "_WEIGHTS", kak._WEIGHTS[:k + 1])
            with pytest.raises(TranspileError, match="diagonalize"):
                synthesize_two_qubit(m)

    def test_stack_equals_per_matrix_calls(self):
        # Haar inputs with every special interleaved, so the later-weight
        # retries run on entries in the middle of the stack.
        rng = SeedStream(93).generator()
        specials = [np.asarray(p.values[0], dtype=complex) for p in _SYNTHESIS_INPUTS]
        stack = np.array([m for special in specials for m in (haar_unitary(4, rng), special)])
        seq = synthesize_two_qubit(stack)
        _assert_three_cx_synthesis(seq, stack)
        for k, u in enumerate(stack):
            single = synthesize_two_qubit(u)
            for one, many in zip(single.ops, seq.ops, strict=True):
                assert one[:2] == many[:2]
                if one[0] == "cx":
                    assert one == many
                else:
                    np.testing.assert_allclose(one[2][0], many[2][k], rtol=0, atol=1e-12)
            assert abs(single.phase[0] - seq.phase[k]) < 1e-12

    def test_empty_stack(self):
        seq = synthesize_two_qubit(np.zeros((0, 4, 4)))
        assert sum(1 for op in seq.ops if op[0] == "cx") == 3
        assert all(op[2].shape == (0, 2, 2) for op in seq.ops if op[0] == "u")
        assert seq.phase.shape == (0,)

    def test_one_bad_entry_fails_the_stack(self):
        rng = SeedStream(94).generator()
        stack = np.array([haar_unitary(4, rng) for _ in range(5)])
        stack[2] = stack[2] @ np.diag([1, 1, 1, 1.5])
        with pytest.raises(TranspileError):
            synthesize_two_qubit(stack)
        local = np.array([np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) for _ in range(3)])
        local[1] = gate_unitary(CX(0, 1))
        with pytest.raises(TranspileError, match="tensor product"):
            kak._split_local(local)

    def test_sequence_cx_carries_its_control(self):
        m = sequence_matrix(TwoQubitSequence([("cx", 1, 0)], 1.0))
        # qubit 0 is the high bit: qubit 1 set flips qubit 0, |01> <-> |11>
        assert np.array_equal(m, np.eye(4)[[0, 3, 2, 1]])


class TestRouting:
    def test_line_distance_two_needs_one_swap(self):
        c = measure_all(Circuit.from_gates(3, [CX(0, 2)]))
        routed = route_swaps(c, DeviceModel.linear(3))
        assert sum(1 for g in routed.all_gates() if g.kind is GateKind.SWAP) == 1

    def test_conformant_circuit_unchanged(self):
        c = measure_all(Circuit.from_gates(3, [H(0), CX(0, 1), CX(1, 2)]))
        routed = route_swaps(c, DeviceModel.linear(3))
        assert routed == c

    def test_distribution_preserved_after_relabeling(self):
        for k in range(20):
            c = measure_all(random_clifford_circuit(5, 6, SeedStream(62 + k)))
            routed = route_swaps(c, DeviceModel.linear(6))
            before = ideal_distribution(c).probs
            after = ideal_distribution(routed).probs
            assert np.max(np.abs(before - after)) < 1e-10

    def test_connectivity_violations_all_fixed(self):
        c = measure_all(random_clifford_circuit(5, 8, SeedStream(80)))
        routed = route_swaps(c, DeviceModel.linear(6))
        assert [v for v in validate_against_device(routed, DeviceModel.linear(6))
                if v.category == "connectivity"] == []

    def test_route_output_validates_clean_for_native_circuits(self):
        # Circuits over native kinds only: routing alone must leave zero violations.
        rng = SeedStream(81).generator()
        device = DeviceModel.linear(6, native_gates=(GateKind.H, GateKind.RZ,
                                                     GateKind.CX, GateKind.SWAP))
        for k in range(10):
            gates = []
            for _ in range(15):
                if rng.random() < 0.5:
                    gates.append(H(int(rng.integers(0, 5))))
                else:
                    a, b = rng.choice(5, size=2, replace=False)
                    gates.append(CX(int(a), int(b)))
            c = measure_all(Circuit.from_gates(5, gates))
            routed = route_swaps(c, device)
            assert validate_against_device(routed, device) == []

    def test_swaps_per_gate_bounded_by_diameter(self):
        device = DeviceModel.linear(7)
        diameter = 6
        for k in range(5):
            c = measure_all(random_clifford_circuit(7, 6, SeedStream(70 + k)))
            routed = route_swaps(c, device)
            swaps = routed.metadata["swaps_added"]
            two_q = sum(1 for g in c.all_gates() if len(g.targets) == 2)
            assert two_q == 0 or swaps / two_q <= diameter - 1

    def test_too_small_component_rejected(self):
        dev = DeviceModel(n_qubits=4, working=(True, True, False, True),
                          edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
                          native_gates=frozenset({GateKind.CX, GateKind.H}))
        with pytest.raises(TranspileError):
            route_swaps(Circuit.from_gates(3, [CX(0, 2)]), dev)


class TestDecompose:
    def test_swap_with_native_cx_becomes_three_cx(self):
        dev = DeviceModel.linear(2, native_gates=RXCX)
        out = decompose_to_native(Circuit.from_gates(2, [SWAP(0, 1)]), dev)
        assert [g.kind for g in out.all_gates()] == [GateKind.CX] * 3

    def test_h_becomes_rz_rx_rz_equivalent(self):
        dev = DeviceModel.linear(1, native_gates=(GateKind.RZ, GateKind.RX))
        out = decompose_to_native(Circuit.from_gates(1, [H(0)]), dev)
        assert [g.kind for g in out.all_gates()] == [GateKind.RZ, GateKind.RX, GateKind.RZ]
        got = run_statevector(Circuit.from_gates(1, [H(0)])).amps
        lowered = run_statevector(out).amps
        phase = np.vdot(lowered, got)
        phase /= abs(phase)
        assert np.max(np.abs(phase * lowered - got)) < 1e-10

    def test_haar_u2q_distributions_match_to_1e_8(self):
        dev = DeviceModel.linear(2, native_gates=RXCX)
        rng = SeedStream(63).generator()
        for _ in range(20):
            u = haar_unitary(4, rng)
            c = measure_all(Circuit.from_gates(2, [U2Q(0, 1, u)]))
            out = decompose_to_native(c, dev)
            assert np.max(np.abs(ideal_distribution(c).probs
                                 - ideal_distribution(out).probs)) < 1e-8
            assert sum(1 for g in out.all_gates() if g.kind is GateKind.CX) == 3

    def test_cz_native_family(self):
        dev = DeviceModel.linear(2, native_gates=RYCZ)
        u = haar_unitary(4, SeedStream(64).generator())
        c = measure_all(Circuit.from_gates(2, [U2Q(0, 1, u), CX(1, 0)]))
        out = decompose_to_native(c, dev)
        assert validate_against_device(out, dev) == []
        assert np.max(np.abs(ideal_distribution(c).probs
                             - ideal_distribution(out).probs)) < 1e-8

    def test_circuit_without_u2q(self, monkeypatch):
        def synthesize(u):
            raise AssertionError("synthesis called without a U2Q")

        monkeypatch.setattr(transpile, "synthesize_two_qubit", synthesize)
        dev = DeviceModel.linear(3, native_gates=RYCZ)
        c = measure_all(Circuit.from_gates(3, [H(0), CX(0, 1), SWAP(1, 2), Rz(2, 0.3)]))
        out = decompose_to_native(c, dev)
        assert validate_against_device(out, dev) == []
        assert np.max(np.abs(ideal_distribution(c).probs - ideal_distribution(out).probs)) < 1e-10
        assert decompose_to_native(Circuit(2, ()), dev).gate_count() == 0

    def test_one_synthesis_and_one_euler_call_per_circuit(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(transpile, name)

            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in ("synthesize_two_qubit", "euler_zyz"):
            monkeypatch.setattr(transpile, name, counted(name))
        dev = DeviceModel.linear(4, native_gates=RYCZ)
        c = measure_all(qv_model_circuit(4, SeedStream(95)))
        assert sum(g.kind is GateKind.U2Q for g in c.all_gates()) > 1
        out = decompose_to_native(c, dev)
        assert calls == ["synthesize_two_qubit", "euler_zyz"]
        assert np.max(np.abs(ideal_distribution(c).probs - ideal_distribution(out).probs)) < 1e-8

    @pytest.mark.parametrize("family", ["zyz", "zxz"])
    @pytest.mark.parametrize("angle", [0.5, -0.5, -3.0, 4.0])
    def test_ry_lowers_to_as_few_rotations_at_any_sign(self, family, angle):
        # Rz Ry Rz with a negative Ry angle: one Ry on an RZ/RY device; on an
        # RZ/RX device an Ry is always Rz Rx Rz.
        gates = transpile._expand_1q([(0, gate_unitary(Ry(0, angle)))], family)
        assert [g.kind for g in gates] == (
            [GateKind.RY] if family == "zyz" else [GateKind.RZ, GateKind.RX, GateKind.RZ])
        product = np.eye(2)
        for g in gates:
            product = gate_unitary(g) @ product
        overlap = np.trace(gate_unitary(Ry(0, angle)).conj().T @ product)
        assert abs(abs(overlap) - 2) < 1e-12

    def test_haar_u2q_lowers_to_eighteen_gates(self):
        # Three CX, three rotations for each of the four outer locals, and one
        # for each of the three inner rotations, whatever their signs.
        dev = DeviceModel.linear(2, native_gates=(GateKind.RZ, GateKind.RY, GateKind.CX))
        rng = SeedStream(65).generator()
        c = measure_all(Circuit.from_gates(2, [U2Q(0, 1, haar_unitary(4, rng)) for _ in range(30)]))
        out = decompose_to_native(c, dev)
        assert sum(g.kind is not GateKind.MEASURE for g in out.all_gates()) == 18 * 30
        assert np.max(np.abs(ideal_distribution(c).probs - ideal_distribution(out).probs)) < 1e-8

    def test_non_universal_native_set_rejected(self):
        dev = DeviceModel.linear(2, native_gates=(GateKind.H, GateKind.CX))
        with pytest.raises(TranspileError):
            decompose_to_native(Circuit.from_gates(1, [Rz(0, 0.3)]), dev)


class TestPipeline:
    def test_base_on_conformant_circuit_unchanged_with_four_log_entries(self):
        dev = DeviceModel.linear(3, native_gates=RXCX)
        c = measure_all(Circuit.from_gates(3, [Rz(0, 0.4), CX(0, 1), CX(1, 2)]))
        out, log = run_pipeline(c, dev, TranspileConfig())
        assert out == c
        assert [e.name for e in log.entries] == ["validate", "route", "decompose", "validate"]
        assert log.entries[-1].violations == 0
        assert log.entries[-1].gates_out == out.gate_count()

    def test_base_determinism(self):
        dev = DeviceModel.linear(4, native_gates=RXCX)
        c = measure_all(qv_model_circuit(3, SeedStream(65)))
        out1, _ = run_pipeline(c, dev, TranspileConfig(seed=7))
        out2, _ = run_pipeline(c, dev, TranspileConfig(seed=7))
        assert out1 == out2

    def test_semantic_preservation_through_full_pipeline(self):
        dev = DeviceModel.linear(6, native_gates=RXCX)
        for k in range(6):
            c = measure_all(qv_model_circuit(4 + (k % 3), SeedStream(66 + k)))
            out, _ = run_pipeline(c, dev, TranspileConfig())
            assert validate_against_device(out, dev) == []
            assert np.max(np.abs(ideal_distribution(c).probs
                                 - ideal_distribution(out).probs)) < 1e-8

    def test_base_config_refuses_overrides(self):
        with pytest.raises(TranspileError):
            TranspileConfig(mode="base", passes=("route",))

    def test_peak_cancellation_beats_base_on_roundtrip_circuit(self):
        dev = DeviceModel.linear(3, native_gates=RXCX)
        base_circuit = random_clifford_circuit(3, 4, SeedStream(67))
        loop = measure_all(Circuit(3, base_circuit.layers + inverse_circuit(base_circuit).layers))
        out_base, _ = run_pipeline(loop, dev, TranspileConfig())
        peak_cfg = TranspileConfig(mode="peak",
                                   passes=("validate", "route", "decompose",
                                           "cancel_inverses", "validate"))
        out_peak, log = run_pipeline(loop, dev, peak_cfg)
        assert out_peak.gate_count() < out_base.gate_count()
        assert np.max(np.abs(ideal_distribution(loop).probs
                             - ideal_distribution(out_peak).probs)) < 1e-8

    def test_probe_rejects_non_equivalent_pass(self):
        def drop_last_gate(circuit, device, entry):
            gates = list(circuit.all_gates())
            body = [g for g in gates if g.kind is not GateKind.MEASURE]
            keep = body[:-1] + [g for g in gates if g.kind is GateKind.MEASURE]
            return Circuit.from_gates(circuit.n_qubits, keep, metadata=dict(circuit.metadata))

        register_pass("drop_last_gate", drop_last_gate)
        try:
            dev = DeviceModel.linear(3, native_gates=RXCX)
            c = measure_all(Circuit.from_gates(3, [H(0), CX(0, 1)]))
            cfg = TranspileConfig(mode="peak",
                                  passes=("route", "decompose", "drop_last_gate", "validate"))
            with pytest.raises(EquivalenceProbeError):
                run_pipeline(c, dev, cfg)
        finally:
            PASS_REGISTRY.pop("drop_last_gate", None)

    def test_probe_runs_once_per_device_passes_functions_and_seed(self, monkeypatch):
        probes = []
        real = transpile.ideal_distribution

        def counted(circuit, *args, **kwargs):
            probes.append(circuit)
            return real(circuit, *args, **kwargs)

        monkeypatch.setattr(transpile, "ideal_distribution", counted)
        monkeypatch.setattr(transpile, "_PASSED_PROBES", set())
        monkeypatch.setitem(PASS_REGISTRY, "cancel_again", PASS_REGISTRY["cancel_inverses"])
        c = measure_all(Circuit.from_gates(3, [H(0), CX(0, 1)]))
        passes = ("route", "decompose", "cancel_again", "validate")
        linear3 = DeviceModel.linear(3, native_gates=RXCX)

        def probed(device, seed=0):
            before = len(probes)
            run_pipeline(c, device, TranspileConfig(mode="peak", passes=passes, seed=seed))
            return len(probes) - before

        assert probed(linear3) == 8  # four probe circuits, before and after the passes
        assert probed(linear3) == 0
        assert probed(linear3, seed=1) == 8
        assert probed(DeviceModel.linear(3, native_gates=RYCZ)) == 8
        # Another function under a probed name is probed again.
        monkeypatch.setitem(PASS_REGISTRY, "cancel_again", lambda circuit, device, entry: circuit)
        assert probed(linear3) == 8
        assert probed(linear3) == 0

    def test_failed_probe_fails_on_every_call(self, monkeypatch):
        monkeypatch.setattr(transpile, "_PASSED_PROBES", set())
        monkeypatch.setitem(PASS_REGISTRY, "drop_all", lambda circuit, device, entry: measure_all(
            Circuit(circuit.n_qubits, ())))
        dev = DeviceModel.linear(3, native_gates=RXCX)
        cfg = TranspileConfig(mode="peak", passes=("route", "decompose", "drop_all", "validate"))
        c = measure_all(Circuit.from_gates(3, [H(0), CX(0, 1)]))
        for _ in range(2):
            with pytest.raises(EquivalenceProbeError):
                run_pipeline(c, dev, cfg)
        assert not transpile._PASSED_PROBES

    @pytest.mark.parametrize("passes", [("route", "decompose", "validate"), ("decompose", "validate")])
    def test_probe_rejects_a_device_without_working_qubits(self, passes):
        dev = dataclasses.replace(DeviceModel.linear(3, native_gates=RXCX), working=(False,) * 3)
        c = measure_all(Circuit.from_gates(3, [H(0), CX(0, 1)]))
        with pytest.raises(TranspileError, match="no working qubits to probe"):
            run_pipeline(c, dev, TranspileConfig(mode="peak", passes=passes))

    def test_unknown_pass_rejected(self):
        dev = DeviceModel.linear(2, native_gates=RXCX)
        cfg = TranspileConfig(mode="peak", passes=("no_such_pass",))
        with pytest.raises(TranspileError):
            run_pipeline(measure_all(Circuit.from_gates(2, [CX(0, 1)])), dev, cfg)


class TestCancellation:
    def test_adjacent_inverse_pairs_cancel_through_cascade(self):
        c = random_clifford_circuit(4, 6, SeedStream(68))
        loop = Circuit(4, c.layers + inverse_circuit(c).layers)
        assert cancel_inverse_gates(loop).gate_count() == 0

    def test_rotations_cancel_only_on_opposite_angles(self):
        c = Circuit.from_gates(1, [Rz(0, 0.3), Rz(0, -0.3)])
        assert cancel_inverse_gates(c).gate_count() == 0
        c2 = Circuit.from_gates(1, [Rz(0, 0.3), Rz(0, 0.3)])
        assert cancel_inverse_gates(c2).gate_count() == 2

    def test_intervening_gate_blocks_cancellation(self):
        c = Circuit.from_gates(2, [CX(0, 1), H(0), CX(0, 1)])
        assert cancel_inverse_gates(c).gate_count() == 3


def _every_kind_circuit(n: int, extra: int, rng: np.random.Generator) -> Circuit:
    """A measured random circuit on `n` >= 3 qubits holding every gate kind once,
    then `extra` gates of random kinds."""
    kinds = [k for k in GateKind if k is not GateKind.MEASURE]

    def one(kind: GateKind) -> Gate:
        q = [int(x) for x in rng.choice(n, size=3, replace=False)]
        if kind in ROTATION_KINDS:
            return Gate(kind, (q[0],), angle=float(rng.uniform(-4.0, 4.0)))
        if kind is GateKind.U2Q:
            return U2Q(q[0], q[1], haar_unitary(4, rng))
        if kind is GateKind.PAULI:
            return PauliLayer(q, "".join(rng.choice(list("IXYZ"), size=3)), int(rng.choice([1, -1])))
        if kind is GateKind.BARRIER:
            return Barrier(*q[:2])
        return Gate(kind, tuple(q[:2]) if kind in TWO_QUBIT_KINDS else (q[0],))

    gates = [one(k) for k in kinds] + [one(kinds[i]) for i in rng.integers(len(kinds), size=extra)]
    return measure_all(Circuit.from_gates(n, gates))


class TestTrustedGates:
    @pytest.mark.parametrize("natives", [RYCX, RYCZ, RXCX, RXCZ,
                                         RYCZ + (GateKind.H, GateKind.X, GateKind.Z)],
                             ids=["zyz-cx", "zyz-cz", "zxz-cx", "zxz-cz", "zyz-cz-named"])
    def test_routed_and_lowered_gates_equal_checked_ones(self, natives):
        # The line makes routing insert SWAPs and relabel gates of every kind.
        device = DeviceModel.linear(5, native_gates=natives)
        rng = SeedStream(96).generator()
        for _ in range(3):
            c = _every_kind_circuit(5, 40, rng)
            routed = route_swaps(c, device)
            lowered, _ = run_pipeline(c, device, TranspileConfig())
            assert routed.metadata["swaps_added"] > 0
            assert {g.kind for g in c.all_gates()} == set(GateKind)
            for g in (*routed.all_gates(), *lowered.all_gates()):
                checked = Gate(g.kind, g.targets, angle=g.angle, matrix=g.matrix,
                               paulis=g.paulis, sign=g.sign, cbit=g.cbit)
                assert g == checked
                assert all(type(t) is int for t in g.targets)
                assert g.angle is None or type(g.angle) is float
                assert g.matrix is None or not g.matrix.flags.writeable
                # Same dict size: the trusted gate shares its keys as checked gates do.
                assert sys.getsizeof(vars(g)) == sys.getsizeof(vars(checked))

    def test_routing_keeps_the_gates_it_does_not_move(self):
        c = measure_all(qv_model_circuit(4, SeedStream(99)))
        routed = route_swaps(c, DeviceModel.complete(4))
        assert all(a is b for a, b in zip(c.all_gates(), routed.all_gates()))


class TestPipelineWork:
    def test_base_pipeline_checks_no_gate_it_builds(self, monkeypatch):
        # Item 0 of the 14-qubit collision test at seed 2026.
        c = measure_all(layered_model_circuit(14, 14, SeedStream(2026, (0,)).child(0)))
        checked = []
        real = Gate.__post_init__

        def counted(gate):
            checked.append(gate.kind)
            real(gate)

        monkeypatch.setattr(Gate, "__post_init__", counted)
        out, log = run_pipeline(c, DeviceModel.complete(14), TranspileConfig())
        assert checked == []
        assert [(e.gates_in, e.gates_out) for e in log.entries] == [
            (112, 112), (112, 112), (112, 1778), (1778, 1778)]
        assert out.gate_count() == 1778 and out.metadata["transpile_mode"] == "base"

    @pytest.mark.parametrize("passes", [(), ("validate", "route", "decompose", "cancel_inverses",
                                             "validate")], ids=["base", "peak"])
    def test_each_pass_counts_what_the_last_one_left(self, monkeypatch, passes):
        outputs = []
        for name in ("validate", "route", "decompose", "cancel_inverses"):
            def recorded(circuit, device, entry, real=PASS_REGISTRY[name]):
                outputs.append(real(circuit, device, entry))
                return outputs[-1]
            monkeypatch.setitem(PASS_REGISTRY, name, recorded)
        monkeypatch.setattr(transpile, "_PASSED_PROBES", set())
        dev = DeviceModel.linear(4, native_gates=RXCX)
        base_circuit = random_clifford_circuit(4, 4, SeedStream(97))
        c = measure_all(Circuit(4, base_circuit.layers + inverse_circuit(base_circuit).layers))
        config = TranspileConfig(mode="peak", passes=passes) if passes else TranspileConfig()
        _, log = run_pipeline(c, dev, config)
        del outputs[:-len(log.entries)]  # the probe's runs come first
        assert log.entries[0].gates_in == c.gate_count()
        assert [e.gates_out for e in log.entries] == [o.gate_count() for o in outputs]
        assert [e.gates_in for e in log.entries[1:]] == [e.gates_out for e in log.entries[:-1]]
        assert len({e.gates_out for e in log.entries}) > 1

    def _violating(self, monkeypatch):
        """An H on a device whose native set lacks it, with lowering switched off."""
        monkeypatch.setattr(transpile, "_PASSED_PROBES", set())
        monkeypatch.setitem(PASS_REGISTRY, "decompose", lambda circuit, device, entry: circuit)
        return measure_all(Circuit.from_gates(2, [H(0), CX(0, 1)])), DeviceModel.linear(2, native_gates=RXCX)

    def test_stock_validate_reports_a_violating_output(self, monkeypatch):
        c, dev = self._violating(monkeypatch)
        with pytest.raises(TranspileError, match="still violates the device: gate h is not native"):
            run_pipeline(c, dev, TranspileConfig())

    def test_a_re_registered_validate_is_checked_after(self, monkeypatch):
        c, dev = self._violating(monkeypatch)

        def lenient(circuit, device, entry):
            entry.violations = 0
            return circuit

        monkeypatch.setitem(PASS_REGISTRY, "validate", lenient)
        with pytest.raises(TranspileError, match="still violates the device: gate h is not native"):
            run_pipeline(c, dev, TranspileConfig())

    @pytest.mark.parametrize("passes", [("route",), ("validate", "route")])
    def test_a_peak_list_not_ending_in_validate_is_checked_after(self, monkeypatch, passes):
        c, dev = self._violating(monkeypatch)
        with pytest.raises(TranspileError, match="still violates the device: gate h is not native"):
            run_pipeline(c, dev, TranspileConfig(mode="peak", passes=passes))
