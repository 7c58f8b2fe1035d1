import math

import numpy as np
import pytest
from stabilizer_reference import reference_clifford_elements

import qbench.stabilizer
from qbench.circuits import CLIFFORD_KINDS, Circuit, GateKind, T, inverse_gate, measure_all
from qbench.cliffords import clifford_group
from qbench.device import DeviceModel
from qbench.errors import NonCliffordError, ValidationError
from qbench.protocols import run_mirror_benchmark
from qbench.randgen import (
    HAAR_DIMS, VolumetricShape, haar_unitary, layered_model_circuit, make_mirror_circuit,
    qv_model_circuit, random_clifford_circuit, sample_clifford_element,
    volumetric_family,
)
from qbench.rng import SeedStream
from qbench.stabilizer import StabilizerTableau, deterministic_outcome, stabilizer_sample
from qbench.statevector import run_statevector


class TestSeedStream:
    def test_identical_stream_identical_bytes(self):
        a = SeedStream(7, (1, 2)).generator().bytes(64)
        b = SeedStream(7, (1, 2)).generator().bytes(64)
        assert a == b

    def test_children_differ(self):
        s = SeedStream(7)
        assert s.child(0).generator().bytes(16) != s.child(1).generator().bytes(16)

    def test_record_roundtrip(self):
        s = SeedStream(3, (4, 5))
        assert SeedStream.from_record(s.as_record()) == s

    @pytest.mark.parametrize("make", [lambda: SeedStream(-1), lambda: SeedStream(3).child(2, -1),
                                      lambda: SeedStream.from_record({"seed": 3, "path": [-4]})])
    def test_negative_seed_or_path_rejected(self, make):
        with pytest.raises(ValidationError, match="non-negative"):
            make()


def _reference_haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar unitary by the single-matrix formula: QR of a complex Ginibre
    matrix, real part drawn first, with R's diagonal phase-normalized."""
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestHaar:
    @pytest.mark.parametrize("dim", HAAR_DIMS)
    def test_equals_the_single_matrix_formula(self, dim):
        rng, ref = SeedStream(3).generator(), SeedStream(3).generator()
        for _ in range(3):
            assert np.array_equal(haar_unitary(dim, rng), _reference_haar(dim, ref))

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_unitarity_within_1e_10(self, dim):
        u = haar_unitary(dim, SeedStream(1).generator())
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10

    def test_unsupported_dim(self):
        with pytest.raises(ValidationError):
            haar_unitary(3, SeedStream(1).generator())

    def test_fixed_seed_bitwise_identical(self):
        u1 = haar_unitary(4, SeedStream(5).generator())
        u2 = haar_unitary(4, SeedStream(5).generator())
        assert np.array_equal(u1, u2)

    def test_first_moment_matches_haar(self):
        # E|<0|U|0>|^2 = 1/2 for dim 2; |U00|^2 is uniform on [0,1], var 1/12.
        rng = SeedStream(11).generator()
        samples = np.array([abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10_000)])
        sigma = math.sqrt(1 / 12 / 10_000)
        assert abs(samples.mean() - 0.5) < 3 * sigma

    def test_left_multiplication_invariance(self):
        # The |<0|VU|0>|^2 moment must match the unrotated one for any fixed V.
        v = haar_unitary(2, SeedStream(99).generator())
        rng = SeedStream(12).generator()
        samples = np.array([abs((v @ haar_unitary(2, rng))[0, 0]) ** 2 for _ in range(10_000)])
        sigma = math.sqrt(1 / 12 / 10_000)
        assert abs(samples.mean() - 0.5) < 3 * sigma


class TestModelCircuits:
    def test_width_two_shape(self):
        c = qv_model_circuit(2, SeedStream(1))
        assert c.depth == 2
        assert all(len(layer) == 1 and layer[0].kind is GateKind.U2Q for layer in c.layers)

    def test_odd_width_idles_one_qubit(self):
        c = qv_model_circuit(5, SeedStream(2))
        for layer in c.layers:
            assert len(layer) == 2
            touched = {t for g in layer for t in g.targets}
            assert len(touched) == 4

    @pytest.mark.parametrize("width", range(2, 15))
    def test_stacked_layers_equal_successive_haar_draws(self, width):
        circuit = layered_model_circuit(width, 3, SeedStream(98, (width,)))
        rng = SeedStream(98, (width,)).generator()
        for layer in circuit.layers:
            perm = rng.permutation(width)
            assert [g.targets for g in layer] == [
                (int(perm[2 * k]), int(perm[2 * k + 1])) for k in range(width // 2)]
            for g in layer:
                assert np.array_equal(g.matrix, haar_unitary(4, rng))

    def test_determinism(self):
        a = qv_model_circuit(4, SeedStream(3))
        b = qv_model_circuit(4, SeedStream(3))
        assert a == b

    def test_width_below_two_rejected(self):
        with pytest.raises(ValidationError):
            qv_model_circuit(1, SeedStream(1))

    def test_metadata_records_stream(self):
        c = qv_model_circuit(3, SeedStream(9, (4,)))
        assert c.metadata["stream"] == {"seed": 9, "path": [4]}


class TestCliffordSampling:
    def test_clifford_only_kind_filter(self):
        c = random_clifford_circuit(5, 10, SeedStream(4))
        assert all(g.kind in CLIFFORD_KINDS for g in c.all_gates())

    def test_determinism(self):
        assert random_clifford_circuit(4, 6, SeedStream(5)) == random_clifford_circuit(4, 6, SeedStream(5))

    def test_group_sizes(self):
        assert len(clifford_group(1)) == 24
        assert len(clifford_group(2)) == 11520

    @pytest.mark.parametrize("n", [1, 2])
    def test_stacked_enumeration_matches_reference_search(self, n):
        group = clifford_group(n)
        reference = reference_clifford_elements(n)
        assert [(e.gates, e.key) for e in group.elements] == reference
        assert [e.index for e in group.elements] == list(range(len(reference)))
        index_of = {key: i for i, (_, key) in enumerate(reference)}
        rng = SeedStream(41, (n,)).generator()
        for _ in range(50):
            picks = rng.integers(0, len(reference), size=int(rng.integers(1, 6)))
            gates = tuple(g for i in picks for g in reference[i][0])
            tab = StabilizerTableau(n)
            for g in reversed(gates):
                tab.apply_gate(inverse_gate(g))
            assert group.inverse_index(gates) == index_of[tab.key()]

    def test_uniformity_chi_square_24_classes(self):
        # 24000 draws: each class expects 1000 with sigma = sqrt(np(1-p)).
        rng = SeedStream(6).generator()
        group = clifford_group(1)
        counts = np.zeros(24, dtype=int)
        for _ in range(24_000):
            counts[group.sample(rng).index] += 1
        sigma = math.sqrt(24_000 * (1 / 24) * (23 / 24))
        assert np.all(np.abs(counts - 1000) < 5 * sigma)

    def test_element_times_inverse_is_identity(self):
        group = clifford_group(2)
        for k in range(10):
            element = sample_clifford_element(2, SeedStream(40 + k))
            idx = element.metadata["clifford_index"]
            inv = group.inverse_index(group.elements[idx].gates)
            combined = Circuit.from_gates(
                2, list(element.all_gates()) + list(group.elements[inv].gates))
            amps = run_statevector(combined).amps
            assert abs(abs(amps[0]) - 1.0) < 1e-10

    def test_unsupported_width(self):
        with pytest.raises(ValidationError):
            sample_clifford_element(3, SeedStream(1))


class TestMirror:
    def test_identity_base_reads_out_prepared_frame(self):
        spec = make_mirror_circuit(Circuit(4, ()), SeedStream(8))
        samples = stabilizer_sample(spec.circuit, 200, SeedStream(9).generator())
        assert samples.counts == {spec.expected: 200}

    def test_random_base_noiseless_success_is_one(self):
        base = random_clifford_circuit(6, 12, SeedStream(10))
        spec = make_mirror_circuit(base, SeedStream(11))
        samples = stabilizer_sample(spec.circuit, 1000, SeedStream(12).generator())
        assert samples.counts.get(spec.expected, 0) == 1000

    def test_non_clifford_base_rejected(self):
        with pytest.raises(NonCliffordError):
            make_mirror_circuit(Circuit.from_gates(2, [T(0)]), SeedStream(1))

    @pytest.mark.parametrize("width", [*range(1, 13), 20, 50])
    def test_expected_outcome_matches_the_tableau(self, width):
        # The outcome read from the Pauli layer's frame against a full tableau
        # evolution of the mirror circuit, the oracle the construction replaced.
        for depth in (1, 3, 10):
            for r in range(20):
                item = SeedStream(2026, (width, depth, r))
                base = random_clifford_circuit(width, depth, item.child(0))
                spec = make_mirror_circuit(base, item.child(1))
                assert spec.expected == deterministic_outcome(spec.circuit), (depth, r)

    def test_construction_evolves_no_tableau(self, monkeypatch):
        # `_run` is the tableau's one gate loop, which `evolve_tableau` and
        # `stabilizer_sample` both go through.
        calls = []
        run = qbench.stabilizer._run
        monkeypatch.setattr(qbench.stabilizer, "_run",
                            lambda circuit, *args: calls.append(circuit) or run(circuit, *args))
        make_mirror_circuit(random_clifford_circuit(8, 6, SeedStream(16)), SeedStream(17))
        assert calls == []
        run_mirror_benchmark(DeviceModel.complete(5), None, [3, 5], [2, 4], 3, 20,
                             SeedStream(18))
        assert len(calls) == 2 * 2 * 3  # the one inside each circuit's stabilizer_sample

    def test_mirror_success_exact_up_to_width_50(self):
        for width in (12, 50):
            base = random_clifford_circuit(width, 8, SeedStream(13 + width))
            spec = make_mirror_circuit(base, SeedStream(14 + width))
            samples = stabilizer_sample(spec.circuit, 100, SeedStream(15 + width).generator())
            assert samples.counts.get(spec.expected, 0) == 100


class TestVolumetric:
    @pytest.mark.parametrize("shape,width,depth", [
        ("square", 4, 4),
        ("aq", 3, 9),
        ("shallow", 8, 4),
        ("deep", 2, 8),
    ])
    def test_depth_formulas(self, shape, width, depth):
        fam = volumetric_family(shape, [width], SeedStream(16))
        assert fam[0][:2] == (width, depth)
        assert fam[0][2].depth == depth

    def test_empty_widths_rejected(self):
        with pytest.raises(ValidationError):
            volumetric_family(VolumetricShape.SQUARE, [], SeedStream(1))

    def test_rows_follow_request(self):
        fam = volumetric_family("square", [2, 3, 4], SeedStream(17))
        assert [(w, d) for w, d, _ in fam] == [(2, 2), (3, 3), (4, 4)]
