import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stabilizer_reference import reference_sample

from qbench.circuits import (
    CX, CZ, SWAP, Circuit, GateKind, H, Measure, PauliLayer, Rz, S, Sdg, T, X, Y, Z, gate_unitary,
    inverse_circuit, inverse_gate, measure_all, pauli_matrix,
)
from qbench.distributions import ProbDist, SampleSet
from qbench.errors import NonCliffordError, ValidationError, WidthCapError
from qbench.metrics import hellinger_distance
from qbench.noise import DriftSchedule, NoiseModel, drift_rate_at
from qbench.cliffords import clifford_group
from qbench.randgen import haar_unitary, random_clifford_circuit
from qbench.rng import SeedStream
from qbench.stabilizer import _push_frame, _sign_flips, stabilizer_sample
from qbench.statevector import ideal_distribution, run_statevector, sample_counts


class TestIdealDistribution:
    def test_hadamard(self):
        assert ideal_distribution(Circuit(1, ((H(0),),))).probs == pytest.approx([0.5, 0.5])

    def test_bell(self):
        c = Circuit.from_gates(2, [H(0), CX(0, 1)])
        assert ideal_distribution(c).probs == pytest.approx([0.5, 0, 0, 0.5])

    def test_against_dense_matrix_oracle(self):
        # Independent oracle: explicit kron products applied to e0.
        rng = SeedStream(21).generator()
        from qbench.circuits import Gate

        gates = []
        for _ in range(12):
            if rng.random() < 0.5:
                q = int(rng.integers(0, 3))
                gates.append(Gate(GateKind.RY, (q,), angle=float(rng.uniform(0, math.pi))))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                gates.append(CX(int(a), int(b)))
        c = Circuit.from_gates(3, gates)

        full = np.eye(8, dtype=complex)
        for g in gates:
            u = gate_unitary(g)
            if len(g.targets) == 1:
                mats = [np.eye(2, dtype=complex)] * 3
                mats[g.targets[0]] = u
                big = np.kron(np.kron(mats[0], mats[1]), mats[2])
            else:
                big = np.zeros((8, 8), dtype=complex)
                for i in range(8):
                    bits = [(i >> 2) & 1, (i >> 1) & 1, i & 1]
                    col = np.zeros(8, dtype=complex)
                    sub_in = (bits[g.targets[0]] << 1) | bits[g.targets[1]]
                    for sub_out in range(4):
                        amp = u[sub_out, sub_in]
                        if amp != 0:
                            out_bits = bits.copy()
                            out_bits[g.targets[0]] = sub_out >> 1
                            out_bits[g.targets[1]] = sub_out & 1
                            j = (out_bits[0] << 2) | (out_bits[1] << 1) | out_bits[2]
                            col[j] += amp
                    big[:, i] = col
            full = big @ full
        expected = np.abs(full[:, 0]) ** 2
        assert np.max(np.abs(ideal_distribution(c).probs - expected)) < 1e-10

    def test_width_cap_error_names_cap(self):
        with pytest.raises(WidthCapError) as err:
            ideal_distribution(Circuit(25, ()), cap=24)
        assert "24" in str(err.value)
        assert "not practical" in str(err.value)

    def test_measured_subset_marginalizes_in_cbit_order(self):
        c = Circuit(2, ((X(0),), (Measure(1, 0), Measure(0, 1))))
        # bit 0 reads qubit 1 (=0), bit 1 reads qubit 0 (=1) -> "01"
        assert ideal_distribution(c).probs == pytest.approx([0, 1, 0, 0])

    def test_roundtrip_circuit_is_point_mass(self):
        c = random_clifford_circuit(4, 6, SeedStream(22))
        loop = Circuit(4, c.layers + inverse_circuit(c).layers)
        probs = ideal_distribution(loop).probs
        assert probs[0] == pytest.approx(1.0, abs=1e-10)


class TestSampling:
    def test_noiseless_bell_matches_ideal(self):
        c = measure_all(Circuit.from_gates(2, [H(0), CX(0, 1)]))
        samples = sample_counts(c, 100_000, None, SeedStream(23).generator())
        d = hellinger_distance(samples.empirical(), ideal_distribution(c))
        assert d < 0.02

    def test_full_depolarization_is_uniform(self):
        c = measure_all(Circuit(1, ((H(0),),)))
        noise = NoiseModel.uniform(p1=1.0)
        samples = sample_counts(c, 100_000, noise, SeedStream(24).generator())
        p0 = samples.counts["0"] / samples.shots
        assert abs(p0 - 0.5) < 3 * math.sqrt(0.25 / 100_000)

    def test_fixed_seed_fixed_noise_identical(self):
        c = measure_all(random_clifford_circuit(4, 5, SeedStream(25)))
        noise = NoiseModel.uniform(p1=0.02, p2=0.05, readout=0.01)
        a = sample_counts(c, 500, noise, SeedStream(26).generator())
        b = sample_counts(c, 500, noise, SeedStream(26).generator())
        assert a == b

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError):
            sample_counts(Circuit(1, ((H(0),),)), 0, None, SeedStream(1).generator())

    def test_readout_only_noise_flips_bits(self):
        c = measure_all(Circuit(1, ()))
        noise = NoiseModel.uniform(readout=1.0)
        samples = sample_counts(c, 100, noise, SeedStream(27).generator())
        assert samples.counts == {"1": 100}

    def test_depolarizing_z_decay_matches_density_matrix_oracle(self):
        # <Z> after k noisy identity gates; oracle from the 1q Pauli transfer
        # matrix of the uniform-Pauli injection channel: factor (1 - 4p/3).
        p, k, shots = 0.08, 12, 60_000
        gates = [Rz(0, 0.0) for _ in range(k)]
        c = measure_all(Circuit.from_gates(1, gates))
        noise = NoiseModel.uniform(p1=p)
        samples = sample_counts(c, shots, noise, SeedStream(28).generator())
        z = (samples.counts.get("0", 0) - samples.counts.get("1", 0)) / shots
        expected = (1 - 4 * p / 3) ** k
        sigma = math.sqrt((1 - expected ** 2) / shots)
        assert abs(z - expected) < 3 * sigma

    def test_norm_preserved_over_many_gates(self):
        rng = SeedStream(29).generator()
        from qbench.circuits import Gate

        gates = []
        for _ in range(10_000):
            if rng.random() < 0.7:
                kind = GateKind(["rx", "ry", "rz"][int(rng.integers(0, 3))])
                gates.append(Gate(kind, (int(rng.integers(0, 4)),),
                                  angle=float(rng.uniform(0, 2 * math.pi))))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                gates.append(CX(int(a), int(b)))
        state = run_statevector(Circuit.from_gates(4, gates))
        assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-9


class TestDrift:
    def test_zero_schedule_returns_base(self):
        sched = DriftSchedule((0.0,), 0.0, SeedStream(1))
        assert [drift_rate_at(sched, 0.1, i) for i in range(4)] == [0.1] * 4

    def test_cyclic_offsets_alternate(self):
        sched = DriftSchedule((0.0, 0.5), 0.0, SeedStream(1))
        rates = [drift_rate_at(sched, 0.1, i) for i in range(4)]
        assert rates == pytest.approx([0.1, 0.6, 0.1, 0.6])

    def test_clamped_to_one(self):
        sched = DriftSchedule((0.5,), 0.0, SeedStream(1))
        assert drift_rate_at(sched, 0.9, 0) == 1.0

    def test_noise_component_reproducible(self):
        sched = DriftSchedule((0.0,), 0.05, SeedStream(2, (7,)))
        assert drift_rate_at(sched, 0.1, 5) == drift_rate_at(sched, 0.1, 5)
        assert np.array_equal(sched.offsets_for(10), sched.offsets_for(10))

    def test_period_must_be_positive(self):
        with pytest.raises(ValidationError):
            DriftSchedule((), 0.0, SeedStream(1))

    def test_drifted_sampling_is_deterministic(self):
        sched = DriftSchedule((0.0, 0.2), 0.01, SeedStream(3))
        noise = NoiseModel.uniform(p1=0.01, drift=sched)
        c = measure_all(Circuit.from_gates(2, [H(0), CX(0, 1)]))
        a = sample_counts(c, 300, noise, SeedStream(4).generator())
        b = sample_counts(c, 300, noise, SeedStream(4).generator())
        assert a == b


class TestStabilizer:
    def test_ghz_supports_only_two_strings(self):
        c = measure_all(Circuit.from_gates(3, [H(0), CX(0, 1), CX(1, 2)]))
        samples = stabilizer_sample(c, 4000, SeedStream(30).generator())
        assert set(samples.counts) == {"000", "111"}

    def test_t_gate_rejected(self):
        with pytest.raises(NonCliffordError):
            stabilizer_sample(measure_all(Circuit.from_gates(1, [T(0)])), 10,
                              SeedStream(1).generator())

    def test_matches_statevector_distribution(self):
        c = measure_all(random_clifford_circuit(6, 12, SeedStream(31)))
        ideal = ideal_distribution(c)
        samples = stabilizer_sample(c, 100_000, SeedStream(32).generator())
        tvd = 0.5 * float(np.abs(samples.empirical().probs - ideal.probs).sum())
        assert tvd < 0.02

    def test_noisy_stabilizer_deterministic(self):
        c = measure_all(random_clifford_circuit(4, 5, SeedStream(33)))
        noise = NoiseModel.uniform(p1=0.05, p2=0.1, readout=0.02)
        a = stabilizer_sample(c, 200, SeedStream(34).generator(), noise=noise)
        b = stabilizer_sample(c, 200, SeedStream(34).generator(), noise=noise)
        assert a == b

    @pytest.mark.parametrize("noise", [None, NoiseModel.uniform(p2=0.5)])
    def test_outcomes_wider_than_63_qubits(self, noise):
        # p2 on a circuit without 2q gates takes the noisy path and flips nothing
        c = measure_all(Circuit.from_gates(70, [X(0), X(69)]))
        samples = stabilizer_sample(c, 5, SeedStream(35).generator(), noise=noise)
        assert dict(samples.counts) == {"1" + "0" * 68 + "1": 5}


def _basis_state_clifford(n: int, depth: int, stream: SeedStream) -> Circuit:
    """Random circuit over X, S, CX, CZ, SWAP, Pauli layers, H.H pairs and H.S.SDG.H runs.

    Every outcome is deterministic, yet an error drawn inside a pair is
    conjugated by the gates after it, so noisy runs exercise how both backends
    carry errors through H and SDG. The S.SDG pair sits inside an H.H pair
    because the Z bit that SDG adds to an X error flips an outcome only after
    an H.
    """
    rng = stream.generator()
    gates = []
    for _ in range(depth):
        kind = int(rng.integers(0, 8))
        q = int(rng.integers(0, n))
        if kind == 0:
            gates.append(X(q))
        elif kind == 1:
            gates.append(S(q))
        elif kind == 2:
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            gates.append(PauliLayer(range(n), letters))
        elif kind == 3:
            gates += [H(q), H(q)]
        elif kind == 4:
            gates += [H(q), S(q), Sdg(q), H(q)]
        else:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append((CX, CZ, SWAP)[kind - 5](a, b))
    return measure_all(Circuit.from_gates(n, gates))


@st.composite
def _noisy_clifford_case(draw):
    """(circuit, noise, shots, seed): a random Clifford circuit of 1-8 qubits with a
    measured subset, and a noise model with or without drift and readout."""
    n = draw(st.integers(1, 8))
    qubit = st.integers(0, n - 1)
    one = st.builds(lambda make, q: make(q), st.sampled_from([H, S, Sdg, X, Y, Z]), qubit)
    layer = st.lists(qubit, min_size=1, unique=True).flatmap(
        lambda ts: st.text("IXYZ", min_size=len(ts), max_size=len(ts)).map(lambda w: PauliLayer(ts, w)))
    kinds = [one, one, layer]
    if n > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        kinds += [st.builds(lambda make, ab: make(*ab), st.sampled_from([CX, CZ, SWAP]), pair)] * 2
    gates = draw(st.lists(st.one_of(kinds), min_size=8, max_size=40))
    if draw(st.booleans()):
        # A mirror circuit, optionally with a few gates after it: its outcomes are
        # (nearly) fixed, so a frame bit carried through a gate wrongly shows.
        gates += [inverse_gate(g) for g in reversed(gates)]
        gates += draw(st.lists(st.one_of(kinds), max_size=3))
    measured = draw(st.lists(qubit, min_size=1, unique=True))
    circuit = Circuit.from_gates(n, gates + [Measure(q, i) for i, q in enumerate(measured)])
    drift = draw(st.none() | st.builds(
        lambda cycle, std, seed: DriftSchedule(tuple(cycle), std, SeedStream(seed)),
        st.lists(st.sampled_from([-0.05, 0.0, 0.05]), min_size=1, max_size=3),
        st.sampled_from([0.0, 0.02]), st.integers(0, 1000)))
    noise = NoiseModel.uniform(p1=draw(st.sampled_from([0.05, 0.3, 1.0])),
                               p2=draw(st.sampled_from([0.0, 0.1, 0.5])),
                               readout=draw(st.sampled_from([0.0, 0.05])), drift=drift)
    return circuit, noise, draw(st.integers(16, 64)), draw(st.integers(0, 2**32 - 1))


class TestPauliFrameSampler:
    """The frame sampler gives the per-shot tableau reference's counts exactly."""

    @given(_noisy_clifford_case())
    @settings(max_examples=300)
    def test_matches_per_shot_reference(self, case):
        circuit, noise, shots, seed = case
        frames = stabilizer_sample(circuit, shots, SeedStream(seed).generator(), noise=noise)
        assert frames == reference_sample(circuit, shots, SeedStream(seed).generator(), noise=noise)

    @pytest.mark.parametrize("gate", [
        H(0), S(0), Sdg(0), X(0), Y(0), Z(0), H(1), Sdg(1), Y(1),
        PauliLayer([0, 1], "XZ"), PauliLayer([1, 0], "XY"), PauliLayer([1], "Y"),
        CX(0, 1), CX(1, 0), CZ(0, 1), CZ(1, 0), SWAP(0, 1)],
        ids=lambda g: f"{g.kind.value}{list(g.targets)}")
    def test_frame_rules_conjugate_every_pauli(self, gate):
        # Column j holds the Pauli with x bits (j, j >> 1) and z bits (j >> 2, j >> 3)
        # on qubits (0, 1), x = z = 1 meaning Y. U P U^dagger must be the pushed
        # Pauli, with the sign `_sign_flips` gives: the tableau's rule, checked
        # against dense matrices.
        j = np.arange(16)
        fx = np.array([j & 1, j >> 1 & 1], dtype=np.uint8)
        fz = np.array([j >> 2 & 1, j >> 3 & 1], dtype=np.uint8)
        before = fx.copy(), fz.copy()
        signs = np.zeros(16, dtype=np.uint8) ^ _sign_flips(fx, fz, gate)
        _push_frame(fx, fz, gate)
        letter = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

        def matrix(x, z, col):
            return np.kron(*(pauli_matrix(letter[int(x[q, col]), int(z[q, col])]) for q in (0, 1)))

        for col in range(16):
            conj = _two_qubit_unitary(gate) @ matrix(*before, col) @ _two_qubit_unitary(gate).conj().T
            np.testing.assert_allclose(conj, (-1) ** int(signs[col]) * matrix(fx, fz, col),
                                       atol=1e-12, err_msg=str(col))

    def test_sign_rule_rejects_non_clifford_gates(self):
        x = z = np.zeros((1, 4), dtype=np.uint8)
        with pytest.raises(NonCliffordError):
            _sign_flips(x, z, T(0))

    def test_conjugation_table_matches_dense_conjugation(self):
        group = clifford_group(1)
        for index in range(len(group)):
            u = group.unitary(index)
            for p in "XYZ":
                image, sign = group.conjugated_pauli(index, p)
                np.testing.assert_allclose(u @ pauli_matrix(p) @ u.conj().T, sign * pauli_matrix(image),
                                           atol=1e-12, err_msg=f"{index} {p}")


def _two_qubit_unitary(gate):
    """Dense 4x4 unitary of a gate on qubits (0, 1), qubit 0 the most significant."""
    u = gate_unitary(gate)
    if gate.targets == (0,):
        return np.kron(u, np.eye(2))
    if gate.targets == (1,):
        return np.kron(np.eye(2), u)
    if gate.targets == (1, 0):
        swap = gate_unitary(SWAP(0, 1))
        return swap @ u @ swap
    return u


class TestSharedNoiseChannel:
    @pytest.mark.parametrize("sampler", ["statevector", "tableau"])
    def test_identity_pauli_layer_flips_every_qubit_at_two_thirds(self, sampler):
        # Each target of a Pauli layer is its own 1q site: at p1=1 it takes X, Y
        # or Z uniformly, and X and Y flip the bit.
        n, shots = 4, 6000
        c = measure_all(Circuit(n, ((PauliLayer(range(n), "I" * n),),)))
        noise, rng = NoiseModel.uniform(p1=1.0), SeedStream(60).generator()
        if sampler == "statevector":
            samples = sample_counts(c, shots, noise, rng)
        else:
            samples = stabilizer_sample(c, shots, rng, noise=noise)
        sigma = math.sqrt((2 / 9) / shots)
        for q in range(n):
            flipped = sum(v for k, v in samples.counts.items() if k[q] == "1") / shots
            assert abs(flipped - 2 / 3) < 3 * sigma, (q, flipped)

    @pytest.mark.parametrize("k", range(4))
    def test_backends_draw_identical_errors_from_one_seed(self, k):
        # Outcomes of these circuits are fixed by their error realization, so
        # a shared draw layout makes the two backends agree shot by shot.
        n, shots = 5, 2000
        assert shots << n <= 1 << 22  # one statevector chunk
        c = _basis_state_clifford(n, 30, SeedStream(61, (k,)))
        noise = NoiseModel.uniform(p1=0.05, p2=0.1)
        sv = sample_counts(c, shots, noise, SeedStream(62, (k,)).generator())
        st = stabilizer_sample(c, shots, SeedStream(62, (k,)).generator(), noise=noise)
        assert len(sv.counts) > 1
        assert sv == st

    @pytest.mark.parametrize("k", range(3))
    def test_noisy_backends_agree_in_distribution(self, k):
        n, shots = 4, 4000
        c = measure_all(random_clifford_circuit(n, 6, SeedStream(63, (k,))))
        drift = DriftSchedule((0.0, 0.02), 0.01, SeedStream(64, (k,)))
        noise = NoiseModel.uniform(p1=0.03, p2=0.08, readout=0.02, drift=drift)
        sv = sample_counts(c, shots, noise, SeedStream(65, (k,)).generator())
        st = stabilizer_sample(c, shots, SeedStream(66, (k,)).generator(), noise=noise)
        tvd = 0.5 * float(np.abs(sv.empirical().probs - st.empirical().probs).sum())
        # Two independent 4000-shot samples of these 16-outcome distributions
        # sit about 0.03 apart in TVD from sampling alone.
        assert tvd < 0.06


class TestDistributions:
    def test_probdist_must_normalize(self):
        with pytest.raises(ValidationError):
            ProbDist(1, np.array([0.7, 0.7]))

    def test_sampleset_counts_must_match_shots(self):
        with pytest.raises(ValidationError):
            SampleSet(1, {"0": 3}, shots=5)

    def test_merge_is_commutative_and_associative(self):
        a = SampleSet(1, {"0": 2})
        b = SampleSet(1, {"0": 1, "1": 4})
        c = SampleSet(1, {"1": 1})
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_json_roundtrip(self):
        s = SampleSet(2, {"01": 3, "11": 2})
        assert SampleSet.from_json(s.to_json()) == s
        p = ProbDist(2, np.array([0.25, 0.25, 0.25, 0.25]))
        assert ProbDist.from_json(p.to_json()).probs == pytest.approx(p.probs)
