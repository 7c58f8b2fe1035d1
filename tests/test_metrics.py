import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from statevector_reference import apply_unitary_batch

import qbench
from qbench.circuits import (
    CX, CZ, SWAP, U2Q, Barrier, Circuit, GateKind, H, PauliLayer, Rx, Ry, Rz, S, Sdg, T, Tdg, X, Y,
    Z, gate_unitary, measure_all, pauli_matrix,
)
from qbench.device import DeviceModel
from qbench.distributions import ProbDist, SampleSet
from qbench.errors import DegenerateInputError, ValidationError
from qbench.metrics import (
    METRIC_DESCRIPTORS, METRIC_TABLE, collision_delta, collision_volume, eplg,
    heavy_set, hellinger_distance, hog_probability, l1_distance, shots_for_precision,
    static_device_metrics, xeb_alpha,
)
from qbench.noise import PAULI_LABELS, NoiseModel, gate_sites
from qbench.randgen import haar_unitary, layered_model_circuit
from qbench.rng import SeedStream
from qbench.statevector import ideal_distribution, sample_counts


def dist(values) -> ProbDist:
    arr = np.asarray(values, dtype=float)
    n_bits = arr.size.bit_length() - 1
    return ProbDist(n_bits, arr)


class TestHeavySet:
    def test_hand_computed(self):
        assert heavy_set(dist([0.4, 0.3, 0.2, 0.1])) == {"00", "01"}

    def test_uniform_has_empty_heavy_set(self):
        assert heavy_set(ProbDist.uniform(3)) == frozenset()

    def test_point_mass(self):
        assert heavy_set(dist([1.0, 0.0])) == {"0"}


class TestHog:
    def test_ideal_sampler(self):
        p = dist([0.4, 0.3, 0.2, 0.1])
        assert hog_probability(p, p) == pytest.approx(0.7)

    def test_uniform_sampler_gives_half(self):
        p = dist([0.4, 0.3, 0.2, 0.1])
        assert hog_probability(ProbDist.uniform(2), p) == pytest.approx(0.5)

    def test_sample_set_input(self):
        p = dist([0.4, 0.3, 0.2, 0.1])
        s = SampleSet(2, {"00": 6, "01": 1, "10": 2, "11": 1})
        assert hog_probability(s, p) == pytest.approx(0.7)

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            hog_probability(ProbDist.uniform(1), ProbDist.uniform(2))

    def test_distribution_input_ignores_the_hash_seed(self):
        # The heavy mass is summed in index order, so string hashing cannot
        # reorder the sum and move its last digits.
        code = ("from qbench.metrics import hog_probability; from qbench.randgen import "
                "qv_model_circuit; from qbench.rng import SeedStream; from qbench.statevector "
                "import ideal_distribution; p = ideal_distribution(qv_model_circuit(8, "
                "SeedStream(3))); print(repr(hog_probability(p, p)))")
        src = str(Path(qbench.__file__).resolve().parents[1])
        outputs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True, env={**os.environ, "PYTHONPATH": src,
                                                   "PYTHONHASHSEED": seed}).stdout
                   for seed in ("1", "2", "3")}
        assert len(outputs) == 1

    def test_ideal_dominates_uniform(self):
        for k in range(10):
            p = ideal_distribution(layered_model_circuit(4, 4, SeedStream(400 + k)))
            assert hog_probability(p, p) >= hog_probability(ProbDist.uniform(4), p)


class TestDistances:
    def test_hellinger_identity_and_disjoint(self):
        p = dist([0.3, 0.7])
        assert hellinger_distance(p, p) == pytest.approx(0.0, abs=1e-12)
        assert hellinger_distance(dist([1, 0]), dist([0, 1])) == pytest.approx(1.0)

    def test_hellinger_closed_form(self):
        value = hellinger_distance(dist([1, 0]), dist([0.5, 0.5]))
        assert value == pytest.approx(math.sqrt(1 - math.sqrt(0.5)))
        assert value == pytest.approx(0.5411961001461971)

    def test_l1_cases(self):
        assert l1_distance(dist([0.5, 0.5]), dist([0.5, 0.5])) == 0.0
        assert l1_distance(dist([1, 0]), dist([0, 1])) == pytest.approx(2.0)
        assert l1_distance(dist([1, 0, 0, 0]), ProbDist.uniform(2)) == pytest.approx(1.5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        perm = rng.permutation(8)
        dp, dq = dist(p), dist(q)
        dpp, dqp = dist(p[perm]), dist(q[perm])
        assert hellinger_distance(dp, dq) == pytest.approx(hellinger_distance(dpp, dqp))
        assert l1_distance(dp, dq) == pytest.approx(l1_distance(dpp, dqp))
        assert hog_probability(dq, dp) == pytest.approx(hog_probability(dqp, dpp))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        p, q, r = (dist(rng.dirichlet(np.ones(4))) for _ in range(3))
        for metric in (hellinger_distance, l1_distance):
            assert metric(p, q) == pytest.approx(metric(q, p))
            assert metric(p, r) <= metric(p, q) + metric(q, r) + 1e-12


class TestXeb:
    def test_uniform_samples_give_zero(self):
        p = ideal_distribution(layered_model_circuit(6, 6, SeedStream(41)))
        m = 200_000
        rng = SeedStream(42).generator()
        counts = rng.multinomial(m, ProbDist.uniform(6).probs)
        samples = SampleSet(6, {format(i, "06b"): int(c) for i, c in enumerate(counts) if c})
        result = xeb_alpha(samples, p)
        assert abs(result.alpha_tilde) < 3 / math.sqrt(m)
        assert result.stderr == pytest.approx(1 / math.sqrt(m))

    def test_ideal_samples_approach_circuit_constant(self):
        circuit = layered_model_circuit(6, 6, SeedStream(43))
        p = ideal_distribution(circuit)
        const = -float(np.log(p.probs).mean()) + float((p.probs * np.log(p.probs)).sum())
        m = 200_000
        counts = SeedStream(44).generator().multinomial(m, p.probs)
        samples = SampleSet(6, {format(i, "06b"): int(c) for i, c in enumerate(counts) if c})
        assert abs(xeb_alpha(samples, p).alpha_tilde - const) < 3 / math.sqrt(m)

    def test_zero_probability_entries_rejected(self):
        with pytest.raises(DegenerateInputError):
            xeb_alpha(SampleSet(1, {"0": 5}), dist([1.0, 0.0]))

    def test_mixture_lands_midway(self):
        # Linearity in fidelity: half ideal + half uniform samples sit between
        # the pure-ideal and pure-uniform values.
        circuit = layered_model_circuit(6, 6, SeedStream(45))
        p = ideal_distribution(circuit)
        m = 100_000
        rng = SeedStream(46).generator()
        ideal_counts = rng.multinomial(m // 2, p.probs)
        uniform_counts = rng.multinomial(m // 2, ProbDist.uniform(6).probs)
        counts = ideal_counts + uniform_counts
        samples = SampleSet(6, {format(i, "06b"): int(c) for i, c in enumerate(counts) if c})
        mixed = xeb_alpha(samples, p)
        const = -float(np.log(p.probs).mean()) + float((p.probs * np.log(p.probs)).sum())
        assert abs(mixed.alpha_tilde - const / 2) < 3 * mixed.stderr


class TestCollision:
    def test_hand_plug_in(self):
        s = SampleSet(2, {"00": 2})
        stats = collision_volume(s)
        assert (stats.distinct, stats.collisions) == (1, 1)
        m, n = 2.0, 4.0
        expected = (1 - m + n * (1 - math.exp(-m / n))) / (n * n / (n + m) - n * math.exp(-m / n))
        assert stats.delta_hat == pytest.approx(expected)

    def test_distinct_plus_collisions_is_shots(self):
        s = SampleSet(2, {"00": 3, "01": 1, "11": 2})
        stats = collision_volume(s)
        assert stats.distinct + stats.collisions == stats.shots == 6

    def test_needs_two_shots(self):
        with pytest.raises(ValidationError):
            collision_volume(SampleSet(1, {"0": 1}))

    def test_uniform_sampling_expectation_zero(self):
        # 50-run Monte Carlo mean at n=14, m=4096 sits within +/- 0.15 of 0.
        n_bits, m = 14, 4096
        rng = SeedStream(47).generator()
        deltas = []
        for _ in range(50):
            idx = rng.integers(0, 1 << n_bits, size=m)
            distinct = len(np.unique(idx))
            deltas.append(collision_delta(m - distinct, m, 1 << n_bits))
        assert abs(float(np.mean(deltas))) < 0.15

    def test_porter_thomas_expectation_one(self):
        # Exponentially distributed probabilities model a typical random state.
        n_bits, m = 14, 4096
        rng = SeedStream(48).generator()
        deltas = []
        for _ in range(50):
            p = rng.exponential(size=1 << n_bits)
            p /= p.sum()
            idx = rng.choice(1 << n_bits, size=m, p=p)
            distinct = len(np.unique(idx))
            deltas.append(collision_delta(m - distinct, m, 1 << n_bits))
        assert abs(float(np.mean(deltas)) - 1.0) < 0.2


class TestEplg:
    def test_perfect_layer(self):
        assert eplg(1.0, 10) == 0.0

    def test_exponent_cancellation(self):
        assert eplg(0.99 ** 10, 10) == pytest.approx(0.01)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            eplg(0.0, 3)
        with pytest.raises(ValidationError):
            eplg(0.9, 0)

    def test_simulator_layer_fidelity_matches_density_matrix_oracle(self):
        # Layer = one CX with 2q depolarizing p; LF from repeated-layer decay of
        # the all-zeros return probability, EPLG within 30% of the oracle run
        # the same way on an exact density matrix.
        p = 0.02
        device = DeviceModel.complete(2)
        noise = NoiseModel.uniform(p2=p)
        lengths = [1, 2, 4, 8, 16, 32]
        shots = 40_000

        survivals = []
        for k in lengths:
            c = measure_all(Circuit.from_gates(2, [CX(0, 1) for _ in range(k)]))
            s = sample_counts(c, shots, noise, SeedStream(49, (k,)).generator())
            survivals.append(s.counts.get("00", 0) / shots)

        # Exact oracle: depolarizing channel after each CX on a density matrix.
        cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        paulis = []
        one = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
               np.array([[1, 0], [0, -1]])]
        for i in range(4):
            for j in range(4):
                if i or j:
                    paulis.append(np.kron(one[i], one[j]))
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        oracle = []
        for k in range(max(lengths) + 1):
            if k in lengths:
                oracle.append(float(rho[0, 0].real))
            rho = cx @ rho @ cx.conj().T
            rho = (1 - p) * rho + (p / 15) * sum(P @ rho @ P.conj().T for P in paulis)

        def decay_of(values):
            from qbench.protocols import fit_rb_decay
            _, lf, _, _ = fit_rb_decay(lengths, values, 2)
            return lf

        lf_measured = decay_of(survivals)
        lf_oracle = decay_of(oracle)
        measured = eplg(lf_measured, 1)
        expected = eplg(lf_oracle, 1)
        assert abs(measured - expected) <= 0.3 * expected


def _every_kind_circuit(n: int, rng: np.random.Generator) -> Circuit:
    """Two rounds of every gate kind on random targets of n qubits, shuffled, all measured."""
    gates = []
    for _ in range(2):
        def on(k):
            return [int(t) for t in rng.choice(n, k, replace=False)]
        kinds = [make(*on(1)) for make in (H, X, Y, Z, S, Sdg, T, Tdg)]
        kinds += [make(*on(1), float(rng.uniform(-math.pi, math.pi))) for make in (Rx, Ry, Rz)]
        kinds += [make(*on(2)) for make in (CX, CZ, SWAP)]
        kinds += [U2Q(*on(2), haar_unitary(4, rng)), PauliLayer(on(2), "XZ", -1), Barrier(*on(2))]
        gates += [kinds[i] for i in rng.permutation(len(kinds))]
    return measure_all(Circuit.from_gates(n, gates))


def _channel_distribution(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """The exact output distribution of `circuit` under `noise` (no drift), on a
    density matrix: each gate's unitary, then for each of its sites (qubits, p)
    the depolarizing channel (1 - p) rho + p / L sum_P P rho P over the L
    non-identity Paulis on the site's qubits; then each measured bit flips
    with its readout rate. Every qubit is measured, qubit 0 the high bit."""
    n = circuit.n_qubits

    def on_all(unitary, targets):
        return apply_unitary_batch(np.eye(1 << n, dtype=complex), unitary, targets, n).T

    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.all_gates():
        if gate.kind in (GateKind.MEASURE, GateKind.BARRIER):
            continue
        u = on_all(gate_unitary(gate), gate.targets)
        rho = u @ rho @ u.conj().T
        for qubits, p in gate_sites(noise, gate):
            paulis = [on_all(np.array(functools.reduce(np.kron, map(pauli_matrix, label))), qubits)
                      for label in PAULI_LABELS[len(qubits)]]
            rho = (1 - p) * rho + p / len(paulis) * sum(P @ rho @ P.conj().T for P in paulis)
    probs = rho.diagonal().real.copy()
    index = np.arange(1 << n)
    for q in range(n):
        r = noise.readout_for(q)
        probs = (1 - r) * probs + r * probs[index ^ (1 << (n - 1 - q))]
    return probs


class TestDensityMatrixOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sampled_distribution_matches_the_exact_channel(self, n):
        # Every gate kind under 1q, 2q and readout noise, at widths where the
        # statevector plan is one op whose sites carry frames: the sampled
        # distribution is within a seeded total-variation bound of the exact
        # channel. 20,000 shots over at most 16 outcomes put the expected
        # distance near 0.01; the noise moves the exact distribution by far
        # more than the bound, so a wrong channel cannot pass.
        noise = NoiseModel.uniform(p1=0.02, p2=0.05, readout=0.02)
        circuit = _every_kind_circuit(n, SeedStream(130, (n,)).generator())
        exact = _channel_distribution(circuit, noise)
        shots = 20_000
        sampled = np.zeros(1 << n)
        for key, count in sample_counts(circuit, shots, noise,
                                        SeedStream(131, (n,)).generator()).counts.items():
            sampled[int(key, 2)] = count / shots
        ideal = ideal_distribution(circuit).probs
        assert 0.5 * np.abs(exact - ideal).sum() > 0.05
        assert 0.5 * np.abs(sampled - exact).sum() < 0.02


class TestStaticMetrics:
    def test_line_of_five(self):
        m = static_device_metrics(DeviceModel.linear(5))
        assert m["working_connected_qubits"] == 5
        assert m["degree"]["avg"] == pytest.approx(1.6)

    def test_dead_qubit_splits_line(self):
        dev = DeviceModel(n_qubits=5, working=(True, True, False, True, True),
                          edges=tuple((i, i + 1, 1.0) for i in range(4)),
                          native_gates=frozenset({GateKind.CX}))
        assert static_device_metrics(dev)["working_connected_qubits"] == 2

    def test_no_couplings(self):
        dev = DeviceModel(n_qubits=3, working=(True,) * 3, edges=(),
                          native_gates=frozenset({GateKind.CX}))
        m = static_device_metrics(dev)
        assert m["coupling_spectral_norm"] == 0.0
        assert m["working_connected_qubits"] == 1

    def test_fidelity_from_error_book(self):
        dev = DeviceModel.linear(2, gate_error={GateKind.CX: 0.02, GateKind.H: 0.001})
        m = static_device_metrics(dev)
        assert m["gate_fidelity"]["min"] == pytest.approx(0.98)
        assert m["gate_fidelity"]["max"] == pytest.approx(0.999)


class TestShotPlan:
    def test_headline_plan(self):
        assert shots_for_precision(0.5, 0.005).shots == 10_000

    def test_loose_target_needs_one_shot(self):
        assert shots_for_precision(0.5, 0.5).shots == 1

    def test_degenerate_probability_rejected(self):
        for p in (0.0, 1.0):
            with pytest.raises(DegenerateInputError):
                shots_for_precision(p, 0.01)

    def test_plan_reproduces_target_std(self):
        plan = shots_for_precision(0.5, 0.005)
        rng = SeedStream(50).generator()
        estimates = rng.binomial(plan.shots, 0.5, size=200) / plan.shots
        assert float(np.std(estimates, ddof=1)) <= 1.1 * 0.005


class TestMetricRecord:
    def test_record_shape_with_descriptor(self):
        from qbench.metrics import metric_record

        rec = metric_record("xeb", 0.97, stderr=0.01)
        assert rec["name"] == "xeb"
        assert rec["value"] == pytest.approx(0.97)
        assert rec["stderr"] == pytest.approx(0.01)
        assert rec["descriptor"]["practical"] == "no"

    def test_stderr_optional_and_unknown_names_have_no_descriptor(self):
        from qbench.metrics import metric_record

        rec = metric_record("mean_success", 1.0)
        assert "stderr" not in rec
        assert "descriptor" not in rec


class TestDescriptorTable:
    # Independent transcription of the published attribute table (14 metrics).
    EXPECTED = {
        "working_connected_qubits": ("yes", "yes", "yes", "yes", "yes", ("scalability",)),
        "processor_connectivity": ("yes", "yes", "no", "no", "yes", ("scalability", "speed")),
        "gate_fidelity": ("yes", "yes", "no", "undetermined", "no", ("quality",)),
        "decoherence_times": ("yes", "yes", "no", "undetermined", "no", ("quality",)),
        "gate_speed": ("yes", "yes", "no", "yes", "no", ("speed",)),
        "quantum_volume": ("no", "no", "no", "no", "yes", ("scalability", "quality")),
        "q_score": ("yes", "no", "no", "no", "yes", ("scalability", "quality")),
        "clops": ("no", "no", "yes", "no", "no", ("speed",)),
        "algorithmic_qubits": ("no", "yes", "no", "no", "yes", ("scalability", "quality")),
        "xeb": ("no", "yes", "yes", "undetermined", "yes", ("quality",)),
        "hellinger_distance": ("no", "yes", "yes", "undetermined", "yes", ("quality",)),
        "heavy_output_generation": ("no", "yes", "yes", "undetermined", "yes", ("quality",)),
        "l1_distance": ("no", "yes", "yes", "undetermined", "yes", ("quality",)),
        "collision_volume": ("no", "yes", "yes", "undetermined", "yes", ("quality",)),
    }

    def test_fourteen_metrics_shipped(self):
        assert len(METRIC_TABLE) == 14

    def test_flags_match_published_table(self):
        assert set(METRIC_DESCRIPTORS) == set(self.EXPECTED)
        for name, flags in self.EXPECTED.items():
            d = METRIC_DESCRIPTORS[name]
            got = (d.practical.value, d.repeatable.value, d.reliable.value,
                   d.linear.value, d.consistent.value, d.performance)
            assert got == flags, name
