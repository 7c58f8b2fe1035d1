import math
import re
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stabilizer_reference import reference_outcome_space, reference_sample
from statevector_reference import (
    _apply_gate, _apply_paulis, apply_unitary_batch, reference_amplitudes, reference_sample_counts,
    reference_sequence_unitary,
)

from qbench import statevector
from qbench.circuits import (
    CX, CZ, SWAP, TWO_QUBIT_KINDS, U2Q, Barrier, Circuit, GateKind, H, Measure, PauliLayer, Rx, Ry, Rz, S, Sdg, T,
    Tdg, X, Y, Z, gate_unitary, inverse_circuit, inverse_gate, measure_all, pauli_matrix,
)
from qbench.device import DeviceModel
from qbench.distributions import ProbDist, SampleSet, index_to_bits
from qbench.errors import NonCliffordError, ValidationError, WidthCapError
from qbench.metrics import hellinger_distance
from qbench.noise import (
    PAULI_LABELS, DriftSchedule, NoiseModel, draw_errors, drift_rate_at, firing_sites,
)
from qbench.cliffords import clifford_group
from qbench.randgen import (
    haar_unitary, layered_model_circuit, make_mirror_circuit, qv_model_circuit,
    random_clifford_circuit,
)
from qbench.rng import SeedStream
from qbench.stabilizer import _push_frame, _sign_flips, evolve_tableau, stabilizer_sample
from qbench.statevector import (
    _plan, apply_paulis, apply_unitary, ideal_distribution, run_statevector, sample_counts,
)
from qbench.transpile import TranspileConfig, run_pipeline


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
            ideal_distribution(Circuit(25, ()))
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

    def test_zero_probability_outcome_takes_no_draw(self):
        # Ry(6.32e-17) on the low qubit gives each odd outcome a probability of
        # 2.5e-34 where Ry(0) gives exactly 0; every shot still takes one draw,
        # so no count of the seeded call moves.
        def counts(angle):
            c = measure_all(Circuit.from_gates(3, [H(0), H(1), Ry(2, angle)]))
            return sample_counts(c, 1000, None, SeedStream(28).generator()).counts

        assert 0 < np.abs(run_statevector(Circuit.from_gates(1, [Ry(0, 6.32e-17)])).amps[1]) < 1e-16
        assert counts(6.32e-17) == counts(0.0)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError):
            sample_counts(Circuit(1, ((H(0),),)), 0, None, SeedStream(1).generator())

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValidationError, match="no qubits"):
            sample_counts(Circuit(0, ()), 5, None, SeedStream(1).generator())

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


def _dense_operator(unitary: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """`unitary` on `targets` of n qubits as a 2**n matrix, summed from Kronecker products
    of |i><j| on the targets and identities elsewhere."""
    k = len(targets)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(1 << k):
        for j in range(1 << k):
            factors = [np.eye(2)] * n
            for m, t in enumerate(targets):
                factors[t] = np.zeros((2, 2))
                factors[t][(i >> (k - 1 - m)) & 1, (j >> (k - 1 - m)) & 1] = 1.0
            term = np.eye(1)
            for f in factors:
                term = np.kron(term, f)
            full += unitary[i, j] * term
    return full


@st.composite
def _kernel_case(draw):
    """(state tensor, unitary, targets): 1-3 distinct targets in any order on 1-6 qubits."""
    n = draw(st.integers(1, 6))
    targets = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = draw(st.integers(1, 3))
    state = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
    unitary = haar_unitary(1 << len(targets), rng)
    return state.reshape((batch,) + (2,) * n), unitary, targets


_ONE_QUBIT = (H, X, Y, Z, S, Sdg, T, Tdg)
_ROTATIONS = (Rx, Ry, Rz)


@st.composite
def _any_circuit(draw):
    """A random circuit on 1-5 qubits over every gate kind, measured on a random subset.

    Two-qubit gates come in either target order, U2Q included, and pairs repeat
    often enough that successive 2q gates on one pair get fused.
    """
    n = draw(st.integers(1, 5))
    qubit = st.integers(0, n - 1)
    subset = st.lists(qubit, min_size=1, unique=True)
    kinds = [
        st.builds(lambda make, q: make(q), st.sampled_from(_ONE_QUBIT), qubit),
        st.builds(lambda make, q, a: make(q, a), st.sampled_from(_ROTATIONS), qubit,
                  st.floats(-2 * math.pi, 2 * math.pi)),
        subset.flatmap(lambda ts: st.builds(
            lambda word, sign: PauliLayer(ts, word, sign),
            st.text("IXYZ", min_size=len(ts), max_size=len(ts)), st.sampled_from([1, -1]))),
        subset.map(lambda ts: Barrier(*ts)),
    ]
    if n > 1:
        pair = st.lists(st.integers(0, min(n, 3) - 1), min_size=2, max_size=2, unique=True)
        kinds += [
            st.builds(lambda make, ab: make(*ab), st.sampled_from([CX, CZ, SWAP]), pair),
            st.builds(lambda ab, seed: U2Q(*ab, haar_unitary(4, np.random.default_rng(seed))),
                      pair, st.integers(0, 2**32 - 1)),
        ] * 2
    gates = draw(st.lists(st.one_of(kinds), min_size=4, max_size=30))
    measured = draw(st.lists(qubit, unique=True))
    return Circuit.from_gates(n, gates + [Measure(q, i) for i, q in enumerate(measured)])


@st.composite
def _any_noise(draw):
    """A noise model with per-kind rates, drift that can lift a zero rate, and readout."""
    drift = draw(st.none() | st.builds(
        lambda cycle, std, seed: DriftSchedule(tuple(cycle), std, SeedStream(seed)),
        st.lists(st.sampled_from([-0.05, 0.0, 0.05]), min_size=1, max_size=3),
        st.sampled_from([0.0, 0.02]), st.integers(0, 1000)))
    rate = st.sampled_from([0.0, 0.2])
    one_qubit = [k for k in GateKind if k not in TWO_QUBIT_KINDS | {GateKind.MEASURE, GateKind.BARRIER}]
    # Per-kind 2q rates make a noisy gate follow a noiseless one on the same pair.
    gate_error = {**draw(st.dictionaries(st.sampled_from(one_qubit), rate, max_size=3)),
                  **draw(st.dictionaries(st.sampled_from(sorted(TWO_QUBIT_KINDS)), rate, max_size=2))}
    return NoiseModel(
        gate_error=gate_error,
        readout_error=(draw(st.sampled_from([0.0, 0.05])),),
        default_1q=draw(st.sampled_from([0.0, 0.05, 0.3])),
        default_2q=draw(st.sampled_from([0.0, 0.1])), drift=drift)


def _evolve_amplitudes(plan, n: int) -> np.ndarray:
    rows, _ = statevector._evolve(plan, 1, n)
    return rows.reshape(-1)


class TestExecutionPlan:
    """The fused plan against the gate-by-gate reference of tests/statevector_reference.py."""

    @given(_kernel_case())
    @settings(max_examples=200)
    def test_kernel_matches_dense_kron(self, case):
        state, unitary, targets = case
        n, batch = state.ndim - 1, state.shape[0]
        out = apply_unitary(state, unitary, targets).reshape(batch, -1)
        expected = state.reshape(batch, -1) @ _dense_operator(unitary, targets, n).T
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @given(_any_circuit())
    @settings(max_examples=300)
    def test_fused_amplitudes_match_reference(self, circuit):
        np.testing.assert_allclose(run_statevector(circuit).amps, reference_amplitudes(circuit),
                                   atol=1e-12)

    @pytest.mark.parametrize("noises", [
        _any_noise(),
        st.just(NoiseModel.uniform(p1=0.05, p2=0.3, readout=0.05)),
        st.builds(lambda cycle, seed: NoiseModel.uniform(
            p1=0.05, p2=0.3, readout=0.05, drift=DriftSchedule(cycle, 0.05, SeedStream(seed))),
            st.sampled_from([(0.0,), (0.1, -0.3), (-0.05, 0.0, 0.2)]), st.integers(0, 1000)),
    ], ids=["any", "heavy", "heavy_drift"])
    @given(circuit=_any_circuit(), data=st.data(), shots=st.integers(1, 40),
           chunk_rows=st.sampled_from([1, 3, 1 << 16]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    def test_noisy_samples_match_reference(self, noises, circuit, data, shots, chunk_rows, seed):
        # chunk_rows << n amplitudes make chunks of chunk_rows trajectories, so
        # a chunk of a few rows splits shots that share their error history.
        noise = data.draw(noises)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(statevector, "_CHUNK_AMPS", chunk_rows << circuit.n_qubits)
            fused = sample_counts(circuit, shots, noise, SeedStream(seed).generator())
            reference = reference_sample_counts(circuit, shots, noise, SeedStream(seed).generator())
        assert fused == reference

    @pytest.mark.parametrize("qubits", [(0,), (3,), (1, 4), (4, 0)])
    def test_pauli_injection_matches_reference(self, qubits):
        # Every label of the site, each on its own hit rows, amplitude for amplitude.
        n, batch = 5, 60
        rng = SeedStream(74, qubits).generator()
        amps = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
        rows = np.flatnonzero(rng.random(batch) < 0.7)
        choices = rng.integers(0, len(PAULI_LABELS[len(qubits)]), size=len(rows))
        injected = amps.copy()
        hit = amps[rows].reshape((len(rows),) + (2,) * n)
        injected[rows] = apply_paulis(hit, qubits, choices).reshape(len(rows), -1)
        np.testing.assert_array_equal(injected, _apply_paulis(amps.copy(), qubits, rows, choices, n))

    @pytest.mark.parametrize("rate", [0.3, 1e-12], ids=["heavy", "never_hits"])
    def test_evolve_keeps_one_row_per_distinct_history(self, rate):
        # Reading the table gives each shot its history, the (site, label) of
        # every hit; shots share a row exactly when they share a history, and
        # each row is its history's state built from the circuit gate by gate,
        # each hit injected right after its gate. On 3 qubits the plan is one
        # op whose sites carry frames; on 6 it is the block path.
        u2q = haar_unitary(4, np.random.default_rng(75))
        gates = [H(0), X(1), Y(2), Z(0), S(1), Sdg(2), T(0), Tdg(1), Rx(2, 0.3), Ry(0, 0.7),
                 Rz(1, -1.1), CX(0, 1), CZ(2, 1), SWAP(0, 2), U2Q(1, 0, u2q), Barrier(0, 1, 2),
                 PauliLayer([0, 2], "XY", -1), CX(2, 0), S(1)]
        wide = [CX(2, 3), H(4), U2Q(4, 5, u2q), CZ(5, 3), Ry(3, 0.4), SWAP(1, 4)]
        noise = NoiseModel.uniform(p1=rate, p2=rate, drift=DriftSchedule((0.0, -rate / 2)))
        batch = 200
        offsets = noise.shot_offsets(batch)
        for n, c in ((3, Circuit.from_gates(3, gates)), (6, Circuit.from_gates(6, gates + wide))):
            plan = _plan(c, noise, offsets)
            assert (len(plan) == 1) == (n == 3)
            circuit_gates = list(c.all_gates())
            firing = firing_sites(noise, circuit_gates, offsets)
            gate_of = [g for g, sites in enumerate(firing) for _ in sites]
            sites = [s for sites in firing for s in sites]
            table = draw_errors(sites, [], offsets, batch, SeedStream(75, (n,)).generator())
            rows, history = statevector._evolve(plan, batch, n, table)
            histories = [()] * batch
            for site, shot, label in zip(*(column.tolist() for column in table)):
                histories[shot] += ((site, label),)
            if rate > 0.1:
                assert len(set(histories)) > 20
            row_of = dict(zip(histories, history.tolist()))
            assert len(rows) == len(row_of) == len(set(row_of.values()))
            assert all(row_of[h] == r for h, r in zip(histories, history.tolist()))
            if rate < 1e-6:
                assert len(rows) == 1
            for hist, r in row_of.items():
                amps = np.zeros((1, 1 << n), dtype=complex)
                amps[0, 0] = 1.0
                for g, gate in enumerate(circuit_gates):
                    amps = _apply_gate(amps, gate, n)
                    for site, label in hist:
                        if gate_of[site] == g:
                            amps = _apply_paulis(amps, sites[site][0], np.array([0]),
                                                 np.array([label]), n)
                np.testing.assert_allclose(rows[r].reshape(-1), amps[0], atol=1e-12)

    def test_drift_makes_zero_rate_gates_block_fusion(self):
        # Above 5 qubits a site closes its op: on 6 qubits, 4 of them idle, a
        # drift that can lift a zero rate gives every gate its own op. On 2
        # qubits the same sites ride on the one full-width op, in gate order.
        gates = [Rz(0, 0.3), H(1), CX(0, 1), Rx(1, 0.2), CX(0, 1)]
        c, wide = (measure_all(Circuit.from_gates(n, gates)) for n in (2, 6))
        assert [sites for _, _, sites in _plan(wide, NoiseModel.uniform(), None)] == [[]]
        drift = NoiseModel.uniform(drift=DriftSchedule((0.0, 0.05)))
        fired = [sites for _, _, sites in _plan(wide, drift, drift.shot_offsets(2))]
        assert fired == [[((0,), 0.0, None)], [((1,), 0.0, None)], [((0, 1), 0.0, None)],
                         [((1,), 0.0, None)], [((0, 1), 0.0, None)]]
        (op,) = _plan(c, drift, drift.shot_offsets(2))
        assert [(qubits, rate) for qubits, rate, _ in op[2]] \
            == [(qubits, rate) for [(qubits, rate, _)] in fired]
        assert op[2][-1][2] is None  # nothing follows the last gate
        # A drift that never lifts a rate above 0 draws nothing, so nothing blocks fusion.
        flat = NoiseModel.uniform(drift=DriftSchedule((0.0, -0.05)))
        assert len(_plan(wide, flat, flat.shot_offsets(2))) == 1
        assert [sites for _, _, sites in _plan(c, flat, flat.shot_offsets(2))] == [[]]

    def test_noisy_gate_after_noiseless_pair_starts_its_own_op(self):
        # Merging the noisy CX into the open CZ op would draw its errors too early.
        # Sites close ops above 5 qubits, so the plan is read on 6 (3 idle); the
        # samples are checked on 3 qubits, where the plan is one op.
        gates = [CZ(0, 1), H(0), X(2), CX(1, 0), CZ(0, 1)]
        noise = NoiseModel(gate_error={GateKind.CX: 0.3, GateKind.X: 0.3})
        plan = _plan(Circuit.from_gates(6, gates), noise, None)
        assert [(targets, sites) for targets, _, sites in plan] == [
            ((0, 1), []), ((2,), [((2,), 0.3, None)]), ((1, 0), [((1, 0), 0.3, None)]),
            ((0, 1), [])]
        c = measure_all(Circuit.from_gates(3, gates))
        assert len(_plan(c, noise, None)) == 1
        assert sample_counts(c, 200, noise, SeedStream(70).generator()) \
            == reference_sample_counts(c, 200, noise, SeedStream(70).generator())

    def test_noisy_pauli_layer_closes_every_target(self):
        # Each target of a noisy layer is a site: its letters are applied before the
        # draws, and the next CX on the pair does not fuse back over them. The plan
        # is read on 6 qubits (3 idle), where sites close ops; the samples on 3.
        gates = [CX(0, 2), PauliLayer([0, 2], "XI"), CX(0, 2)]
        wide = Circuit.from_gates(6, gates)
        assert [(targets, sites) for targets, _, sites in _plan(wide, NoiseModel.uniform(), None)] \
            == [((0, 2), [])]
        noise = NoiseModel.uniform(p1=0.1)
        plan = _plan(wide, noise, None)
        assert [(targets, sites) for targets, _, sites in plan] == [
            ((0, 2), []), ((2,), [((0,), 0.1, None), ((2,), 0.1, None)]), ((0, 2), [])]
        # The lone X on qubit 0 folds into the open (0, 2) op, ahead of the draws.
        np.testing.assert_array_equal(
            plan[0][1], np.kron(pauli_matrix("X"), np.eye(2)) @ gate_unitary(CX(0, 2)))
        np.testing.assert_array_equal(plan[1][1], np.eye(2))
        c = measure_all(Circuit.from_gates(3, gates))
        assert sample_counts(c, 200, noise, SeedStream(71).generator()) \
            == reference_sample_counts(c, 200, noise, SeedStream(71).generator())

    @pytest.mark.parametrize("noise", [
        NoiseModel.uniform(p2=0.2, readout=0.05),
        NoiseModel.uniform(readout=0.05, drift=DriftSchedule((0.0, -0.05))),
        NoiseModel(gate_error={GateKind.CX: 0.3}, readout_error=(0.05,),
                   drift=DriftSchedule((0.0, -0.02))),
    ], ids=["2q_rate_no_2q_gate", "readout_under_flat_drift", "cx_rate_under_flat_drift"])
    def test_call_without_draws_matches_reference(self, noise, monkeypatch):
        # No gate of the circuit can fire, so the plan carries no draws and one
        # state serves every chunk of 3 trajectories.
        c = measure_all(Circuit.from_gates(4, [H(0), Rz(0, 0.4), H(1), Ry(2, 1.1), Rx(3, 0.3)]))
        assert not any(sites for _, _, sites in _plan(c, noise, noise.shot_offsets(50)))
        monkeypatch.setattr(statevector, "_CHUNK_AMPS", 3 << c.n_qubits)
        assert sample_counts(c, 50, noise, SeedStream(72).generator()) \
            == reference_sample_counts(c, 50, noise, SeedStream(72).generator())

    def test_call_without_draws_evolves_one_state(self):
        # 14 qubits, 2000 shots: 8 chunks of 256 trajectories if each were evolved.
        c = measure_all(Circuit.from_gates(14, [H(q) for q in range(14)]))
        start = time.perf_counter()
        counts = sample_counts(c, 2000, NoiseModel.uniform(p2=0.01, readout=0.01),
                               SeedStream(73).generator())
        assert time.perf_counter() - start < 1.0
        assert counts.shots == 2000

    def test_lowered_collision_circuit_fuses_to_one_op_per_u2q(self):
        # Item 0 of the 14-qubit collision benchmark at seed 2026: 1778 lowered
        # gates, 98 source U2Q gates, fused into blocks of at most 4 qubits. The
        # count is pinned: a change that undoes fusion fails here.
        n = 14
        source = layered_model_circuit(n, n, SeedStream(2026, (0,)).child(0))
        lowered, _ = run_pipeline(measure_all(source), DeviceModel.complete(n), TranspileConfig())
        assert sum(g.kind is GateKind.U2Q for g in source.all_gates()) == 98
        assert len(_plan(lowered, None, None)) == 34

    def test_lowered_qv5_circuit_fuses_to_pinned_op_counts(self):
        # QV-5 circuit 0 of the noisy QV benchmark at seed 2026 is one full-width
        # op, noiseless or not: under p2 = 0.05 it carries the sites of its 30 CX
        # gates in firing order, each with the frame of the gates after it.
        circuit = qv_model_circuit(5, SeedStream(2026, (0,)).child(5, 0).child(0))
        lowered, _ = run_pipeline(measure_all(circuit), DeviceModel.complete(5), TranspileConfig())
        assert len(_plan(lowered, None, None)) == 1
        noise = NoiseModel.uniform(p2=0.05)
        (op,) = _plan(lowered, noise, None)
        assert op[0] == (0, 1, 2, 3, 4) and len(op[2]) == 30
        firing = firing_sites(noise, list(lowered.all_gates()), None)
        assert [(qubits, rate) for qubits, rate, _ in op[2]] == [s for sites in firing for s in sites]
        assert all(frame.shape == (32, 32) for _, _, frame in op[2])

    def test_plans_above_five_qubits_keep_their_op_counts(self):
        # The seed-76 layered 6-qubit circuit on complete(6) runs the block path,
        # where sites close ops: its op counts are pinned under 1q and 2q noise,
        # under 2q noise alone, and without noise.
        source = measure_all(layered_model_circuit(6, 6, SeedStream(76, (6,))))
        lowered, _ = run_pipeline(source, DeviceModel.complete(6), TranspileConfig())
        counts = [len(_plan(lowered, noise, None)) for noise in (
            NoiseModel.uniform(p1=0.02, p2=0.03), NoiseModel.uniform(p2=0.05), None)]
        assert counts == [324, 60, 7]

    @pytest.mark.parametrize("noise", [None, NoiseModel.uniform(p1=0.1, p2=0.1)],
                             ids=["noiseless", "noisy"])
    @given(circuit=_any_circuit())
    @settings(max_examples=150)
    def test_stacked_matrices_match_gate_products(self, noise, circuit):
        # Every kind, Pauli layers with a sign, U2Q, SWAP and CZ in either order:
        # the plan's ops multiply out to the gates' own unitaries, up to the
        # layers' signs, the one global phase the plan drops.
        n = circuit.n_qubits
        expected = np.eye(1 << n, dtype=complex)
        sign = 1
        for g in circuit.all_gates():
            if g.kind not in (GateKind.MEASURE, GateKind.BARRIER):
                expected = apply_unitary_batch(expected, gate_unitary(g), g.targets, n)
                sign *= g.sign
        product = np.eye(1 << n, dtype=complex)
        for targets, unitary, _ in _plan(circuit, noise, None):
            product = apply_unitary_batch(product, unitary, targets, n)
        np.testing.assert_allclose(sign * product, expected, atol=1e-12)

    @given(circuit=_any_circuit(), noise=_any_noise())
    @settings(max_examples=150)
    def test_plan_sites_are_the_firing_sites_in_order(self, circuit, noise):
        # Up to 5 qubits the plan is one op on every qubit, or none. A site's
        # frame V carries its Pauli P past the later gates: V P V† = A P A†, A
        # the product of the gates after the site's own, in circuit order. X
        # and Z on each of the site's qubits generate every label.
        n = circuit.n_qubits
        offsets = noise.shot_offsets(9)
        gates = list(circuit.all_gates())
        firing = firing_sites(noise, gates, offsets)
        plan = _plan(circuit, noise, offsets)
        assert [(qubits, rate) for _, _, sites in plan for qubits, rate, _ in sites] \
            == [s for sites in firing for s in sites]
        assert [targets for targets, _, _ in plan] in ([], [tuple(range(n))])

        def on_all(unitary, targets):
            return apply_unitary_batch(np.eye(1 << n, dtype=complex), unitary, targets, n).T

        frames = [frame for _, _, sites in plan for _, _, frame in sites]
        after = np.eye(1 << n, dtype=complex)
        for gate, sites in zip(reversed(gates), reversed(firing)):
            for qubits, _ in reversed(sites):
                frame = frames.pop()
                frame = np.eye(1 << n) if frame is None else frame
                for q in qubits:
                    for letter in "XZ":
                        pauli = on_all(pauli_matrix(letter), (q,))
                        np.testing.assert_allclose(frame @ pauli @ frame.conj().T,
                                                   after @ pauli @ after.conj().T, atol=1e-12)
            if gate.kind not in (GateKind.MEASURE, GateKind.BARRIER):
                after = after @ on_all(gate_unitary(gate), gate.targets)
        assert not frames

    @given(_any_circuit())
    @settings(max_examples=150)
    def test_noiseless_circuit_up_to_five_qubits_is_one_op(self, circuit):
        acts = any(g.kind not in (GateKind.MEASURE, GateKind.BARRIER)
                   and not (g.kind is GateKind.PAULI and set(g.paulis) == {"I"})
                   for g in circuit.all_gates())
        assert len(_plan(circuit, None, None)) == int(acts)

    @pytest.mark.parametrize("n", [3, 5, 6, 9])
    def test_no_block_exceeds_the_width_rule(self, n):
        # Up to 5 qubits one op on every qubit, noisy or not; else blocks of at
        # most 4 qubits, which the noiseless plans reach.
        source = measure_all(layered_model_circuit(n, n, SeedStream(76, (n,))))
        lowered, _ = run_pipeline(source, DeviceModel.complete(n), TranspileConfig())
        width = n if n <= 5 else 4
        for noise in (None, NoiseModel.uniform(p2=0.01), NoiseModel.uniform(p1=0.01)):
            plan = _plan(lowered, noise, None)
            widest = max(len(targets) for targets, _, _ in plan)
            assert widest == width if noise is None else widest <= width
            assert len(plan) == 1 or n > 5
            np.testing.assert_allclose(
                _evolve_amplitudes(plan, n), reference_amplitudes(lowered), atol=1e-12)


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

    def test_noise_that_cannot_fire_gives_the_noiseless_samples(self):
        # p2 on a circuit without 2q gates draws nothing, so the picks are the
        # noiseless call's (shots, k) draw and the samples match bit for bit.
        c = measure_all(Circuit.from_gates(3, [H(0), H(1), H(2)]))
        noisy = stabilizer_sample(c, 500, SeedStream(40).generator(), noise=NoiseModel.uniform(p2=0.5))
        assert noisy == stabilizer_sample(c, 500, SeedStream(40).generator(), noise=None)
        assert len(noisy.counts) == 8

    @pytest.mark.parametrize("noise", [None, NoiseModel.uniform(p2=0.5)])
    def test_outcomes_wider_than_63_qubits(self, noise):
        # p2 on a circuit without 2q gates pushes frames but draws and flips nothing
        c = measure_all(Circuit.from_gates(70, [X(0), X(69)]))
        samples = stabilizer_sample(c, 5, SeedStream(35).generator(), noise=noise)
        assert dict(samples.counts) == {"1" + "0" * 68 + "1": 5}

    def test_outcome_space_matches_reference(self):
        # The frame sampler and its reference both read outcome_space, so only
        # this comparison would catch a wrong (c0, basis).
        circuits = [random_clifford_circuit(n, depth, SeedStream(36, (n, depth, k)))
                    for n in range(1, 13) for depth in range(1, 9) for k in range(3)]
        circuits += [make_mirror_circuit(random_clifford_circuit(n, 4, SeedStream(37, (n,))),
                                         SeedStream(38, (n,))).circuit for n in range(1, 13)]
        circuits.append(random_clifford_circuit(70, 3, SeedStream(39)))
        for circuit in circuits:
            tab = evolve_tableau(circuit)
            for got, want in zip(tab.outcome_space(), reference_outcome_space(tab)):
                np.testing.assert_array_equal(got, want, strict=True)


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
    measured subset, and no noise model or one with or without drift and readout."""
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
    if draw(st.integers(0, 3)) == 3:
        noise = None  # one case in four draws only the outcome picks
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

    @pytest.mark.parametrize("n", [1, 2])
    def test_table_unitaries_match_the_kron_reference(self, n):
        # Every 1q element and a seeded 1000 of the 11520 2q ones: the table's
        # identity batch through apply_unitary against kron-and-permute products.
        group = clifford_group(n)
        indices = range(len(group)) if n == 1 else \
            SeedStream(41).generator().choice(len(group), size=1000, replace=False).tolist()
        for index in indices:
            want = reference_sequence_unitary(n, group.elements[index].gates)
            assert np.array_equal(group.unitary(index), want), index


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


class TestErrorTable:
    """`qbench.noise.draw_errors`: the one sparse error table of a sampling call."""

    SITES = [((0,), 0.3), ((1, 2), 0.05), ((2,), 0.0), ((0, 1), 1.0), ((1,), 0.002)]
    READOUT = [(0, 0.1), (2, 0.0)]

    @pytest.mark.parametrize("drift", [None, DriftSchedule((0.0, 0.1, -0.2), 0.03, SeedStream(80))],
                             ids=["flat", "drift"])
    @pytest.mark.parametrize("shots", [1, 7, 500])
    def test_one_sorted_hit_per_site_and_shot_with_labels_in_range(self, drift, shots):
        offsets = drift.offsets_for(shots) if drift is not None else None
        site, shot, label = draw_errors(self.SITES, self.READOUT, offsets, shots,
                                        SeedStream(81, (shots,)).generator())
        key = site * shots + shot
        assert np.all(np.diff(key) > 0)  # sorted by site, then shot, and no (site, shot) twice
        assert np.all((shot >= 0) & (shot < shots))
        n_labels = np.array([len(PAULI_LABELS[len(q)]) for q, _ in self.SITES] + [1, 1])
        assert np.all((label >= 0) & (label < n_labels[site]))
        # A site whose clipped rate is 0 for every shot never fires.
        lift = offsets if offsets is not None else np.zeros(shots)
        rates = np.array([r for _, r in self.SITES] + [r for _, r in self.READOUT])
        clipped = np.clip(rates[site] + lift[shot], 0.0, 1.0)
        assert np.all(clipped > 0)
        if drift is None:
            assert np.array_equal(shot[site == 3], np.arange(shots))  # rate 1 hits every shot

    @pytest.mark.parametrize("seed", range(6))
    def test_table_follows_the_documented_layout(self, seed):
        # A scalar walk of the layout in the `draw_errors` docstring: rounds of
        # per-site blocks of gap doubles, then thinning, then labels. With at
        # most 0.05 expected hits, a site's first block is 2 doubles, so the few
        # of these 10000 sites that are hit twice walk on in a second round.
        rng = SeedStream(91, (seed,)).generator()
        shots = 40
        sites = [((q % 5,), float(r)) for q, r in enumerate(rng.uniform(0.0008, 0.0011, 10_000))]
        sites += [((1, 3), 0.9), ((2,), 1.0), ((4,), 0.0), ((0, 2), 0.2)]
        readout = [(0, 0.05), (2, 0.3)]
        offsets = DriftSchedule((0.0, 0.0001, -0.0001), 0.00002,
                                SeedStream(92, (seed,))).offsets_for(shots)
        got = draw_errors(sites, readout, offsets, shots, SeedStream(93, (seed,)).generator())

        rng = SeedStream(93, (seed,)).generator()
        rates = [r for _, r in sites] + [r for _, r in readout]
        labels = [len(PAULI_LABELS[len(q)]) for q, _ in sites] + [1] * len(readout)
        top = [min(1.0, max(0.0, r + offsets.max())) for r in rates]
        walked = [0] * len(rates)
        todo = [j for j, p in enumerate(top) if p > 0]
        hits, rounds = [], 0
        while todo:
            rounds += 1
            blocks = []
            for j in todo:
                left = shots - walked[j]
                m = top[j] * left
                blocks.append(min(left + 1, int(m + 4 * math.sqrt(m) + 2)))
            doubles = iter(rng.random(sum(blocks)).tolist())
            for j, block in zip(todo, blocks):
                pos = walked[j] - 1
                for _ in range(block):
                    u = next(doubles)
                    gap = 0 if top[j] == 1 else math.floor(min(math.log1p(-u) / math.log1p(-top[j]), shots))
                    if pos < shots:
                        pos += gap + 1
                        if pos < shots:
                            hits.append((j, pos))
                walked[j] = pos + 1
            todo = [j for j in todo if walked[j] < shots]
        hits.sort()
        keep = rng.random(len(hits)) < [min(1.0, max(0.0, rates[j] + offsets[t])) / top[j] for j, t in hits]
        hits = [h for h, k in zip(hits, keep) if k]
        label = (rng.random(len(hits)) * [labels[j] for j, _ in hits]).astype(np.int64)
        assert rounds > 1
        assert got[0].tolist() == [j for j, _ in hits] and got[1].tolist() == [t for _, t in hits]
        assert got[2].tolist() == label.tolist()

    def test_no_sites_draw_nothing(self):
        rng = SeedStream(82).generator()
        site, shot, label = draw_errors([((0,), 0.0)], [(1, 0.0)], np.full(5, -0.1), 5, rng)
        assert len(site) == len(shot) == len(label) == 0
        assert rng.random() == SeedStream(82).generator().random()

    def test_hit_rates_match_clipped_rates_under_drift(self):
        # Chi-square of hits per (site, drift phase) against the clipped rates,
        # over 4 seeds. Two of the 15 cells clip, at 0 and at 1, and are exact.
        shots, cycle = 6000, (0.0, 0.08, -0.004)
        sites = [((0,), 0.003), ((1,), 0.05), ((0, 1), 0.3), ((1, 0), 0.95), ((2,), 0.5)]
        offsets = DriftSchedule(cycle).offsets_for(shots)
        stat, cells = 0.0, 0
        for seed in range(4):
            site, shot, _ = draw_errors(sites, [], offsets, shots, SeedStream(83, (seed,)).generator())
            for j, (_, rate) in enumerate(sites):
                for phase in range(len(cycle)):
                    p = np.clip(rate + offsets[phase::len(cycle)], 0.0, 1.0)
                    expected, var = p.sum(), (p * (1 - p)).sum()
                    hits = np.count_nonzero((site == j) & (shot % len(cycle) == phase))
                    if var == 0:
                        assert hits == expected
                        continue
                    stat += (hits - expected) ** 2 / var
                    cells += 1
        # 0.999 quantile of chi-square with 52 degrees of freedom is about 89.3.
        assert cells == 52 and stat < 89.3, stat

    @pytest.mark.parametrize("qubits", [(3,), (1, 2)])
    def test_labels_are_uniform(self, qubits):
        n_labels = len(PAULI_LABELS[len(qubits)])
        _, _, label = draw_errors([(qubits, 0.5)], [], None, 30_000, SeedStream(84).generator())
        counts = np.bincount(label, minlength=n_labels)
        expected = len(label) / n_labels
        stat = float(((counts - expected) ** 2 / expected).sum())
        # 0.999 quantiles of chi-square: 13.8 for 2 and 36.1 for 14 degrees of freedom.
        assert stat < (13.8 if n_labels == 3 else 36.1), (counts, stat)

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        # The table is drawn once per call; chunks of at most 1 or 3 history rows
        # only split the outcome picks, which are one double per shot.
        c = measure_all(random_clifford_circuit(4, 8, SeedStream(85)))
        noise = NoiseModel.uniform(p1=0.05, p2=0.2, readout=0.05,
                                   drift=DriftSchedule((0.0, 0.05), 0.02, SeedStream(86)))
        whole = sample_counts(c, 300, noise, SeedStream(87).generator())
        for rows in (1, 3):
            monkeypatch.setattr(statevector, "_CHUNK_AMPS", rows << c.n_qubits)
            assert sample_counts(c, 300, noise, SeedStream(87).generator()) == whole

    def test_sparse_hits_run_in_few_chunks(self, monkeypatch):
        # A chunk is bounded by its history rows, which the table bounds up front:
        # 400 shots with a few hit shots run in at most one chunk per hit shot and
        # one per run between them, whatever the budget, and every budget gives
        # the reference's samples.
        c = measure_all(layered_model_circuit(6, 3, SeedStream(91)))
        noise = NoiseModel.uniform(p2=0.002, readout=0.01)
        calls, tables = [], []
        evolve = statevector._evolve

        def counting(plan, batch, *args):
            calls.append(batch)
            return evolve(plan, batch, *args)

        def recording(sites, *args):
            tables.append((len(sites), draw_errors(sites, *args)))
            return tables[-1][1]

        monkeypatch.setattr(statevector, "_evolve", counting)
        monkeypatch.setattr("qbench.noise.draw_errors", recording)
        reference = reference_sample_counts(c, 400, noise, SeedStream(92).generator())
        for rows in (1, 2, 3, 1 << 16):
            calls.clear()
            monkeypatch.setattr(statevector, "_CHUNK_AMPS", rows << c.n_qubits)
            assert sample_counts(c, 400, noise, SeedStream(92).generator()) == reference
            gate_sites, (site, shot, _) = tables[-1]
            hit_shots = len(np.unique(shot[site < gate_sites]))
            assert 0 < hit_shots < 20 and sum(calls) == 400
            assert len(calls) <= (2 * hit_shots + 1 if rows < 1 << 16 else 1)

    @given(hits=st.lists(st.integers(0, 59), max_size=80), shots=st.integers(60, 90),
           budget=st.integers(1, 8))
    @settings(max_examples=200)
    def test_chunks_are_the_longest_runs_that_fit(self, hits, shots, budget):
        # Rows are at most min(shots, 1 + gate hits): each chunk fits the budget
        # unless it is a single shot, and one more shot would not fit.
        def rows(start, stop):
            return min(stop - start, 1 + sum(start <= h < stop for h in hits))

        ranges = statevector._chunks(np.array(hits, dtype=np.int64), shots, budget)
        assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
        assert ranges[-1][1] == shots
        for start, stop in ranges:
            assert rows(start, stop) <= budget or stop == start + 1
            assert stop == shots or rows(start, stop + 1) > budget

    @pytest.mark.parametrize("n, rows, shots", [(0, 1, 5), (1, 3, 40), (5, 40, 1000), (10, 7, 300)])
    def test_pick_is_the_first_crossing(self, n, rows, shots):
        # The binary search over the flat table finds argmax(cum[history] >= u),
        # on tables with zero-probability runs and on draws equal to a cumulative sum.
        rng = SeedStream(93, (n, rows)).generator()
        probs = rng.random((rows, 1 << n)) * (rng.random((rows, 1 << n)) < 0.5)
        probs[np.arange(rows), rng.integers(0, 1 << n, rows)] += 0.1
        history = rng.integers(0, rows, shots)
        cum = np.cumsum(probs, axis=1)
        cum /= cum[:, -1:]
        u = rng.random(shots)
        u[::3] = cum[history[::3], rng.integers(0, 1 << n, len(u[::3]))]

        class Draws:
            def random(self, size):
                assert size == shots
                return u

        pick = statevector._sample_rows(probs, history, Draws())
        np.testing.assert_array_equal(pick, np.argmax(cum[history] >= u[:, None], axis=1))

    @pytest.mark.parametrize("k", range(3))
    def test_backends_read_one_table_from_one_seed(self, k, monkeypatch):
        # A noisy Clifford circuit with readout error and drift: both samplers
        # ask for the same table, get the same hits, and so agree shot by shot.
        n, shots = 5, 400
        c = _basis_state_clifford(n, 30, SeedStream(88, (k,)))
        noise = NoiseModel.uniform(p1=0.05, p2=0.1, readout=0.03,
                                   drift=DriftSchedule((0.0, 0.04), 0.01, SeedStream(89, (k,))))
        tables = []

        def recording(*args):
            tables.append((args[:2], draw_errors(*args)))
            return tables[-1][1]

        monkeypatch.setattr("qbench.noise.draw_errors", recording)
        sv = sample_counts(c, shots, noise, SeedStream(90, (k,)).generator())
        st = stabilizer_sample(c, shots, SeedStream(90, (k,)).generator(), noise=noise)
        (sv_sites, sv_table), (st_sites, st_table) = tables
        assert sv_sites == st_sites and len(sv_sites[1]) == n
        assert all(np.array_equal(a, b) for a, b in zip(sv_table, st_table))
        assert np.count_nonzero(sv_table[0] >= len(sv_sites[0])) > 0  # some readout flips
        assert len(sv.counts) > 1
        np.testing.assert_array_equal(sv.keys, st.keys)
        np.testing.assert_array_equal(sv.freq, st.freq)
        assert sv == st


class TestDistributions:
    @pytest.mark.parametrize("n_bits", [1, 14, 40, 62, 70])
    def test_from_rows_keys_match_formatting(self, n_bits):
        # Row bit j is the outcome's bit j, most significant first; a row's
        # key is the formatting of that index, at any width.
        rows = SeedStream(94, (n_bits,)).generator().integers(0, 2, (600, n_bits), dtype=np.uint8)
        rows[0], rows[1] = 0, 1
        rows[100:200] = rows[:100]
        values = [sum(int(b) << (n_bits - 1 - j) for j, b in enumerate(row)) for row in rows]
        expected = Counter(index_to_bits(v, n_bits) for v in values)
        samples = SampleSet.from_rows(rows)
        assert samples.counts == expected and list(samples.counts) == sorted(expected)
        assert all(type(bits) is str for bits in samples.counts) and samples.shots == 600
        if n_bits <= 62:
            np.testing.assert_array_equal(samples.indices(), sorted(set(values)))

    @pytest.mark.parametrize("make, message", [
        (lambda: SampleSet(2, {"01": 1, "1": 2}), "bad bitstring key '1' for 2 bits"),
        (lambda: SampleSet(2, {"01": 1, "0a": 2}), "bad bitstring key '0a' for 2 bits"),
        (lambda: SampleSet(2, {"012": 1}), "bad bitstring key '012' for 2 bits"),
        (lambda: SampleSet(1, {"0": 0}), "counts must be positive"),
        (lambda: SampleSet(1, {"1": 2, "0": -2, "x": 1}), "counts must be positive"),
        (lambda: SampleSet(1, {"x": 1, "0": -2}), "bad bitstring key 'x' for 1 bits"),
        (lambda: SampleSet(1, {"0": 3}, shots=5), "counts sum to 3, declared shots 5"),
        (lambda: SampleSet.from_json({"10": 1, "1": 1}), "bad bitstring key '1' for 2 bits"),
    ])
    def test_validation_names_the_first_bad_entry(self, make, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make()

    def test_wide_tableau_set_lives_on_arrays(self):
        # 70 noisy bits: past int64 indices, but counts, JSON and equality
        # read the fixed-width byte keys.
        c = measure_all(random_clifford_circuit(70, 6, SeedStream(97)))
        noise = NoiseModel.uniform(p1=0.01, p2=0.02, readout=0.01)
        samples = stabilizer_sample(c, 50, SeedStream(98).generator(), noise=noise)
        assert samples.n_bits == 70 and samples.keys.dtype == np.dtype("S70")
        assert sum(samples.counts.values()) == 50 and len(samples.counts) == len(samples.freq) > 1
        assert SampleSet.from_json(samples.to_json()) == samples
        assert samples == stabilizer_sample(c, 50, SeedStream(98).generator(), noise=noise)
        assert samples != stabilizer_sample(c, 50, SeedStream(99).generator(), noise=noise)
        with pytest.raises(ValidationError, match="70-bit outcomes"):
            samples.indices()

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
        sampled = sample_counts(measure_all(layered_model_circuit(5, 3, SeedStream(95))), 300,
                                NoiseModel.uniform(p2=0.05, readout=0.02), SeedStream(96).generator())
        assert len(sampled.freq) > 1 and SampleSet.from_json(sampled.to_json()) == sampled
        p = ProbDist(2, np.array([0.25, 0.25, 0.25, 0.25]))
        assert ProbDist.from_json(p.to_json()).probs == pytest.approx(p.probs)
