"""Reference statevector simulator: the circuit applied one gate at a time.

It also keeps randomized benchmarking's own batched trajectory loop
(`reference_rb_survivals`), which `qbench.protocols.run_rb` must match, and
the Clifford tables' kron-and-permute unitaries (`reference_sequence_unitary`),
which `CliffordGroup.unitary` must match entry for entry.

Every gate becomes its own transpose, matrix product and inverse transpose on a
(batch, 2**n) array, and each drawn Pauli a matrix product on the copied hit
rows. It draws exactly what `qbench.statevector.sample_counts` draws (the same
chunks, gate errors in gate order, outcome picks, readout flips), so the fused
execution plan is checked against it amplitude for amplitude and count for
count. Outcomes are picked by counting, per shot, the normalized cumulative
sums below its draw; the simulator finds the same index by search.
"""
from __future__ import annotations

import numpy as np

from qbench import statevector
from qbench.circuits import Circuit, Gate, GateKind, gate_unitary, pauli_matrix
from qbench.cliffords import clifford_group
from qbench.distributions import SampleSet
from qbench.noise import (
    PAULI_LABELS, NoiseModel, can_fire, draw_gate_errors, draw_readout_flips, draw_site,
    gate_sites,
)
from qbench.rng import SeedStream
from qbench.statevector import _extract_measured_indices


def apply_unitary_batch(amps: np.ndarray, unitary: np.ndarray, targets: tuple[int, ...],
                        n_qubits: int) -> np.ndarray:
    """Apply a k-qubit unitary to every row of a (batch, 2**n) array.

    targets[0] is the most significant bit of the unitary's index space.
    """
    batch = amps.shape[0]
    k = len(targets)
    axes = tuple(1 + t for t in targets)
    rest = tuple(ax for ax in range(1, n_qubits + 1) if ax not in axes)
    view = amps.reshape((batch,) + (2,) * n_qubits)
    view = np.transpose(view, (0,) + rest + axes)
    out = view.reshape(-1, 1 << k) @ unitary.T
    out = out.reshape((batch,) + (2,) * n_qubits)
    return np.transpose(out, np.argsort((0,) + rest + axes)).reshape(batch, 1 << n_qubits)


def _apply_gate(amps: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    if gate.kind in (GateKind.MEASURE, GateKind.BARRIER):
        return amps
    if gate.kind is GateKind.PAULI:
        for t, letter in zip(gate.targets, gate.paulis):
            if letter != "I":
                amps = apply_unitary_batch(amps, pauli_matrix(letter), (t,), n_qubits)
        return amps
    return apply_unitary_batch(amps, gate_unitary(gate), gate.targets, n_qubits)


def _apply_paulis(amps: np.ndarray, qubits: tuple[int, ...], rows: np.ndarray,
                  choices: np.ndarray, n_qubits: int) -> np.ndarray:
    labels = PAULI_LABELS[len(qubits)]
    for idx in np.unique(choices):
        sel = rows[choices == idx]
        sub = amps[sel]
        for t, letter in zip(qubits, labels[idx]):
            if letter != "I":
                sub = apply_unitary_batch(sub, pauli_matrix(letter), (t,), n_qubits)
        amps[sel] = sub
    return amps


def reference_amplitudes(circuit: Circuit) -> np.ndarray:
    """Noiseless final amplitudes of `circuit`, measurements stripped."""
    amps = np.zeros((1, 1 << circuit.n_qubits), dtype=complex)
    amps[0, 0] = 1.0
    for gate in circuit.all_gates():
        amps = _apply_gate(amps, gate, circuit.n_qubits)
    return amps[0]


def reference_sequence_unitary(n: int, gates: tuple[Gate, ...]) -> np.ndarray:
    """Dense unitary of a Clifford table sequence, each gate widened to the
    n <= 2 qubits with np.kron or a basis permutation and multiplied in."""
    u = np.eye(1 << n, dtype=complex)
    for g in gates:
        gu = gate_unitary(g)
        if len(g.targets) == n and g.targets == tuple(range(n)):
            full = gu
        elif n == 2 and len(g.targets) == 1:
            full = np.kron(gu, np.eye(2)) if g.targets[0] == 0 else np.kron(np.eye(2), gu)
        elif n == 2 and g.targets == (1, 0):
            perm = [0, 2, 1, 3]  # reorder basis so the gate sees |q1 q0>
            full = gu[np.ix_(perm, perm)]
        else:
            raise ValueError(f"unexpected targets {g.targets} in a {n}-qubit table sequence")
        u = full @ u
    return u


def _first_reaching(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of `probs`, the first index whose normalized cumulative sum reaches u."""
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1][:, None]
    return (cum < u[:, None]).sum(axis=1).astype(np.int64)


def _readout(samples: np.ndarray, circuit: Circuit, noise: NoiseModel | None,
             offsets: np.ndarray | None, rng: np.random.Generator) -> np.ndarray:
    if noise is None:
        return samples
    n = circuit.n_qubits
    measured = circuit.measured_qubits() or tuple(range(n))
    for q, flips in draw_readout_flips(noise, measured, offsets, samples.shape[0], rng):
        samples = samples ^ (flips.astype(np.int64) << (n - 1 - q))
    return samples


def reference_sample_counts(circuit: Circuit, shots: int, noise: NoiseModel | None,
                            rng: np.random.Generator) -> SampleSet:
    n = circuit.n_qubits
    measured = circuit.measured_qubits()
    n_bits = len(measured) if measured else n
    offsets_all = noise.shot_offsets(shots) if noise is not None else None
    draws = noise is not None and any(
        can_fire(rate, offsets_all) for gate in circuit.all_gates()
        for _, rate in gate_sites(noise, gate))
    if not draws:
        # Every trajectory is the same state: all shots in one chunk.
        probs = np.abs(reference_amplitudes(circuit)) ** 2
        samples = _first_reaching(probs[None, :], rng.random(shots))
        samples = _readout(samples, circuit, noise, offsets_all, rng)
        return SampleSet.from_indices(_extract_measured_indices(samples, circuit), n_bits)
    chunk = max(1, statevector._CHUNK_AMPS >> n)
    result = None
    for start in range(0, shots, chunk):
        size = min(chunk, shots - start)
        offsets = offsets_all[start:start + size] if offsets_all is not None else None
        amps = np.zeros((size, 1 << n), dtype=complex)
        amps[:, 0] = 1.0
        for gate in circuit.all_gates():
            amps = _apply_gate(amps, gate, n)
            for qubits, rows, choices in draw_gate_errors(noise, gate, offsets, size, rng):
                amps = _apply_paulis(amps, qubits, rows, choices, n)
        samples = _first_reaching(np.abs(amps) ** 2, rng.random(size))
        samples = _readout(samples, circuit, noise, offsets, rng)
        part = SampleSet.from_indices(_extract_measured_indices(samples, circuit), n_bits)
        result = part if result is None else result.merge(part)
    return result


def reference_rb_survivals(noise: NoiseModel | None, n_qubits: int, lengths: list[int],
                           sequences_per_length: int, shots: int,
                           stream: SeedStream) -> list[list[float]]:
    """Randomized-benchmarking survivals from one batched loop per sequence.

    Every shot is its own trajectory, even when no error can fire: each
    element's unitary, then one draw at the element rate, the outcome picks,
    then the readout flips, all from the sequence's own generator.
    """
    group = clifford_group(n_qubits)
    qubits = tuple(range(n_qubits))
    noise = noise if noise is not None else NoiseModel()
    rate = noise.element_error(n_qubits)
    offsets = noise.shot_offsets(shots)
    survivals = []
    for li, m in enumerate(lengths):
        per_seq = []
        for s in range(sequences_per_length):
            rng = stream.child(li, s).generator()
            indices = [int(i) for i in rng.integers(0, len(group), size=m)]
            gates = tuple(g for idx in indices for g in group.elements[idx].gates)
            amps = np.zeros((shots, 1 << n_qubits), dtype=complex)
            amps[:, 0] = 1.0
            for i in indices + [group.inverse_index(gates)]:
                amps = apply_unitary_batch(amps, group.unitary(i), qubits, n_qubits)
                drawn = draw_site(rate, offsets, shots, n_qubits, rng)
                if drawn is not None:
                    amps = _apply_paulis(amps, qubits, *drawn, n_qubits)
            outcomes = _first_reaching(np.abs(amps) ** 2, rng.random(shots))
            for q, flips in draw_readout_flips(noise, qubits, offsets, shots, rng):
                outcomes ^= flips.astype(np.int64) << (n_qubits - 1 - q)
            per_seq.append(float(np.mean(outcomes == 0)))
        survivals.append(per_seq)
    return survivals
