"""Reference statevector simulator: the circuit applied one gate at a time.

Every gate becomes its own transpose, matrix product and inverse transpose on a
(batch, 2**n) array, and each drawn Pauli a matrix product on the copied hit
rows. It draws exactly what `qbench.statevector.sample_counts` draws (the same
chunks, gate errors in gate order, outcome picks, readout flips), so the fused
execution plan is checked against it amplitude for amplitude and count for
count.
"""
from __future__ import annotations

import numpy as np

from qbench import statevector
from qbench.circuits import Circuit, Gate, GateKind, gate_unitary, pauli_matrix
from qbench.distributions import SampleSet
from qbench.noise import PAULI_LABELS, NoiseModel, draw_gate_errors
from qbench.statevector import (
    _extract_measured_indices, _measured_bit_distribution, _readout_flips, _sample_rows,
)


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


def reference_sample_counts(circuit: Circuit, shots: int, noise: NoiseModel | None,
                            rng: np.random.Generator) -> SampleSet:
    n = circuit.n_qubits
    measured = circuit.measured_qubits()
    n_bits = len(measured) if measured else n
    if noise is None:
        probs = np.abs(reference_amplitudes(circuit)) ** 2
        counts = rng.multinomial(shots, _measured_bit_distribution(probs, circuit).probs)
        idx = np.nonzero(counts)[0]
        return SampleSet(n_bits, {format(int(i), f"0{n_bits}b"): int(counts[i]) for i in idx})

    offsets_all = noise.shot_offsets(shots)
    gate_noise_free = noise.default_1q == 0 and noise.default_2q == 0 \
        and not any(noise.gate_error.values()) and not any(noise.edge_error.values()) \
        and (offsets_all is None or not np.any(offsets_all > 0))
    if gate_noise_free:
        cum = np.cumsum(np.abs(reference_amplitudes(circuit)) ** 2)
        samples = np.searchsorted(cum / cum[-1], rng.random(shots)).astype(np.int64)
        samples = _readout_flips(samples, circuit, noise, offsets_all, rng)
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
        samples = _sample_rows(np.abs(amps) ** 2, rng)
        samples = _readout_flips(samples, circuit, noise, offsets, rng)
        part = SampleSet.from_indices(_extract_measured_indices(samples, circuit), n_bits)
        result = part if result is None else result.merge(part)
    return result
