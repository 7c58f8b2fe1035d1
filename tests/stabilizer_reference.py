"""Reference noisy tableau sampler: one tableau per shot, evolved with that shot's errors.

It draws exactly what `qbench.stabilizer.stabilizer_sample` draws (every gate's
errors for all shots, then each shot's outcome picks in shot order, then the
readout flips), but reads each shot's outcome from its own noisy tableau. It
is slow and obviously right, so the Pauli-frame sampler is checked against it
count for count. The Clifford group search below does the same for the stacked
enumeration in `qbench.cliffords`.
"""
from __future__ import annotations

import numpy as np

from qbench.circuits import Circuit, Gate, GateKind, PauliLayer
from qbench.cliffords import _GENERATORS
from qbench.distributions import SampleSet
from qbench.noise import PAULI_LABELS, NoiseModel, draw_gate_errors, draw_readout_flips
from qbench.stabilizer import StabilizerTableau, _sample_set, evolve_tableau


def reference_sample(circuit: Circuit, shots: int, rng: np.random.Generator,
                     noise: NoiseModel | None = None) -> SampleSet:
    tab = evolve_tableau(circuit)
    n = circuit.n_qubits
    measured = circuit.measured_qubits() or tuple(range(n))
    if noise is None or noise.is_trivial:
        return _sample_set(tab.sample_bits(shots, rng), measured)

    offsets = noise.shot_offsets(shots)
    gates = [g for g in circuit.all_gates() if g.kind not in (GateKind.MEASURE, GateKind.BARRIER)]
    # Sparse per-shot error lists of (gate position, qubits, Pauli label), in gate order.
    errors: list[list[tuple[int, tuple[int, ...], str]]] = [[] for _ in range(shots)]
    for pos, gate in enumerate(gates):
        for qubits, rows, choices in draw_gate_errors(noise, gate, offsets, shots, rng):
            labels = PAULI_LABELS[len(qubits)]
            for shot, choice in zip(rows.tolist(), choices.tolist()):
                errors[shot].append((pos, qubits, labels[choice]))

    bits = np.empty((shots, n), dtype=np.uint8)
    for shot in range(shots):
        tab = StabilizerTableau(n)
        done = 0
        for pos, qubits, word in errors[shot]:
            for gate in gates[done:pos + 1]:
                tab.apply_gate(gate)
            done = pos + 1
            tab.apply_gate(PauliLayer(qubits, word))
        for gate in gates[done:]:
            tab.apply_gate(gate)
        bits[shot] = tab.sample_bits(1, rng)[0]
    for q, flips in draw_readout_flips(noise, measured, offsets, shots, rng):
        bits[:, q] ^= flips
    return _sample_set(bits, measured)


def reference_clifford_elements(n: int) -> list[tuple[tuple[Gate, ...], bytes]]:
    """(gates, key) of each Clifford group element, by breadth-first search one tableau at a time.

    New elements are numbered in frontier-major, generator-minor order.
    """
    gens = _GENERATORS[n]
    identity = StabilizerTableau(n)
    elements = [((), identity.key())]
    seen = {identity.key()}
    frontier: list[tuple[StabilizerTableau, tuple[Gate, ...]]] = [(identity, ())]
    while frontier:
        next_frontier = []
        for tab, gates in frontier:
            for gen in gens:
                new = tab.copy()
                new.apply_gate(gen)
                key = new.key()
                if key not in seen:
                    seen.add(key)
                    elements.append((gates + (gen,), key))
                    next_frontier.append((new, gates + (gen,)))
        frontier = next_frontier
    return elements
