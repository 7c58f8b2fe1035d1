"""Reference statevector simulator: the circuit applied one gate at a time.

It also keeps randomized benchmarking's own batched trajectory loop
(`reference_rb_survivals`), which `qbench.protocols.run_rb` must match, and
the Clifford tables' kron-and-permute unitaries (`reference_sequence_unitary`),
which `CliffordGroup.unitary` must match entry for entry.

Every gate becomes its own transpose, matrix product and inverse transpose on a
(batch, 2**n) array, and each hit Pauli a matrix product on the copied hit
rows. It builds each call's site list on its own, from `gate_sites` and
`can_fire` gate by gate, reads the one error table `qbench.noise.draw_errors`
draws for it, and then picks every shot's outcome at once, as
`qbench.statevector.sample_counts` does in any chunking. So the fused
execution plan is checked against it amplitude for amplitude and count for
count. Outcomes are picked by counting, per shot, the normalized cumulative
sums below its draw; the simulator finds the same index by search.
"""
from __future__ import annotations

import numpy as np

from qbench.circuits import Circuit, Gate, GateKind, gate_unitary, pauli_matrix
from qbench.cliffords import clifford_group
from qbench.distributions import SampleSet
from qbench.noise import PAULI_LABELS, NoiseModel, can_fire, draw_errors, gate_sites
from qbench.rng import SeedStream


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


def _sample_with_table(steps, sites_per_step, readout, offsets, shots: int, n_qubits: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Outcome index per shot from |0...0>: the call's table, then each step
    (a function of the amplitudes) and its sites' hits, then one pick per
    shot, then the table's readout flips."""
    site, shot, label = draw_errors([s for sites in sites_per_step for s in sites], readout,
                                    offsets, shots, rng)
    amps = np.zeros((shots, 1 << n_qubits), dtype=complex)
    amps[:, 0] = 1.0
    j = 0
    for step, sites in zip(steps, sites_per_step):
        amps = step(amps)
        for qubits, _ in sites:
            amps = _apply_paulis(amps, qubits, shot[site == j], label[site == j], n_qubits)
            j += 1
    outcomes = _first_reaching(np.abs(amps) ** 2, rng.random(shots))
    for i, (q, _) in enumerate(readout):
        outcomes[shot[site == j + i]] ^= 1 << (n_qubits - 1 - q)
    return outcomes


def reference_sample_counts(circuit: Circuit, shots: int, noise: NoiseModel | None,
                            rng: np.random.Generator) -> SampleSet:
    n = circuit.n_qubits
    measured = circuit.measured_qubits()
    offsets = noise.shot_offsets(shots) if noise is not None else None
    gates = list(circuit.all_gates())
    sites_per_gate = [[] for _ in gates] if noise is None else [
        [(q, r) for q, r in gate_sites(noise, gate) if can_fire(r, offsets)] for gate in gates]
    readout = [] if noise is None else [
        (q, noise.readout_for(q)) for q in measured or range(n)
        if can_fire(noise.readout_for(q), offsets)]
    steps = [lambda a, g=gate: _apply_gate(a, g, n) for gate in gates]
    samples = _sample_with_table(steps, sites_per_gate, readout, offsets, shots, n, rng)
    shifts = n - 1 - np.array(measured or range(n))
    return SampleSet.from_rows(((samples[:, None] >> shifts) & 1).astype(np.uint8))


def reference_rb_survivals(noise: NoiseModel | None, n_qubits: int, lengths: list[int],
                           sequences_per_length: int, shots: int,
                           stream: SeedStream) -> list[list[float]]:
    """Randomized-benchmarking survivals from one batched loop per sequence.

    Every shot is its own trajectory, even when no error can fire: from the
    sequence's own generator, the indices, then the call's table (one site per
    element at the element rate, then the readout bits), each element's
    unitary with its site's hits, the outcome picks and the readout flips.
    """
    group = clifford_group(n_qubits)
    qubits = tuple(range(n_qubits))
    noise = noise if noise is not None else NoiseModel()
    rate = noise.element_error(n_qubits)
    offsets = noise.shot_offsets(shots)
    readout = [(q, noise.readout_for(q)) for q in qubits if can_fire(noise.readout_for(q), offsets)]
    survivals = []
    for li, m in enumerate(lengths):
        per_seq = []
        for s in range(sequences_per_length):
            rng = stream.child(li, s).generator()
            indices = [int(i) for i in rng.integers(0, len(group), size=m)]
            gates = tuple(g for idx in indices for g in group.elements[idx].gates)
            elements = indices + [group.inverse_index(gates)]
            sites = [[(qubits, rate)] if can_fire(rate, offsets) else [] for _ in elements]
            steps = [lambda a, i=i: apply_unitary_batch(a, group.unitary(i), qubits, n_qubits)
                     for i in elements]
            outcomes = _sample_with_table(steps, sites, readout, offsets, shots, n_qubits, rng)
            per_seq.append(float(np.mean(outcomes == 0)))
        survivals.append(per_seq)
    return survivals
