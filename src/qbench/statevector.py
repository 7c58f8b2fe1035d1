"""Exact statevector simulation with stochastic Pauli-trajectory noise.

Shots are simulated as a batch: the state is an array of shape
(batch, 2**n), every gate is applied to all trajectories at once, and noise
draws select the subset of trajectories that receive a Pauli injection.
With no noise model the sampler collapses to a single-state evolution plus a
multinomial draw, which is distribution-identical and much faster.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, GateKind, gate_unitary, pauli_matrix
from .distributions import ProbDist, SampleSet
from .errors import ValidationError, WidthCapError
from .noise import PAULI_LABELS, NoiseModel, draw_gate_errors, draw_readout_flips

DEFAULT_WIDTH_CAP = 24

# Trajectory batches are chunked to keep peak memory near this many amplitudes.
_CHUNK_AMPS = 1 << 22


@dataclass(frozen=True)
class StateVector:
    """Dense n-qubit state; qubit 0 is the most significant index bit."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        if a.shape != (1 << self.n_qubits,):
            raise ValidationError(f"expected {1 << self.n_qubits} amplitudes, got {a.shape}")
        if abs(float(np.vdot(a, a).real) - 1.0) > 1e-9:
            raise ValidationError("state is not normalized within 1e-9")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        a = np.zeros(1 << n_qubits, dtype=complex)
        a[0] = 1.0
        return cls(n_qubits, a)

    def probabilities(self) -> ProbDist:
        return ProbDist(self.n_qubits, np.abs(self.amps) ** 2)


def _check_cap(n_qubits: int, cap: int) -> None:
    if n_qubits > cap:
        raise WidthCapError(
            f"{n_qubits} qubits is not practical at this width for dense simulation "
            f"(cap {cap}; raise the cap explicitly if you really mean it)"
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
    shuffled = view.reshape(-1, 1 << k)
    out = shuffled @ unitary.T
    out = out.reshape((batch,) + (2,) * n_qubits)
    inverse = np.argsort((0,) + rest + axes)
    return np.transpose(out, inverse).reshape(batch, 1 << n_qubits)


def _apply_gate_batch(amps: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    if gate.kind is GateKind.BARRIER:
        return amps
    if gate.kind is GateKind.PAULI:
        for t, letter in zip(gate.targets, gate.paulis):
            if letter != "I":
                amps = apply_unitary_batch(amps, pauli_matrix(letter), (t,), n_qubits)
        return amps
    return apply_unitary_batch(amps, gate_unitary(gate), gate.targets, n_qubits)


def run_statevector(circuit: Circuit, cap: int = DEFAULT_WIDTH_CAP) -> StateVector:
    """Noiseless final state of `circuit` with measurements stripped."""
    _check_cap(circuit.n_qubits, cap)
    amps = np.zeros((1, 1 << circuit.n_qubits), dtype=complex)
    amps[0, 0] = 1.0
    for gate in circuit.all_gates():
        if gate.kind is GateKind.MEASURE:
            continue
        amps = _apply_gate_batch(amps, gate, circuit.n_qubits)
    return StateVector(circuit.n_qubits, amps[0])


def _measured_bit_distribution(full: np.ndarray, circuit: Circuit) -> ProbDist:
    measured = circuit.measured_qubits()
    if not measured:
        return ProbDist(circuit.n_qubits, full)
    n = circuit.n_qubits
    view = full.reshape((2,) * n)
    order = tuple(measured) + tuple(q for q in range(n) if q not in measured)
    view = np.transpose(view, order)
    k = len(measured)
    return ProbDist(k, view.reshape(1 << k, -1).sum(axis=1))


def ideal_distribution(circuit: Circuit, cap: int = DEFAULT_WIDTH_CAP) -> ProbDist:
    """Exact noiseless output distribution over the measured bits.

    With no measurement layer, all qubits are reported in index order.
    """
    state = run_statevector(circuit, cap=cap)
    return _measured_bit_distribution(np.abs(state.amps) ** 2, circuit)


def _extract_measured_indices(samples: np.ndarray, circuit: Circuit) -> np.ndarray:
    measured = circuit.measured_qubits()
    if not measured:
        return samples
    n = circuit.n_qubits
    out = np.zeros_like(samples)
    k = len(measured)
    for pos, q in enumerate(measured):
        bit = (samples >> (n - 1 - q)) & 1
        out |= bit << (k - 1 - pos)
    return out


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one outcome index per row of a (batch, N) probability array."""
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1][:, None]
    u = rng.random(probs.shape[0])
    return (cum < u[:, None]).sum(axis=1).astype(np.int64)


def _readout_flips(indices: np.ndarray, circuit: Circuit, noise: NoiseModel,
                   offsets: np.ndarray | None, rng: np.random.Generator) -> np.ndarray:
    n = circuit.n_qubits
    measured = circuit.measured_qubits() or tuple(range(n))
    out = indices.copy()
    for q, flips in draw_readout_flips(noise, measured, offsets, indices.shape[0], rng):
        out ^= flips.astype(np.int64) << (n - 1 - q)
    return out


def _apply_paulis(amps: np.ndarray, qubits: tuple[int, ...], rows: np.ndarray,
                  choices: np.ndarray, n_qubits: int) -> np.ndarray:
    """Apply the drawn Pauli `PAULI_LABELS[len(qubits)][choice]` to each hit trajectory row."""
    labels = PAULI_LABELS[len(qubits)]
    for idx in np.unique(choices):
        sel = rows[choices == idx]
        sub = amps[sel]
        for t, letter in zip(qubits, labels[idx]):
            if letter != "I":
                sub = apply_unitary_batch(sub, pauli_matrix(letter), (t,), n_qubits)
        amps[sel] = sub
    return amps


def sample_counts(circuit: Circuit, shots: int, noise: NoiseModel | None,
                  rng: np.random.Generator, cap: int = DEFAULT_WIDTH_CAP) -> SampleSet:
    """Sample `shots` measurement outcomes, with optional trajectory noise.

    Noise follows the trajectory channel and draw layout of `qbench.noise`,
    drawn per chunk of trajectories.
    """
    _check_cap(circuit.n_qubits, cap)
    if shots <= 0:
        raise ValidationError("shots must be positive")
    n = circuit.n_qubits
    measured = circuit.measured_qubits()
    n_bits = len(measured) if measured else n

    if noise is None:
        dist = ideal_distribution(circuit, cap=cap)
        counts = rng.multinomial(shots, dist.probs)
        idx = np.nonzero(counts)[0]
        return SampleSet(n_bits, {format(int(i), f"0{n_bits}b"): int(counts[i]) for i in idx})

    offsets_all = noise.shot_offsets(shots)

    gate_noise_free = noise.default_1q == 0 and noise.default_2q == 0 \
        and not any(noise.gate_error.values()) and not any(noise.edge_error.values()) \
        and (offsets_all is None or not np.any(offsets_all > 0))
    if gate_noise_free:
        # Only readout errors act; sample the exact state once and flip bits.
        state = run_statevector(circuit, cap=cap)
        cum = np.cumsum(np.abs(state.amps) ** 2)
        samples = np.searchsorted(cum / cum[-1], rng.random(shots)).astype(np.int64)
        samples = _readout_flips(samples, circuit, noise, offsets_all, rng)
        samples = _extract_measured_indices(samples, circuit)
        return SampleSet.from_indices(samples, n_bits)
    chunk = max(1, _CHUNK_AMPS >> n)
    result: SampleSet | None = None
    start = 0
    while start < shots:
        size = min(chunk, shots - start)
        offsets = offsets_all[start:start + size] if offsets_all is not None else None
        amps = np.zeros((size, 1 << n), dtype=complex)
        amps[:, 0] = 1.0
        for gate in circuit.all_gates():
            if gate.kind in (GateKind.MEASURE, GateKind.BARRIER):
                continue
            amps = _apply_gate_batch(amps, gate, n)
            for qubits, rows, choices in draw_gate_errors(noise, gate, offsets, size, rng):
                amps = _apply_paulis(amps, qubits, rows, choices, n)
        samples = _sample_rows(np.abs(amps) ** 2, rng)
        samples = _readout_flips(samples, circuit, noise, offsets, rng)
        samples = _extract_measured_indices(samples, circuit)
        part = SampleSet.from_indices(samples, n_bits)
        result = part if result is None else result.merge(part)
        start += size
    return result
