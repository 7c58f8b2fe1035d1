"""Exact statevector simulation with stochastic Pauli-trajectory noise.

Shots are simulated as a batch: the state is a (batch,) + (2,)*n tensor, one
row per trajectory with qubit q on axis 1 + q, and noise draws select the rows
that receive a Pauli injection. With no noise model the sampler collapses to a
single-state evolution plus a multinomial draw, which is distribution-identical
and much faster. A noisy call whose circuit has no gate that can fire also
evolves one state, and picks each shot's outcome from it with the draws a
batch of identical trajectories would make.

Each call compiles its circuit once into an execution plan, a list of
(targets, fused unitary, gate whose errors are drawn after it or None), and
runs it with one kernel: `np.tensordot` of the unitary with the target axes,
then `np.moveaxis` to put them back. Fusion follows qsim (Isakov et al.,
arXiv:2111.02396) but tracks the last op on each qubit, because lowered gates
are interleaved layer by layer: a 1q gate folds into the next op on its qubit,
and successive 2q gates on one pair merge into one op. A gate whose noise site
can fire for some shot of the call closes its op, so nothing fuses across it;
its errors are drawn right after that op, once per chunk, so the draw layout
of `qbench.noise` is unchanged. On every qubit, unitaries and injections keep
their circuit order.

A drawn Pauli acts on the hit rows by index arithmetic, not matrix products:
X and Y XOR the amplitude index with their bits, and Z and Y multiply by a
phase vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, GateKind, gate_unitary, pauli_matrix
from .distributions import ProbDist, SampleSet
from .errors import ValidationError, WidthCapError
from .noise import (
    PAULI_LABELS, NoiseModel, draw_gate_errors, draw_readout_flips, gate_can_fire,
)

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


def zero_state(batch: int, n_qubits: int) -> np.ndarray:
    """`batch` copies of |0...0> as a (batch,) + (2,)*n tensor, qubit q on axis 1 + q."""
    state = np.zeros((batch, 1 << n_qubits), dtype=complex)
    state[:, 0] = 1.0
    return state.reshape((batch,) + (2,) * n_qubits)


def apply_unitary(state: np.ndarray, unitary: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a k-qubit unitary to `targets` of every row of a (batch,) + (2,)*n tensor.

    targets[0] is the most significant bit of the unitary's index space.
    """
    k = len(targets)
    axes = [1 + t for t in targets]
    out = np.tensordot(state, unitary.reshape((2,) * (2 * k)), axes=(axes, list(range(k, 2 * k))))
    return np.moveaxis(out, range(-k, 0), axes)


def _pauli_action(n_qubits: int, qubits: tuple[int, ...], word: str) -> tuple[np.ndarray, np.ndarray]:
    """(source, phase) with (P psi)[i] = phase[i] * psi[source[i]] for the Pauli `word` on `qubits`."""
    index = np.arange(1 << n_qubits)
    flip, sign = 0, np.ones(1 << n_qubits)
    for q, letter in zip(qubits, word):
        bit = 1 << (n_qubits - 1 - q)
        if letter in "XY":
            flip |= bit
        if letter in "YZ":
            sign[(index & bit) != 0] *= -1
    # Y = -i ZX: the X flip, then a Z sign read on the output bit.
    return index ^ flip, sign * (-1j) ** word.count("Y")


def apply_paulis(state: np.ndarray, qubits: tuple[int, ...], rows: np.ndarray,
                 choices: np.ndarray) -> None:
    """Apply the drawn Pauli `PAULI_LABELS[len(qubits)][choice]` to each hit row, in place.

    `state` is a (batch,) + (2,)*n tensor; X and Y permute a row's amplitudes by
    an index XOR, Z and Y multiply it by a phase vector.
    """
    n = state.ndim - 1
    labels = PAULI_LABELS[len(qubits)]
    for choice in np.unique(choices):
        sel = rows[choices == choice]
        source, phase = _pauli_action(n, qubits, labels[choice])
        flat = state[sel].reshape(len(sel), -1)
        state[sel] = (flat[:, source] * phase).reshape((len(sel),) + (2,) * n)


_I2 = np.eye(2, dtype=complex)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 matrices, without its generic-shape overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _swap_pair(unitary: np.ndarray) -> np.ndarray:
    """The 4x4 `unitary` with its two qubits exchanged."""
    return unitary.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def _plan(circuit: Circuit, noise: NoiseModel | None,
          offsets: np.ndarray | None) -> list[tuple[tuple[int, ...], np.ndarray, Gate | None]]:
    """The circuit as fused ops: (targets, unitary, gate whose errors are drawn after it or None).

    A 1q gate folds into the next op on its qubit, and a 2q gate merges into the
    last op on both its qubits when that op is on the same pair. A gate that
    can fire (`gate_can_fire` over all of the call's `offsets`) closes its op:
    nothing merges into an op that carries a gate. Ops with a gate stay in gate
    order, so the draws keep the layout of `qbench.noise`.
    """
    ops: list[list] = []
    last: dict[int, int] = {}
    pending: dict[int, np.ndarray] = {}

    def emit(targets, unitary, gate=None):
        ops.append([targets, unitary, gate])
        for q in (gate.targets if gate is not None else targets):
            last[q] = len(ops) - 1

    for gate in circuit.all_gates():
        if gate.kind in (GateKind.MEASURE, GateKind.BARRIER):
            continue
        fires = noise is not None and gate_can_fire(noise, gate, offsets)
        if gate.kind is GateKind.PAULI:
            # The letters are 1q gates (the layer's sign is a global phase). A noisy
            # layer emits its targets' pending 1q ops; the last target's carries the draws.
            for q, letter in zip(gate.targets, gate.paulis):
                if letter != "I":
                    pending[q] = pauli_matrix(letter) @ pending.get(q, _I2)
            if fires:
                *rest, final = gate.targets
                for q in rest:
                    if q in pending:
                        emit((q,), pending.pop(q))
                emit((final,), pending.pop(final, _I2), gate)
            continue
        unitary = gate_unitary(gate)
        if len(gate.targets) == 1:
            (q,) = gate.targets
            pending[q] = unitary @ pending.get(q, _I2)
            if fires:
                emit((q,), pending.pop(q), gate)
            continue
        a, b = gate.targets
        unitary = unitary @ _kron(pending.pop(a, _I2), pending.pop(b, _I2))
        i = last.get(a)
        if not fires and i is not None and last.get(b) == i and ops[i][2] is None \
                and set(ops[i][0]) == {a, b}:
            ops[i][1] = (unitary if ops[i][0] == (a, b) else _swap_pair(unitary)) @ ops[i][1]
        else:
            emit((a, b), unitary, gate if fires else None)
    for q in sorted(pending):
        emit((q,), pending[q])
    return [tuple(op) for op in ops]


def run_statevector(circuit: Circuit, cap: int = DEFAULT_WIDTH_CAP) -> StateVector:
    """Noiseless final state of `circuit` with measurements stripped."""
    _check_cap(circuit.n_qubits, cap)
    state = zero_state(1, circuit.n_qubits)
    for targets, unitary, _ in _plan(circuit, None, None):
        state = apply_unitary(state, unitary, targets)
    return StateVector(circuit.n_qubits, state.reshape(-1))


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
    plan = _plan(circuit, noise, offsets_all)
    gate_noise_free = noise.default_1q == 0 and noise.default_2q == 0 \
        and not any(noise.gate_error.values()) and not any(noise.edge_error.values()) \
        and (offsets_all is None or not np.any(offsets_all > 0))
    # Readout-only noise draws every shot's outcome in one go, then flips bits.
    chunk = shots if gate_noise_free else max(1, _CHUNK_AMPS >> n)
    cum = None
    if all(gate is None for _, _, gate in plan):
        # No op draws errors, so every trajectory is the same state: evolve it
        # once. Searching its cumulative sum picks what `_sample_rows` picks.
        state = zero_state(1, n)
        for targets, unitary, _ in plan:
            state = apply_unitary(state, unitary, targets)
        cum = np.cumsum(np.abs(state.reshape(-1)) ** 2)
        cum /= cum[-1]
    result: SampleSet | None = None
    start = 0
    while start < shots:
        size = min(chunk, shots - start)
        offsets = offsets_all[start:start + size] if offsets_all is not None else None
        if cum is not None:
            samples = np.searchsorted(cum, rng.random(size)).astype(np.int64)
        else:
            state = zero_state(size, n)
            for targets, unitary, gate in plan:
                state = apply_unitary(state, unitary, targets)
                if gate is not None:
                    for qubits, rows, choices in draw_gate_errors(noise, gate, offsets, size, rng):
                        apply_paulis(state, qubits, rows, choices)
            samples = _sample_rows(np.abs(state.reshape(size, -1)) ** 2, rng)
        samples = _readout_flips(samples, circuit, noise, offsets, rng)
        samples = _extract_measured_indices(samples, circuit)
        part = SampleSet.from_indices(samples, n_bits)
        result = part if result is None else result.merge(part)
        start += size
    return result
