"""Exact statevector simulation with stochastic Pauli-trajectory noise.

Shots are simulated as a batch: the state is a (batch,) + (2,)*n tensor, one
row per trajectory with qubit q on axis 1 + q, and noise draws select the rows
that receive a Pauli injection.

Every sampler runs one trajectory engine. A circuit compiles once per call
into an execution plan, a list of (targets, fused unitary, sites), where the
sites are the (qubits, rate) pairs of `qbench.noise.gate_sites` that can fire
for some shot of the call; randomized benchmarking builds its plan directly,
one op per Clifford element with one site at the element rate. The engine
applies each op with one kernel (`np.tensordot` of the unitary with the
target axes, then `np.moveaxis` to put them back) and draws each of its sites
right after it, once per chunk of trajectories, so the draw layout of
`qbench.noise` holds. A plan with no sites, the noiseless one included, is
one state for every shot: it is evolved once and every shot is picked from it
in one chunk.

Every shot's outcome follows one rule: the first index whose normalized
cumulative sum reaches the shot's uniform draw (`_sample_rows`). Each shot
takes one draw whatever the probabilities, so a last-digit change to one
outcome's probability moves only the shots whose draws fall within it.

Fusion follows qsim (Isakov et al., arXiv:2111.02396) but tracks the last op
on each qubit, because lowered gates are interleaved layer by layer: a 1q
gate folds into the next op on its qubit, and successive 2q gates on one pair
merge into one op. An op with sites closes: nothing fuses across it. On every
qubit, unitaries and injections keep their circuit order.

A drawn Pauli acts on the hit rows by index arithmetic, not matrix products:
X and Y XOR the amplitude index with their bits, and Z and Y multiply by a
sign.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, GateKind, gate_unitary, pauli_matrix
from .distributions import ProbDist, SampleSet
from .errors import ValidationError, WidthCapError
from .noise import PAULI_BITS, NoiseModel, can_fire, draw_readout_flips, draw_site, gate_sites

STATEVECTOR_WIDTH_CAP = 24

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


def _check_cap(n_qubits: int) -> None:
    if n_qubits > STATEVECTOR_WIDTH_CAP:
        raise WidthCapError(
            f"{n_qubits} qubits is not practical at this width for dense simulation "
            f"(cap {STATEVECTOR_WIDTH_CAP})"
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


#: (-i)^k, the phase of a drawn Pauli with k Y letters (Y = -i ZX)
_Y_PHASE = np.array([(-1j) ** k for k in range(3)])


def apply_paulis(state: np.ndarray, qubits: tuple[int, ...], rows: np.ndarray,
                 choices: np.ndarray) -> None:
    """Apply the drawn Pauli `PAULI_LABELS[len(qubits)][choice]` to each hit row, in place.

    `state` is a (batch,) + (2,)*n tensor. One gather serves every hit row: X
    and Y XOR the row's amplitude index with its mask, then Z and Y flip the
    sign of each output amplitude whose bit on the letter's qubit is 1.
    """
    if not len(rows):
        return
    n = state.ndim - 1
    x, z = (bits[choices].astype(np.int64) for bits in PAULI_BITS[len(qubits)])
    shifts = [n - 1 - q for q in qubits]
    index = np.arange(1 << n)
    flip = sum(x[:, j] << s for j, s in enumerate(shifts))
    parity = sum(z[:, j, None] * ((index >> s) & 1) for j, s in enumerate(shifts))
    phase = (1 - 2 * (parity & 1)) * _Y_PHASE[(x & z).sum(axis=1)][:, None]
    flat = state[rows].reshape(len(rows), -1)
    gathered = np.take_along_axis(flat, index ^ flip[:, None], axis=1)
    state[rows] = (gathered * phase).reshape((len(rows),) + (2,) * n)


_I2 = np.eye(2, dtype=complex)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 matrices, without its generic-shape overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _swap_pair(unitary: np.ndarray) -> np.ndarray:
    """The 4x4 `unitary` with its two qubits exchanged."""
    return unitary.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def _plan(circuit: Circuit, noise: NoiseModel | None, offsets: np.ndarray | None
          ) -> list[tuple[tuple[int, ...], np.ndarray, list[tuple[tuple[int, ...], float]]]]:
    """The circuit as fused ops: (targets, unitary, sites drawn right after it).

    A gate's sites are the (qubits, rate) pairs of `gate_sites` that can fire
    for some shot under the call's `offsets`, decided once per (kind,
    targets). A 1q gate folds into the next op on its qubit, and a 2q gate
    merges into the last op on both its qubits when that op is on the same
    pair. A gate with sites closes its op: nothing merges into an op that
    carries sites. Ops with sites stay in gate order, so the draws keep the
    layout of `qbench.noise`.
    """
    ops: list[list] = []
    last: dict[int, int] = {}
    pending: dict[int, np.ndarray] = {}
    sites_of: dict[tuple, list] = {}

    def emit(targets, unitary, sites=()):
        ops.append([targets, unitary, list(sites)])
        for q in targets + tuple(q for qubits, _ in sites for q in qubits):
            last[q] = len(ops) - 1

    for gate in circuit.all_gates():
        if gate.kind in (GateKind.MEASURE, GateKind.BARRIER):
            continue
        sites = []
        if noise is not None:
            key = (gate.kind, gate.targets)
            if key not in sites_of:
                sites_of[key] = [s for s in gate_sites(noise, gate) if can_fire(s[1], offsets)]
            sites = sites_of[key]
        if gate.kind is GateKind.PAULI:
            # The letters are 1q gates (the layer's sign is a global phase). A noisy
            # layer emits its targets' pending 1q ops; the last target's carries the draws.
            for q, letter in zip(gate.targets, gate.paulis):
                if letter != "I":
                    pending[q] = pauli_matrix(letter) @ pending.get(q, _I2)
            if sites:
                *rest, final = gate.targets
                for q in rest:
                    if q in pending:
                        emit((q,), pending.pop(q))
                emit((final,), pending.pop(final, _I2), sites)
            continue
        unitary = gate_unitary(gate)
        if len(gate.targets) == 1:
            (q,) = gate.targets
            pending[q] = unitary @ pending.get(q, _I2)
            if sites:
                emit((q,), pending.pop(q), sites)
            continue
        a, b = gate.targets
        unitary = unitary @ _kron(pending.pop(a, _I2), pending.pop(b, _I2))
        i = last.get(a)
        if not sites and i is not None and last.get(b) == i and not ops[i][2] \
                and set(ops[i][0]) == {a, b}:
            ops[i][1] = (unitary if ops[i][0] == (a, b) else _swap_pair(unitary)) @ ops[i][1]
        else:
            emit((a, b), unitary, sites)
    for q in sorted(pending):
        emit((q,), pending[q])
    return [tuple(op) for op in ops]


def _evolve(plan: list, batch: int, n_qubits: int, offsets: np.ndarray | None,
            rng: np.random.Generator | None) -> np.ndarray:
    """`batch` trajectories of `plan` from |0...0>: each op's unitary, then a
    draw for each of its sites (with these per-shot offsets) and the drawn Paulis."""
    state = zero_state(batch, n_qubits)
    for targets, unitary, sites in plan:
        state = apply_unitary(state, unitary, targets)
        for qubits, rate in sites:
            drawn = draw_site(rate, offsets, batch, len(qubits), rng)
            if drawn is not None:
                apply_paulis(state, qubits, *drawn)
    return state


def run_statevector(circuit: Circuit) -> StateVector:
    """Noiseless final state of `circuit` with measurements stripped."""
    _check_cap(circuit.n_qubits)
    state = _evolve(_plan(circuit, None, None), 1, circuit.n_qubits, None, None)
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


def ideal_distribution(circuit: Circuit) -> ProbDist:
    """Exact noiseless output distribution over the measured bits.

    With no measurement layer, all qubits are reported in index order.
    """
    state = run_statevector(circuit)
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


def _sample_rows(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """One outcome index per shot: the first index whose normalized cumulative
    sum reaches the shot's uniform draw.

    `probs` is either one (N,) row that every shot shares, searched with
    `np.searchsorted`, or a (shots, N) array with one row per shot.
    """
    cum = np.cumsum(probs, axis=-1)
    cum /= cum[..., -1:]
    u = rng.random(shots)
    if cum.ndim == 1:
        return np.searchsorted(cum, u)
    return np.argmax(cum >= u[:, None], axis=1)


def _sample_plan(plan: list, n_qubits: int, shots: int, noise: NoiseModel | None,
                 offsets: np.ndarray | None, readout: tuple[int, ...],
                 rng: np.random.Generator) -> np.ndarray:
    """One outcome index per shot of `plan`'s trajectories, after readout flips on `readout`.

    If some op carries sites, chunks of trajectories are evolved and each
    shot picks from its own row. Otherwise every trajectory is the same
    state, so one state is evolved and every shot picks from it in one chunk.
    """
    draws = any(sites for _, _, sites in plan)
    chunk = max(1, _CHUNK_AMPS >> n_qubits) if draws else shots
    if not draws:
        probs = np.abs(_evolve(plan, 1, n_qubits, None, rng).reshape(-1)) ** 2
    picks = []
    for start in range(0, shots, chunk):
        size = min(chunk, shots - start)
        part = offsets[start:start + size] if offsets is not None else None
        if draws:
            probs = np.abs(_evolve(plan, size, n_qubits, part, rng).reshape(size, -1)) ** 2
        pick = _sample_rows(probs, size, rng)
        if noise is not None:
            for q, flips in draw_readout_flips(noise, readout, part, size, rng):
                pick ^= flips.astype(np.int64) << (n_qubits - 1 - q)
        picks.append(pick)
    return np.concatenate(picks)


def sample_counts(circuit: Circuit, shots: int, noise: NoiseModel | None,
                  rng: np.random.Generator) -> SampleSet:
    """Sample `shots` measurement outcomes, with optional trajectory noise.

    Noise follows the trajectory channel and draw layout of `qbench.noise`,
    drawn per chunk of trajectories.
    """
    _check_cap(circuit.n_qubits)
    if shots <= 0:
        raise ValidationError("shots must be positive")
    n = circuit.n_qubits
    measured = circuit.measured_qubits()
    offsets = noise.shot_offsets(shots) if noise is not None else None
    picks = _sample_plan(_plan(circuit, noise, offsets), n, shots, noise, offsets,
                         measured or tuple(range(n)), rng)
    return SampleSet.from_indices(_extract_measured_indices(picks, circuit),
                                  len(measured) if measured else n)
