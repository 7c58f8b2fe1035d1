"""Exact statevector simulation with stochastic Pauli-trajectory noise.

Shots are simulated as a batch of error histories: the state is a (rows,) +
(2,)*n tensor, one row per distinct error history with qubit q on axis 1 + q,
and a (shots,) index gives each shot's row.

Every sampler runs one trajectory engine. A circuit compiles once per call
into an execution plan, a list of (targets, fused unitary, sites), where the
sites are the (qubits, rate) pairs of `qbench.noise.firing_sites`, those that
can fire for some shot of the call; randomized benchmarking builds its plan
directly, one op per Clifford element with one site at the element rate. A
call first draws its whole error table with `qbench.noise.draw_errors`: the
plan's sites in order, then its readout bits. Then it picks outcomes, one
`rng.random` per shot, and nothing else is drawn, so how the shots are
chunked to bound memory changes no bit. The engine applies each op to every
row with one kernel (`np.tensordot` of the unitary with the target axes,
then `np.moveaxis` to put them back) and then reads each of its sites' hits
from the table. The hit shots of a site are grouped by (row, label): each
group gets one new row, its parent with the Pauli applied, and rows that no
shot points to any more are dropped. So shots whose errors agree so far
share one row, and the work follows the distinct histories, not the shots.
A plan with no sites, the noiseless one included, is the one-history case:
one row for every shot, picked from in one chunk.

Every shot's outcome follows one rule: the first index whose normalized
cumulative sum reaches the shot's uniform draw (`_sample_rows`). Each shot
takes one draw whatever the probabilities, so a last-digit change to one
outcome's probability moves only the shots whose draws fall within it.

Fusion follows qsim (Isakov et al., arXiv:2111.02396) but tracks the last op
on each qubit, because lowered gates are interleaved layer by layer: a 1q
gate folds into the next op on its qubit, and successive 2q gates on one pair
merge into one op. An op with sites closes: nothing fuses across it. On every
qubit, unitaries and injections keep their circuit order.

A drawn Pauli makes its group's row by index arithmetic, not matrix
products: X and Y XOR the amplitude index with their bits, and Z and Y
multiply by a sign.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, GateKind, _kron, _swap_pair, gate_unitary, pauli_matrix
from .distributions import ProbDist, SampleSet
from .errors import ValidationError, WidthCapError
from .noise import PAULI_BITS, NoiseModel, draw_errors, firing_sites, readout_sites

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


def apply_paulis(state: np.ndarray, qubits: tuple[int, ...], choices: np.ndarray) -> np.ndarray:
    """Row i of `state` with the Pauli `PAULI_LABELS[len(qubits)][choices[i]]` applied.

    `state` is a (len(choices),) + (2,)*n tensor. One gather serves every
    row: X and Y XOR the row's amplitude index with its mask, then Z and Y
    flip the sign of each output amplitude whose bit on the letter's qubit is 1.
    """
    n = state.ndim - 1
    x, z = (bits[choices].astype(np.int64) for bits in PAULI_BITS[len(qubits)])
    shifts = [n - 1 - q for q in qubits]
    index = np.arange(1 << n)
    flip = sum(x[:, j] << s for j, s in enumerate(shifts))
    parity = sum(z[:, j, None] * ((index >> s) & 1) for j, s in enumerate(shifts))
    phase = (1 - 2 * (parity & 1)) * _Y_PHASE[(x & z).sum(axis=1)][:, None]
    flat = state.reshape(len(choices), -1)
    gathered = np.take_along_axis(flat, index ^ flip[:, None], axis=1)
    return (gathered * phase).reshape(state.shape)


_I2 = np.eye(2, dtype=complex)


def _plan(circuit: Circuit, noise: NoiseModel | None, offsets: np.ndarray | None
          ) -> list[tuple[tuple[int, ...], np.ndarray, list[tuple[tuple[int, ...], float]]]]:
    """The circuit as fused ops: (targets, unitary, sites whose errors follow it).

    A gate's sites are those `firing_sites` gives it under the call's
    `offsets`. A 1q gate folds into the next op on its qubit, and a 2q gate
    merges into the last op on both its qubits when that op is on the same
    pair. A gate with sites closes its op: nothing merges into an op that
    carries sites. Ops with sites stay in gate order, so the plan's sites,
    read in order, are the call's site list of `qbench.noise.draw_errors`.
    """
    ops: list[list] = []
    last: dict[int, int] = {}
    pending: dict[int, np.ndarray] = {}

    def emit(targets, unitary, sites=()):
        ops.append([targets, unitary, list(sites)])
        for q in targets + tuple(q for qubits, _ in sites for q in qubits):
            last[q] = len(ops) - 1

    gates = list(circuit.all_gates())
    for gate, sites in zip(gates, firing_sites(noise, gates, offsets)):
        if gate.kind in (GateKind.MEASURE, GateKind.BARRIER):
            continue
        if gate.kind is GateKind.PAULI:
            # The letters are 1q gates (the layer's sign is a global phase). A noisy
            # layer emits its targets' pending 1q ops; the last target's carries the sites.
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


def _evolve(plan: list, batch: int, n_qubits: int,
            errors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """`batch` trajectories of `plan` from |0...0>, one row per distinct error history.

    `errors` is the (site, shot, label) table of these shots, sorted by site,
    with the plan's sites numbered in order. Returns (rows, history): shot
    i's state is `rows[history[i]]`. Every shot starts on one |0...0> row.
    Each op's unitary acts on every row, then each of its sites' hits are
    grouped by (row, label): each group gets one new row, its parent with
    that Pauli applied, and rows that no shot points to any more are dropped.
    """
    rows = zero_state(1, n_qubits)
    history = np.zeros(batch, dtype=np.intp)
    site, shot, label = errors if errors is not None else (np.zeros(0, np.int64),) * 3
    bounds = np.searchsorted(site, np.arange(sum(len(sites) for _, _, sites in plan) + 1))
    j = 0  # the plan's running site number
    for targets, unitary, sites in plan:
        rows = apply_unitary(rows, unitary, targets)
        for qubits, _ in sites:
            lo, hi = bounds[j], bounds[j + 1]
            j += 1
            if lo == hi:
                continue
            hit = shot[lo:hi]
            key = 4 ** len(qubits)  # above every label index of the site
            groups, group = np.unique(history[hit] * key + label[lo:hi], return_inverse=True)
            new = apply_paulis(rows[groups // key], qubits, groups % key)
            history[hit] = len(rows) + group
            live = np.bincount(history, minlength=len(rows) + len(new)) > 0
            rows = np.concatenate((rows[live[:len(rows)]], new))
            history = (np.cumsum(live) - 1)[history]
    return rows, history


def run_statevector(circuit: Circuit) -> StateVector:
    """Noiseless final state of `circuit` with measurements stripped."""
    _check_cap(circuit.n_qubits)
    rows, _ = _evolve(_plan(circuit, None, None), 1, circuit.n_qubits)
    return StateVector(circuit.n_qubits, rows.reshape(-1))


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


def _sample_rows(probs: np.ndarray, history: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One outcome index per shot: the first index whose normalized cumulative
    sum of the shot's row `probs[history[shot]]` reaches the shot's uniform draw.

    `probs` is (rows, N). One row, which every shot shares, is searched with
    `np.searchsorted`.
    """
    cum = np.cumsum(probs, axis=-1)
    cum /= cum[:, -1:]
    u = rng.random(len(history))
    if len(cum) == 1:
        return np.searchsorted(cum[0], u)
    return np.argmax(cum[history] >= u[:, None], axis=1)


def _sample_plan(plan: list, n_qubits: int, shots: int, noise: NoiseModel | None,
                 offsets: np.ndarray | None, readout: tuple[int, ...],
                 rng: np.random.Generator) -> np.ndarray:
    """One outcome index per shot of `plan`'s trajectories, after readout flips on `readout`.

    The call's error table is drawn first, for every shot: the plan's sites
    in order, then the bits of `readout` whose readout can flip. If some op
    carries sites, the shots then run in chunks of at most
    `_CHUNK_AMPS >> n_qubits`, so a chunk's history rows fit that many
    amplitudes; otherwise every shot has the one history and runs in one
    chunk. Each chunk picks its outcomes with one `rng.random(size)`, so the
    chunk size does not change a bit.
    """
    sites = [s for _, _, op_sites in plan for s in op_sites]
    flips = readout_sites(noise, readout, offsets)
    site, shot, label = draw_errors(sites, flips, offsets, shots, rng)
    chunk = max(1, _CHUNK_AMPS >> n_qubits) if sites else shots
    picks = []
    for start in range(0, shots, chunk):
        size = min(chunk, shots - start)
        inside = (shot >= start) & (shot < start + size)
        rows, history = _evolve(plan, size, n_qubits,
                                (site[inside], shot[inside] - start, label[inside]))
        picks.append(_sample_rows(np.abs(rows.reshape(len(rows), -1)) ** 2, history, rng))
    pick = np.concatenate(picks)
    flipped = site >= len(sites)
    if flipped.any():
        qubit = np.array([q for q, _ in flips])[site[flipped] - len(sites)]
        np.bitwise_xor.at(pick, shot[flipped], np.left_shift(1, n_qubits - 1 - qubit))
    return pick


def sample_counts(circuit: Circuit, shots: int, noise: NoiseModel | None,
                  rng: np.random.Generator) -> SampleSet:
    """Sample `shots` measurement outcomes, with optional trajectory noise.

    Noise follows the trajectory channel of `qbench.noise`: the call's error
    table is drawn first, then the outcome picks.
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
