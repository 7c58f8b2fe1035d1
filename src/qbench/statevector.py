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
The shots run in chunks whose history rows fit `_CHUNK_AMPS` amplitudes,
bounded up front from the table: at most one row per shot and one more
than the chunk's gate hits. A plan with no sites, the noiseless one
included, is the one-history case: one row for every shot, in one chunk.

Every shot's outcome follows one rule: the first index whose normalized
cumulative sum reaches the shot's uniform draw (`_sample_rows`), found for
every shot at once by a fixed-step binary search over the rows' flat table.
Each shot takes one draw whatever the probabilities, so a last-digit change
to one outcome's probability moves only the shots whose draws fall within it.

Fusion follows qsim (Isakov et al., arXiv:2111.02396) but tracks the last op
on each qubit, because lowered gates are interleaved layer by layer: a 1q
gate folds into the next op on its qubit, and successive 2q gates on one pair
merge into one op. The matrices of these ops are built in stacks. Then, as
in qsim's max-fused-size rule, site-free ops merge into blocks of up to K
qubits, K = n for n <= 5 and 4 above that: a block takes in an op only while
it is the last op on every one of its qubits, so at n <= 5 a noiseless
circuit is one op, one GEMM per application. An op with sites closes:
nothing fuses across it, and it joins no block. On every qubit, unitaries
and injections keep their circuit order.

A drawn Pauli makes its group's row by index arithmetic, not matrix
products: X and Y XOR the amplitude index with their bits, and Z and Y
multiply by a sign.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    _FIXED_1Q, _FIXED_2Q, ROTATION_AXIS, Circuit, GateKind, _kron, _swap_pair, rotation_unitary,
)
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

#: Fused ops span every qubit up to _FULL_WIDTH qubits, else at most _BLOCK_QUBITS
_FULL_WIDTH = 5
_BLOCK_QUBITS = 4

#: `_plan`'s code of each 1q kind: the fixed kinds index their table, then RX, RY, RZ
_FIXED_KINDS = (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
                GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG)
_ONE_CODE = {kind: i for i, kind in enumerate(_FIXED_KINDS + tuple(ROTATION_AXIS))}
_LETTER_CODE = {letter: _ONE_CODE[GateKind[letter]] for letter in "XYZ"}
#: and of each 2q kind: the fixed kinds index their table, U2Q matrices follow it
_TWO_CODE = {GateKind.CX: 0, GateKind.CZ: 1, GateKind.SWAP: 2, GateKind.U2Q: 3}
_PAULI = GateKind.PAULI

_PlanOp = tuple[tuple[int, ...], np.ndarray, list[tuple[tuple[int, ...], float]]]


def _fold(mats: np.ndarray, chains: list[list[int]]) -> np.ndarray:
    """The product of each chain of indices into the stack `mats`, later
    factors on the left: one stacked `@` per chain position."""
    if not chains:
        return mats[:0]
    lengths = np.array([len(chain) for chain in chains])
    order = np.argsort(-lengths, kind="stable")
    flat = np.array([i for chain in chains for i in chain])
    starts = (np.cumsum(lengths) - lengths)[order]
    acc = mats[flat[starts]]
    for p in range(1, lengths.max()):
        k = np.count_nonzero(lengths > p)  # the chains still this long lead `order`
        acc[:k] = mats[flat[starts[:k] + p]] @ acc[:k]
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _embed(unitaries: np.ndarray, positions: np.ndarray, k: int) -> np.ndarray:
    """Each unitary of an (m, 2^a, 2^a) stack on the qubits `positions[i]` of
    a k-qubit space, position 0 its high bit: (m, 2^k, 2^k)."""
    index = np.arange(1 << k)
    shifts = k - 1 - positions
    bits = (index >> shifts[..., None]) & 1
    sub = (bits << np.arange(positions.shape[1] - 1, -1, -1)[:, None]).sum(axis=1)
    rest = index & ~(1 << shifts).sum(axis=1)[:, None]
    entries = unitaries[np.arange(len(unitaries))[:, None, None], sub[:, :, None], sub[:, None, :]]
    entries *= rest[:, :, None] == rest[:, None, :]
    return entries


def _plan(circuit: Circuit, noise: NoiseModel | None, offsets: np.ndarray | None
          ) -> list[_PlanOp]:
    """The circuit as fused ops: (targets, unitary, sites whose errors follow it).

    A gate's sites are those `firing_sites` gives it under the call's
    `offsets`. The gates first become base ops: a 1q gate folds into the
    next op on its qubit, and a 2q gate merges into the last op on both its
    qubits when that op is on the same pair. A gate with sites closes its op:
    nothing merges into an op that carries sites. The gate loop only records
    which factor goes into which op; the matrices are built in stacks.

    Then site-free base ops merge into blocks of at most `_BLOCK_QUBITS`
    qubits (of every qubit, up to `_FULL_WIDTH` qubits). A block takes in an
    op only while it is the last op on every one of its qubits, so it moves
    past nothing that touches them; it runs where its last op was. An op
    with sites stays alone, so the plan's sites, read in order, are the
    call's site list of `qbench.noise.draw_errors`.
    """
    codes: list[int] = []  # one per 1q factor
    angles: list[float] = []
    runs: list[list[int]] = []  # each a chain of 1q factors, closed by the op it joins
    pending: dict[int, list[int]] = {}
    factors: list[tuple[int, int, int, bool]] = []  # (2q code, run on a, run on b, reversed)
    matrices: list[np.ndarray] = []  # the U2Q matrices
    chains: list[list[int]] = []  # each 2q op's chain of factors
    base: list[tuple] = []  # (targets, sites, index of its run or chain)
    last: dict[int, int] = {}

    def close(q: int) -> int:
        """Index of qubit q's pending run; -1, the identity, if it has none."""
        run = pending.pop(q, None)
        if run is None:
            return -1
        runs.append(run)
        return len(runs) - 1

    def emit(targets, sites, index):
        for q in targets + tuple(q for qubits, _ in sites for q in qubits):
            last[q] = len(base)
        base.append((targets, sites, index))

    gates = list(circuit.all_gates())
    for gate, sites in zip(gates, firing_sites(noise, gates, offsets)):
        if (code := _ONE_CODE.get(gate.kind)) is not None:
            (q,) = gate.targets
            pending.setdefault(q, []).append(len(codes))
            codes.append(code)
            angles.append(gate.angle or 0.0)
            if sites:
                emit((q,), sites, close(q))
        elif (code := _TWO_CODE.get(gate.kind)) is not None:
            a, b = gate.targets
            if gate.matrix is not None:  # U2Q: its matrix follows the fixed table
                code += len(matrices)
                matrices.append(gate.matrix)
            i = last.get(a)
            if not sites and i is not None and last.get(b) == i and not base[i][1] \
                    and set(base[i][0]) == {a, b}:
                chains[base[i][2]].append(len(factors))
                factors.append((code, close(a), close(b), base[i][0] != (a, b)))
            else:
                chains.append([len(factors)])
                factors.append((code, close(a), close(b), False))
                emit((a, b), sites, len(chains) - 1)
        elif gate.kind is _PAULI:
            # The letters are 1q gates (the layer's sign is a global phase). A noisy
            # layer emits its targets' pending 1q ops; the last target's carries the sites.
            for q, letter in zip(gate.targets, gate.paulis):
                if letter != "I":
                    pending.setdefault(q, []).append(len(codes))
                    codes.append(_LETTER_CODE[letter])
                    angles.append(0.0)
            if sites:
                *rest, final = gate.targets
                for q in rest:
                    if q in pending:
                        emit((q,), [], close(q))
                emit((final,), sites, close(final))
    for q in sorted(pending):
        emit((q,), [], close(q))

    # The matrices, in stacks: the 1q runs (and the identity, index -1), each
    # 2q factor (its gate after its qubits' runs, on its op's target order),
    # and each 2q op's chain.
    codes, angles = np.array(codes, dtype=np.intp), np.array(angles)
    one = np.empty((len(codes), 2, 2), dtype=complex)
    fixed = codes < len(_FIXED_KINDS)
    one[fixed] = np.array([_FIXED_1Q[kind] for kind in _FIXED_KINDS])[codes[fixed]]
    for kind, axis in ROTATION_AXIS.items():
        rotation = codes == _ONE_CODE[kind]
        one[rotation] = rotation_unitary(axis, angles[rotation])
    one = np.concatenate((_fold(one, runs), _I2[None]))
    two = np.zeros((0, 4, 4), dtype=complex)
    if factors:
        gate_code, run_a, run_b, flip = (np.array(column) for column in zip(*factors))
        table = np.array([_FIXED_2Q[kind] for kind in (GateKind.CX, GateKind.CZ, GateKind.SWAP)]
                         + matrices)
        two = table[gate_code] @ _kron(one[run_a], one[run_b])
        two[flip] = _swap_pair(two[flip])
        two = _fold(two, chains)
    unitaries = [(two if len(targets) == 2 else one)[index] for targets, _, index in base]

    # Blocks of base ops, (qubits, members), in the order of their last members:
    # a merge makes a new block at the end. `opened` maps each block that
    # carries no sites and is still the last op on all its qubits to them.
    width = circuit.n_qubits if circuit.n_qubits <= _FULL_WIDTH else _BLOCK_QUBITS
    blocks: list[tuple[frozenset, list[int]] | None] = []
    opened: dict[int, frozenset] = {}
    owner: dict[int, int] = {}
    for i, (targets, sites, _) in enumerate(base):
        if sites:  # a block of its own, which closes every block it touches
            qubits = frozenset(targets).union(*(site_qubits for site_qubits, _ in sites))
            for q in qubits:
                opened.pop(owner.get(q), None)
                owner[q] = len(blocks)
            blocks.append((qubits, [i]))
            continue
        qubits = frozenset(targets)
        near = {owner[q] for q in qubits if q in owner}
        # The open blocks on its qubits join, most shared qubits first, while
        # the union fits; an op on fresh qubits joins the latest open block.
        candidates = sorted(near & opened.keys(), key=lambda b: (-len(opened[b] & qubits), -b))
        if not near and opened:
            candidates = [max(opened)]
        join = []
        for b in candidates:
            if len(qubits | opened[b]) <= width:
                join.append(b)
                qubits |= opened[b]
        members = [m for b in sorted(join) for m in blocks[b][1]] + [i]
        for b in join:
            blocks[b] = None
        for b in near.union(join):
            opened.pop(b, None)
        for q in qubits:
            owner[q] = len(blocks)
        opened[len(blocks)] = qubits
        blocks.append((qubits, members))
    blocks = [block for block in blocks if block is not None]

    # Each merged block's unitary, built for all blocks of one width at once:
    # at each member position, the members there are embedded in their
    # blocks' sorted qubits, one stack per arity, and multiply their products.
    fused: dict[int, np.ndarray] = {}
    for k in {len(qubits) for qubits, members in blocks if len(members) > 1}:
        wide = [j for j, (qubits, members) in enumerate(blocks)
                if len(members) > 1 and len(qubits) == k]
        local = [{q: p for p, q in enumerate(sorted(blocks[j][0]))} for j in wide]
        products = np.tile(np.eye(1 << k, dtype=complex), (len(wide), 1, 1))
        for p in range(max(len(blocks[j][1]) for j in wide)):
            here = [(w, blocks[j][1][p]) for w, j in enumerate(wide) if p < len(blocks[j][1])]
            for arity in (1, 2):
                picks = [(w, i) for w, i in here if len(base[i][0]) == arity]
                if picks:
                    rows = [w for w, _ in picks]
                    positions = np.array([[local[w][q] for q in base[i][0]] for w, i in picks])
                    embedded = _embed(np.array([unitaries[i] for _, i in picks]), positions, k)
                    products[rows] = embedded @ products[rows]
        fused.update(zip(wide, products))

    plan = []
    for j, (qubits, members) in enumerate(blocks):
        if j in fused:
            plan.append((tuple(sorted(qubits)), fused[j], []))
        else:
            (i,) = members
            plan.append((base[i][0], unitaries[i], base[i][1]))
    return plan


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

    `probs` is (rows, N), N a power of two. Every shot is searched at once in
    the flat cumulative table, by a fixed-step binary search: log2(N) gathers
    of one entry per shot.
    """
    cum = np.cumsum(probs, axis=-1)
    cum /= cum[:, -1:]
    flat = cum.reshape(-1)
    u = rng.random(len(history))
    start = history * cum.shape[1]
    lo = start.copy()
    step = cum.shape[1] >> 1
    while step:
        lo += (flat[step - 1:][lo] < u) * step
        step >>= 1
    return lo - start


def _chunks(gate_hits: np.ndarray, shots: int, budget: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) shot ranges, each the longest from its start
    whose history rows fit `budget`: a chunk has at most as many rows as it
    has shots, and at most one more than its gate hits, `gate_hits` being the
    shot of each."""
    before = np.concatenate(([0], np.cumsum(np.bincount(gate_hits, minlength=shots))))
    ranges = []
    start = 0
    while start < shots:
        by_hits = int(np.searchsorted(before, before[start] + budget - 1, side="right")) - 1
        stop = min(shots, max(start + budget, by_hits))
        ranges.append((start, stop))
        start = stop
    return ranges


def _sample_plan(plan: list, n_qubits: int, shots: int, noise: NoiseModel | None,
                 offsets: np.ndarray | None, readout: tuple[int, ...],
                 rng: np.random.Generator) -> np.ndarray:
    """One outcome index per shot of `plan`'s trajectories, after readout flips on `readout`.

    The call's error table is drawn first, for every shot: the plan's sites
    in order, then the bits of `readout` whose readout can flip. The shots
    then run in chunks whose history rows fit `_CHUNK_AMPS` amplitudes, a
    bound the table gives up front: a chunk holds at most one row per shot,
    and at most one more row than its gate hits (`_chunks`). So a call
    whose sites never fire, the noiseless one included, runs in one chunk.
    Each chunk picks its outcomes with one `rng.random(size)`, so the
    chunking does not change a bit.
    """
    sites = [s for _, _, op_sites in plan for s in op_sites]
    flips = readout_sites(noise, readout, offsets)
    site, shot, label = draw_errors(sites, flips, offsets, shots, rng)
    picks = []
    for start, stop in _chunks(shot[site < len(sites)], shots, max(1, _CHUNK_AMPS >> n_qubits)):
        inside = (shot >= start) & (shot < stop)
        rows, history = _evolve(plan, stop - start, n_qubits,
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
