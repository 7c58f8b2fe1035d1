"""Exact statevector simulation with stochastic Pauli-trajectory noise.

Shots are simulated as a batch of error histories: the state is a (rows,) +
(2,)*n tensor, one row per distinct error history with qubit q on axis 1 + q,
and a (shots,) index gives each shot's row.

Every sampler runs one trajectory engine. A circuit compiles once per call
into an execution plan, a list of (targets, fused unitary, sites). Each site
is (qubits, rate, frame): the (qubits, rate) pairs are those of
`qbench.noise.firing_sites`, the sites that can fire for some shot of the
call, and the frame is None or the unitary its Pauli is carried through (see
below). Randomized benchmarking builds its plan directly, one op per Clifford
element with one frameless site at the element rate. A call first draws its
whole error table with `qbench.noise.draw_call`: the plan's sites in order,
then its readout bits. Then it picks outcomes, one `rng.random` per shot, and
nothing else is drawn, so how the shots are chunked to bound memory changes
no bit. The engine applies each op to every row with one kernel (one flat
`rows @ U.T` when the op spans every qubit in order, else `np.tensordot` of
the unitary with the target axes, then `np.moveaxis` to put them back), and
then reads each of its sites' hits from the table. The hit shots of a site
are grouped by (row, label): each group gets one new row, its parent with
the Pauli applied, written once into a buffer that the op's hits size. Then
rows that no shot points to any more are dropped, once per op. So shots
whose errors agree so far share one row, and the work follows the distinct
histories, not the shots. The shots run in chunks whose history rows fit
`_CHUNK_AMPS` amplitudes, bounded up front from the table: at most one row
per shot and one more than the chunk's gate hits. A plan with no sites, the
noiseless one included, is the one-history case: one row for every shot, in
one chunk.

Every shot's outcome follows one rule: the first index whose normalized
cumulative sum reaches the shot's uniform draw (`_sample_rows`), found for
every shot at once by a fixed-step binary search over the rows' flat table.
Each shot takes one draw whatever the probabilities, so a last-digit change
to one outcome's probability moves only the shots whose draws fall within it.
The shot's row of measured bits is read from its pick, readout flips XORed in.

Fusion follows qsim (Isakov et al., arXiv:2111.02396) but tracks the last op
on each qubit, because lowered gates are interleaved layer by layer: a 1q
gate folds into the next op on its qubit, and successive 2q gates on one pair
merge into one op. The matrices of these ops are built in stacks. A gate
whose site can fire closes its op, so every site sits between two ops.

Up to 5 qubits (`_FULL_WIDTH`) the plan is then one op on every qubit,
noisy or not, and each site carries a frame. As with Stim's Pauli frames
(Gidney, Quantum 5, 497 (2021)), an error is carried past the later gates
instead of ending fusion there: with W the product of the ops before a
site, V the product of those after it and U = V W the op's unitary, an
error P gives V P W = (V P V†) U. So the engine applies U to the |0...0>
row once, and each hit group's new row is V P V† times its parent: two
small products and one Pauli gather, on the hit rows only. No row is evolved
or compacted twice.

Above 5 qubits, as in qsim's max-fused-size rule, site-free ops merge into
blocks of up to 4 qubits (`_BLOCK_QUBITS`): a block takes in an op only
while it is the last op on every one of its qubits. There fusion never
crosses a gate whose site can fire: an op with sites joins no block, its
sites carry no frame, and its hits are applied right after it. On every
qubit, unitaries and injections keep their circuit order.

A drawn Pauli makes its group's row by index arithmetic, not matrix
products: X and Y XOR the amplitude index with their bits, and Z and Y
multiply by a sign. Up to 5 qubits that gather is built once per (n, site
qubits), for every label, on first use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    _FIXED_1Q, _FIXED_2Q, ROTATION_AXIS, Circuit, GateKind, _kron, _swap_pair, rotation_unitary,
)
from .distributions import ProbDist, SampleSet
from .errors import ValidationError, WidthCapError
from .noise import PAULI_BITS, NoiseModel, draw_call, firing_sites

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

    targets[0] is the most significant bit of the unitary's index space. On
    every qubit in order it is one flat product, `rows @ unitary.T`.
    """
    k = len(targets)
    if k == state.ndim - 1 and targets == tuple(range(k)):
        return (state.reshape(len(state), -1) @ unitary.T).reshape(state.shape)
    axes = [1 + t for t in targets]
    out = np.tensordot(state, unitary.reshape((2,) * (2 * k)), axes=(axes, list(range(k, 2 * k))))
    return np.moveaxis(out, range(-k, 0), axes)


#: (-i)^k, the phase of a drawn Pauli with k Y letters (Y = -i ZX)
_Y_PHASE = np.array([(-1j) ** k for k in range(3)])

#: Ops span every qubit up to _FULL_WIDTH qubits; above that, blocks have at most _BLOCK_QUBITS
_FULL_WIDTH = 5
_BLOCK_QUBITS = 4

#: `_pauli_gather` of every label, per (n, qubits) with n <= _FULL_WIDTH, built on first use
_PAULI_GATHERS: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}


def _pauli_gather(n: int, qubits: tuple[int, ...], choices: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(index, phase), each (len(choices), 2^n): output amplitude i of a row
    with Pauli choice c applied is its amplitude index[c, i] times phase[c, i].
    X and Y XOR the index with their bits; Z and Y flip the sign of each output
    amplitude whose bit on the letter's qubit is 1."""
    x, z = (bits[choices].astype(np.int64) for bits in PAULI_BITS[len(qubits)])
    shifts = [n - 1 - q for q in qubits]
    index = np.arange(1 << n)
    flip = sum(x[:, j] << s for j, s in enumerate(shifts))
    parity = sum(z[:, j, None] * ((index >> s) & 1) for j, s in enumerate(shifts))
    return index ^ flip[:, None], (1 - 2 * (parity & 1)) * _Y_PHASE[(x & z).sum(axis=1)][:, None]


def _pauli_rows(flat: np.ndarray, qubits: tuple[int, ...], choices: np.ndarray) -> np.ndarray:
    """Row i of the (rows, 2^n) array `flat` with Pauli `choices[i]` of the
    site on `qubits` applied, by one gather. Up to `_FULL_WIDTH` qubits the
    gather of every label is built once per (n, qubits) and indexed."""
    n = flat.shape[1].bit_length() - 1
    if n > _FULL_WIDTH:
        index, phase = _pauli_gather(n, qubits, choices)
    else:
        table = _PAULI_GATHERS.get((n, qubits))
        if table is None:
            labels = np.arange(len(PAULI_BITS[len(qubits)][0]))
            table = _PAULI_GATHERS[n, qubits] = _pauli_gather(n, qubits, labels)
        index, phase = table[0][choices], table[1][choices]
    return flat.take((np.arange(len(flat)) << n)[:, None] + index) * phase


def apply_paulis(state: np.ndarray, qubits: tuple[int, ...], choices: np.ndarray) -> np.ndarray:
    """Row i of `state` with the Pauli `PAULI_LABELS[len(qubits)][choices[i]]` applied.

    `state` is a (len(choices),) + (2,)*n tensor; one gather serves every row.
    """
    return _pauli_rows(state.reshape(len(choices), -1), qubits, choices).reshape(state.shape)


_I2 = np.eye(2, dtype=complex)

#: `_plan`'s code of each 1q kind: the fixed kinds index their table, then RX, RY, RZ
_FIXED_KINDS = (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
                GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG)
_ONE_CODE = {kind: i for i, kind in enumerate(_FIXED_KINDS + tuple(ROTATION_AXIS))}
_LETTER_CODE = {letter: _ONE_CODE[GateKind[letter]] for letter in "XYZ"}
#: and of each 2q kind: the fixed kinds index their table, U2Q matrices follow it
_TWO_CODE = {GateKind.CX: 0, GateKind.CZ: 1, GateKind.SWAP: 2, GateKind.U2Q: 3}
_PAULI = GateKind.PAULI

#: 2q factors `_plan` multiplies per stacked product, which bounds its temporaries
_FACTOR_BATCH = 64

#: a plan's site: (qubits, rate, frame), the frame None or a unitary (see `_full_width`)
_Site = tuple[tuple[int, ...], float, np.ndarray | None]
_PlanOp = tuple[tuple[int, ...], np.ndarray, list[_Site]]


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

    Up to `_FULL_WIDTH` qubits the base ops become one op on every qubit,
    whose sites carry frames (`_full_width`). Above that, site-free base ops
    merge into blocks of at most `_BLOCK_QUBITS` qubits. A block takes in an
    op only while it is the last op on every one of its qubits, so it moves
    past nothing that touches them; it runs where its last op was. An op
    with sites stays alone, and its sites carry no frame. Either way the
    plan's sites, read in order, are the call's site list of
    `qbench.noise.draw_call`.
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
    two = np.empty((len(factors), 4, 4), dtype=complex)
    if factors:
        gate_code, run_a, run_b, flip = (np.array(column) for column in zip(*factors))
        table = np.array([_FIXED_2Q[kind] for kind in (GateKind.CX, GateKind.CZ, GateKind.SWAP)]
                         + matrices)
        for start in range(0, len(factors), _FACTOR_BATCH):
            part = slice(start, start + _FACTOR_BATCH)
            np.matmul(table[gate_code[part]], _kron(one[run_a[part]], one[run_b[part]]),
                      out=two[part])
        two[flip] = _swap_pair(two[flip])
        two = _fold(two, chains)
    unitaries = [(two if len(targets) == 2 else one)[index] for targets, _, index in base]
    if circuit.n_qubits <= _FULL_WIDTH:
        return _full_width(base, unitaries, circuit.n_qubits)

    # Blocks of base ops, (qubits, members), in the order of their last members:
    # a merge makes a new block at the end. `opened` maps each block that
    # carries no sites and is still the last op on all its qubits to them.
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
            if len(qubits | opened[b]) <= _BLOCK_QUBITS:
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
            plan.append((base[i][0], unitaries[i], [(q, rate, None) for q, rate in base[i][1]]))
    return plan


def _full_width(base: list[tuple], unitaries: list[np.ndarray], n: int) -> list[_PlanOp]:
    """The base ops as one op on all n qubits: their product, with every
    site's frame V the product of the ops after it (None after the last).

    With W the product of the ops up to a site and P its Pauli, V P W =
    (V P V†)(V W), and V W is the op's unitary: `_evolve` applies it to
    every row once, and V P V† only to the site's hit rows. The ops are
    embedded at full width in one stack per arity, and one product chain
    walks them backwards; each frame is the chain's running product.
    """
    if not base:
        return []
    embedded = [None] * len(base)
    for arity in (1, 2):
        members = [i for i, (targets, _, _) in enumerate(base) if len(targets) == arity]
        if members:
            stack = _embed(np.array([unitaries[i] for i in members]),
                           np.array([base[i][0] for i in members]), n)
            for i, op in zip(members, stack):
                embedded[i] = op
    sites: list[_Site] = []  # last site first
    product = None
    for (_, op_sites, _), op in zip(reversed(base), reversed(embedded)):
        sites += [(qubits, rate, product) for qubits, rate in reversed(op_sites)]
        product = op.copy() if product is None else product @ op
    return [(tuple(range(n)), product, sites[::-1])]


def _evolve(plan: list, batch: int, n_qubits: int,
            errors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """`batch` trajectories of `plan` from |0...0>, one row per distinct error history.

    `errors` is the (site, shot, label) table of these shots, sorted by site,
    with the plan's sites numbered in order. Returns (rows, history): shot
    i's state is `rows[history[i]]`. Every shot starts on one |0...0> row.
    Each op's unitary acts on every row, then each of its sites' hits are
    grouped by (row, label): each group gets one new row, its parent with
    that Pauli applied, conjugated by the site's frame V when it has one
    (V P V†, see `_full_width`). An op's new rows are written once, after
    its rows, into a buffer sized by its hits; then rows that no shot points
    to any more are dropped.
    """
    rows = zero_state(1, n_qubits)
    history = np.zeros(batch, dtype=np.intp)
    site, shot, label = errors if errors is not None else (np.zeros(0, np.int64),) * 3
    bounds = np.searchsorted(site, np.arange(sum(len(sites) for _, _, sites in plan) + 1))
    j = 0  # the plan's running site number
    for targets, unitary, sites in plan:
        rows = apply_unitary(rows, unitary, targets)
        hits = bounds[j + len(sites)] - bounds[j]
        if not hits:
            j += len(sites)
            continue
        count = len(rows)
        buffer = np.empty((count + hits, 1 << n_qubits), dtype=complex)
        buffer[:count] = rows.reshape(count, -1)
        for qubits, _, frame in sites:
            lo, hi = bounds[j], bounds[j + 1]
            j += 1
            if lo == hi:
                continue
            hit = shot[lo:hi]
            key = 4 ** len(qubits)  # above every label index of the site
            groups, group = np.unique(history[hit] * key + label[lo:hi], return_inverse=True)
            new = buffer[groups // key]
            if frame is not None:
                new = _pauli_rows(new @ frame.conj(), qubits, groups % key) @ frame.T
            else:
                new = _pauli_rows(new, qubits, groups % key)
            buffer[count:count + len(new)] = new
            history[hit] = count + group
            count += len(new)
        live = np.bincount(history, minlength=count) > 0
        rows = buffer[:count]
        if not live.all():
            rows = rows[live]
            history = (np.cumsum(live) - 1)[history]
        rows = rows.reshape((len(rows),) + (2,) * n_qubits)
    return rows, history


def run_statevector(circuit: Circuit) -> StateVector:
    """Noiseless final state of `circuit` with measurements stripped."""
    _check_cap(circuit.n_qubits)
    rows, _ = _evolve(_plan(circuit, None, None), 1, circuit.n_qubits)
    return StateVector(circuit.n_qubits, rows.reshape(-1))


def ideal_distribution(circuit: Circuit) -> ProbDist:
    """Exact noiseless output distribution over the measured bits.

    With no measurement layer, all qubits are reported in index order.
    """
    full = np.abs(run_statevector(circuit).amps) ** 2
    measured, n = circuit.measured_qubits(), circuit.n_qubits
    if not measured:
        return ProbDist(n, full)
    order = measured + tuple(q for q in range(n) if q not in measured)
    view = np.transpose(full.reshape((2,) * n), order)
    return ProbDist(len(measured), view.reshape(1 << len(measured), -1).sum(axis=1))


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
    """The measured bits of `plan`'s trajectories: a (shots, len(readout))
    uint8 array, column c the bit of qubit `readout[c]`, readout flips applied.

    The call's error table is drawn first, for every shot, by
    `qbench.noise.draw_call`: the plan's sites in order, then the bits of
    `readout` whose readout can flip. The shots then run in chunks whose
    history rows fit `_CHUNK_AMPS` amplitudes, a bound the table gives up
    front: a chunk holds at most one row per shot, and at most one more row
    than its gate hits (`_chunks`). So a call whose sites never fire, the
    noiseless one included, runs in one chunk. Each chunk picks its outcomes
    with one `rng.random(size)`, so the chunking does not change a bit.
    """
    sites = [(qubits, rate) for _, _, op_sites in plan for qubits, rate, _ in op_sites]
    (site, shot, label), flips = draw_call(sites, noise, readout, offsets, shots, rng)
    shifts = [n_qubits - 1 - q for q in readout]
    bits = np.empty((shots, len(readout)), dtype=np.uint8)
    for start, stop in _chunks(shot, shots, max(1, _CHUNK_AMPS >> n_qubits)):
        inside = (shot >= start) & (shot < stop)
        rows, history = _evolve(plan, stop - start, n_qubits,
                                (site[inside], shot[inside] - start, label[inside]))
        pick = _sample_rows(np.abs(rows.reshape(len(rows), -1)) ** 2, history, rng)
        for column, shift in enumerate(shifts):
            bits[start:stop, column] = (pick >> shift) & 1
    bits[flips] ^= 1
    return bits


def sample_counts(circuit: Circuit, shots: int, noise: NoiseModel | None,
                  rng: np.random.Generator) -> SampleSet:
    """Sample `shots` measurement outcomes, with optional trajectory noise.

    Noise follows the trajectory channel of `qbench.noise`: the call's error
    table is drawn first, then the outcome picks.
    """
    _check_cap(circuit.n_qubits)
    if shots <= 0:
        raise ValidationError("shots must be positive")
    if not circuit.n_qubits:
        raise ValidationError("a circuit with no qubits has no outcome bits to sample")
    n = circuit.n_qubits
    offsets = noise.shot_offsets(shots) if noise is not None else None
    bits = _sample_plan(_plan(circuit, noise, offsets), n, shots, noise, offsets,
                        circuit.measured_qubits() or tuple(range(n)), rng)
    return SampleSet.from_rows(bits)
