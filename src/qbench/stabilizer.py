"""Stabilizer-tableau simulation for Clifford circuits.

The tableau keeps 2n generator rows (n destabilizers, n stabilizers) as X/Z
bit matrices plus a sign bit per row. A gate moves the X/Z bits by the Pauli
frame rules of `_push_frame` and flips signs by CHP's phase rule in
`_sign_flips` (Aaronson & Gottesman, PRA 70, 052328 (2004)); these two are
the only encoding of how a Clifford gate maps Paulis, and the Clifford group
search and the mirror construction's expected outcome use them too. Sampling
does not measure qubit by qubit; instead the computational-basis outcome
distribution of a stabilizer state is uniform over an affine GF(2) subspace,
c0 xor span(basis), which is extracted once by Gaussian elimination and then
sampled with vectorized bit algebra.

Noisy circuits are sampled with Pauli frames, as in Stim (Gidney, Quantum 5,
497 (2021)): each shot carries only the X and Z bits of the Pauli its errors
add up to, conjugated through the gates that follow them. Signs are dropped,
since they do not change outcomes. A frame's X bits flip outcome bits and its
Z bits leave them alone, so a shot's outcomes are uniform over c0 xor frame_x
xor span(basis). The call's errors come first, as the one sparse table of
`qbench.noise.draw_errors` that the statevector sampler reads too; then the
ideal tableau's columns and the frames go through one gate loop (`_run`),
each gate's hits XORed into the frames after it; then the outcome picks.
A noiseless circuit is the case with no frames and no table.

The same row representation doubles as an exact group-element encoding for
Clifford enumeration.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, Gate, GateKind
from .distributions import SampleSet
from .errors import NonCliffordError, ValidationError
from .noise import PAULI_BITS, NoiseModel, draw_errors, firing_sites, readout_sites

STABILIZER_WIDTH_CAP = 1000


class StabilizerTableau:
    """2n x (2n+1) binary tableau: rows 0..n-1 destabilizers, n..2n-1 stabilizers."""

    __slots__ = ("n", "x", "z", "r")

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError("tableau needs at least one qubit")
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        idx = np.arange(n)
        self.x[idx, idx] = 1
        self.z[n + idx, idx] = 1

    def copy(self) -> "StabilizerTableau":
        t = StabilizerTableau.__new__(StabilizerTableau)
        t.n = self.n
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.r = self.r.copy()
        return t

    def key(self) -> bytes:
        """Exact canonical encoding; equal keys iff equal Clifford group elements.

        `_stack_keys` builds the same bytes for a stack of tableaux.
        """
        return self.x.tobytes() + self.z.tobytes() + self.r.tobytes()

    def apply_gate(self, gate: Gate) -> None:
        x, z = self.x.T, self.z.T
        self.r ^= _sign_flips(x, z, gate)
        _push_frame(x, z, gate)

    # -- measurement-outcome structure ----------------------------------------

    def outcome_space(self) -> tuple[np.ndarray, np.ndarray]:
        """(c0, basis): measurement outcomes are uniform over c0 xor span(basis).

        Bit vectors are indexed by qubit; an empty basis means the outcome is
        deterministic. Derivation: stabilizer rows with no X part force the
        parity of the outcome on their Z support, everything else is free. So
        the rows are reduced on their X parts, then those left with no X part
        on their Z parts, whose pivot columns are fixed by the row signs.
        """
        n = self.n
        x, z, r = self.x[n:].copy(), self.z[n:].copy(), self.r[n:].copy()
        k = len(_row_reduce(x, z, r, x))  # rank of the X block = number of random outcome bits
        x, z, r = x[k:], z[k:], r[k:]
        fixed = _row_reduce(x, z, r, z)
        if r[len(fixed):].any() or n - len(fixed) != k:
            raise ValidationError("inconsistent stabilizer outcome space")
        c0 = np.zeros(n, dtype=np.uint8)
        c0[fixed] = r[:len(fixed)]
        free = [col for col in range(n) if col not in fixed]
        basis = np.zeros((len(free), n), dtype=np.uint8)
        basis[np.arange(len(free)), free] = 1
        basis[:, fixed] = z[:len(fixed)][:, free].T
        return c0, basis


def _stack_keys(x: np.ndarray, z: np.ndarray, r: np.ndarray) -> list[bytes]:
    """`StabilizerTableau.key()` of each tableau in a stack, with x[q], z[q] and r of shape (F, 2n)."""
    rows = [np.moveaxis(m, 0, -1).reshape(r.shape[0], -1) for m in (x, z)]
    packed = np.ascontiguousarray(np.concatenate(rows + [r], axis=1))
    return packed.view(f"V{packed.shape[1]}").ravel().tolist()


def _rowmult_phase(xh, zh, rh, xi, zi, ri) -> np.ndarray:
    """Sign bits of the stacked rows h := row h * row i, mod-4 Pauli phase bookkeeping."""
    xh64 = xh.astype(np.int64)
    zh64 = zh.astype(np.int64)
    m_y = (xi == 1) & (zi == 1)
    m_x = (xi == 1) & (zi == 0)
    m_z = (xi == 0) & (zi == 1)
    g = m_y * (zh64 - xh64) + m_x * (zh64 * (2 * xh64 - 1)) + m_z * (xh64 * (1 - 2 * zh64))
    total = (2 * rh.astype(np.int64) + 2 * int(ri) + g.sum(axis=-1)) % 4
    if np.any(total % 2):
        raise ValidationError("anticommuting rows multiplied in tableau reduction")
    return (total // 2).astype(np.uint8)


def _row_reduce(x: np.ndarray, z: np.ndarray, r: np.ndarray, block: np.ndarray) -> list[int]:
    """Gauss-Jordan elimination, in place, of the Pauli rows (x, z, r) on the columns
    of `block` (`x` or `z`), signs kept exact; returns the pivot columns in row order."""
    pivots: list[int] = []
    for col in range(block.shape[1]):
        row = len(pivots)
        hits = np.flatnonzero(block[row:, col])
        if not hits.size:
            continue
        pivot = row + int(hits[0])
        if pivot != row:
            for m in (x, z, r):
                m[[pivot, row]] = m[[row, pivot]]
        others = np.flatnonzero(block[:, col])
        others = others[others != row]
        if others.size:
            r[others] = _rowmult_phase(x[others], z[others], r[others], x[row], z[row], r[row])
            x[others] ^= x[row]
            z[others] ^= z[row]
        pivots.append(col)
    return pivots


def _sample_set(bits: np.ndarray, measured: tuple[int, ...]) -> SampleSet:
    """Counts of the measured bit columns, keyed from the bit rows so that any width fits.

    Each shot's bits become one fixed-width bytes key, so one 1-D `np.unique`
    sorts and counts them.
    """
    chars = np.ascontiguousarray(bits[:, list(measured)] + ord("0"))
    keys, freq = np.unique(chars.view(f"S{len(measured)}").ravel(), return_counts=True)
    return SampleSet(len(measured), dict(zip((k.decode() for k in keys.tolist()), freq.tolist())))


def _run(circuit: Circuit, frames: int = 0, errors: dict | None = None
         ) -> tuple[StabilizerTableau, np.ndarray]:
    """The one gate loop: the ideal tableau after `circuit`, and the X bits,
    shape (n, frames), of `frames` Pauli frames pushed through it.

    The tableau's columns (qubit q's bits across its 2n rows) and the frames
    sit side by side in one (n, 2n + frames) X/Z pair, so each gate is one
    `_push_frame` call; `_sign_flips` reads the tableau columns only. After
    gate i, `errors[i]` = (qubits, frames, x bits, z bits), if there, is XORed
    into the frames. `circuit` must be Clifford and measure only at the end.
    """
    if circuit.metadata.get("mid_measure"):
        raise NonCliffordError("mid-circuit measurement is not supported by the tableau sampler")
    if circuit.n_qubits > STABILIZER_WIDTH_CAP:
        raise ValidationError(f"width {circuit.n_qubits} exceeds the tableau cap {STABILIZER_WIDTH_CAP}")
    n = circuit.n_qubits
    tab = StabilizerTableau(n)
    x = np.concatenate((tab.x.T, np.zeros((n, frames), np.uint8)), axis=1)
    z = np.concatenate((tab.z.T, np.zeros((n, frames), np.uint8)), axis=1)
    tx, tz, fx, fz = x[:, :2 * n], z[:, :2 * n], x[:, 2 * n:], z[:, 2 * n:]
    errors = errors or {}
    for i, gate in enumerate(circuit.all_gates()):
        tab.r ^= _sign_flips(tx, tz, gate)
        _push_frame(x, z, gate)
        if i in errors:
            qubits, cols, x_bits, z_bits = errors[i]
            fx[qubits, cols] ^= x_bits
            fz[qubits, cols] ^= z_bits
    tab.x, tab.z = tx.T.copy(), tz.T.copy()
    return tab, fx


def evolve_tableau(circuit: Circuit) -> StabilizerTableau:
    """The ideal tableau after `circuit`, which must be Clifford and measure only at the end."""
    return _run(circuit)[0]


def deterministic_outcome(circuit: Circuit) -> str | None:
    """The single outcome bitstring when measurement is deterministic, else None."""
    tab = evolve_tableau(circuit)
    c0, basis = tab.outcome_space()
    if basis.shape[0]:
        return None
    measured = circuit.measured_qubits() or tuple(range(circuit.n_qubits))
    return "".join(str(int(c0[q])) for q in measured)


def _push_frame(x: np.ndarray, z: np.ndarray, gate: Gate) -> None:
    """Conjugate Paulis through one Clifford gate, signs dropped (Gidney's frame rules).

    `x[q]` and `z[q]` hold qubit q's X and Z bits across the Paulis (tableau
    rows or shots); they are updated in place.
    """
    k, t = gate.kind, gate.targets
    if k is GateKind.H:
        a = t[0]
        x[a], z[a] = z[a], x[a].copy()
    elif k in (GateKind.S, GateKind.SDG):
        z[t[0]] ^= x[t[0]]
    elif k is GateKind.CX:
        a, b = t
        x[b] ^= x[a]
        z[a] ^= z[b]
    elif k is GateKind.CZ:
        a, b = t
        z[a] ^= x[b]
        z[b] ^= x[a]
    elif k is GateKind.SWAP:
        swap = [t[1], t[0]]
        x[list(t)] = x[swap]
        z[list(t)] = z[swap]


def _sign_flips(x: np.ndarray, z: np.ndarray, gate: Gate):
    """Sign bits that conjugating the Paulis with bits (x, z) through `gate` flips.

    CHP's phase rule, read from the bits before `_push_frame` moves them; x = z = 1
    on a qubit means Y there. Raises NonCliffordError for a non-Clifford gate.
    """
    k, t = gate.kind, gate.targets
    if k in (GateKind.H, GateKind.S):
        return x[t[0]] & z[t[0]]
    if k is GateKind.SDG:
        return x[t[0]] & (z[t[0]] ^ 1)
    if k is GateKind.CX:
        a, b = t
        return x[a] & z[b] & (x[b] ^ z[a] ^ 1)
    if k is GateKind.CZ:
        a, b = t
        return x[a] & x[b] & (z[a] ^ z[b])
    if k in (GateKind.X, GateKind.Y, GateKind.Z, GateKind.PAULI):
        letters = gate.paulis if k is GateKind.PAULI else k.value.upper()
        flips = 0
        for q, letter in zip(t, letters):  # a Pauli flips the signs of those it anticommutes with
            if letter in "XY":
                flips = flips ^ z[q]
            if letter in "YZ":
                flips = flips ^ x[q]
        return flips
    if k in (GateKind.SWAP, GateKind.BARRIER, GateKind.MEASURE):
        return 0
    raise NonCliffordError(f"gate {k.value} is not Clifford")


def _frame_errors(sites_per_gate: list[list], site: np.ndarray, shot: np.ndarray,
                  label: np.ndarray) -> dict[int, tuple]:
    """Gate-site hits of an error table, as `_run`'s errors: for each gate with a
    hit, (qubits, shots, x bits, z bits), one entry per qubit of each hit."""
    sites = [qubits for gate_sites in sites_per_gate for qubits, _ in gate_sites]
    gate_of = np.repeat(np.arange(len(sites_per_gate)), [len(s) for s in sites_per_gate])
    width = np.array([len(q) for q in sites], dtype=np.int64)[site]
    ends = np.array([(q[0], q[-1]) for q in sites], dtype=np.int64).reshape(-1, 2)
    entries = []  # (hit, qubit, x bit, z bit) for qubit j of each hit on a k-qubit site
    for k, (x_bits, z_bits) in PAULI_BITS.items():
        hit = np.flatnonzero(width == k)
        for j in range(k):
            entries.append((hit, ends[site[hit], j], x_bits[label[hit], j], z_bits[label[hit], j]))
    hit, qubit, xb, zb = (np.concatenate(column) for column in zip(*entries))
    order = np.argsort(hit, kind="stable")  # the table's order, which is gate order
    hit, qubit, xb, zb = hit[order], qubit[order], xb[order], zb[order]
    gates, first = np.unique(gate_of[site[hit]], return_index=True)
    cuts = np.append(first, len(hit))
    return {g: (qubit[a:b], shot[hit[a:b]], xb[a:b], zb[a:b])
            for g, a, b in zip(gates.tolist(), cuts[:-1], cuts[1:])}


def stabilizer_sample(circuit: Circuit, shots: int, rng: np.random.Generator,
                      noise: NoiseModel | None = None) -> SampleSet:
    """Sample measurement outcomes of a Clifford circuit.

    With a nontrivial noise model, the call's error table is drawn first
    (`qbench.noise.draw_errors` over the gate sites of `firing_sites`, then
    the measured qubits' readout bits), and each shot gets a Pauli frame, X
    and Z bits per qubit. The ideal tableau and the frames are evolved in one
    gate loop, each gate's hits XORed into the frames after it. Without one,
    no table is drawn and there are no frames. A shot's outcome is c0 xor its
    frame's X bits, reduced to the coset representative that is 0 on the free
    columns of the basis, xor the basis rows it picks with row `shot` of one
    `rng.integers(0, 2, (shots, k), uint8)` draw. So every shot gets the bits
    a tableau evolved with its own errors would give. The table's readout
    flips are applied last.
    """
    if shots <= 0:
        raise ValidationError("shots must be positive")
    n = circuit.n_qubits
    measured = circuit.measured_qubits() or tuple(range(n))
    if noise is not None and noise.is_trivial:
        noise = None  # draws no table and pushes no frames

    frames, errors, flips = 0, None, None
    if noise is not None:
        offsets = noise.shot_offsets(shots)
        sites_per_gate = firing_sites(noise, list(circuit.all_gates()), offsets)
        n_sites = sum(len(sites) for sites in sites_per_gate)
        readout = readout_sites(noise, measured, offsets)
        site, shot, label = draw_errors([s for sites in sites_per_gate for s in sites], readout,
                                        offsets, shots, rng)
        on_gate = site < n_sites
        frames = shots
        errors = _frame_errors(sites_per_gate, site[on_gate], shot[on_gate], label[on_gate])
        readout_qubit = np.array([q for q, _ in readout], dtype=np.int64)
        flips = (shot[~on_gate], readout_qubit[site[~on_gate] - n_sites])
    tab, fx = _run(circuit, frames, errors)
    c0, basis = tab.outcome_space()
    bits = np.broadcast_to(c0, (shots, n)).copy()
    if frames:
        bits ^= fx.T
    k = basis.shape[0]
    if k:
        # Each basis row is 1 on its own free column (its last set bit) and 0 on
        # the others, so adding a shot's bits on those columns to its picks also
        # moves it to the coset representative.
        free = n - 1 - np.argmax(basis[:, ::-1], axis=1)
        picks = rng.integers(0, 2, size=(shots, k), dtype=np.uint8)
        bits ^= ((bits[:, free] ^ picks) @ basis) & 1
    if flips is not None:
        np.bitwise_xor.at(bits, flips, np.uint8(1))
    return _sample_set(bits, measured)
