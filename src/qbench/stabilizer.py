"""Stabilizer-tableau simulation for Clifford circuits.

The tableau keeps 2n generator rows (n destabilizers, n stabilizers) as X/Z
bit matrices plus a sign bit per row. A gate moves the X/Z bits by the Pauli
frame rules of `_push_frame` and flips signs by CHP's phase rule in
`_sign_flips` (Aaronson & Gottesman, PRA 70, 052328 (2004)); these two are
the only encoding of how a Clifford gate maps Paulis, and the Clifford
tables' conjugation table is read from them too. Sampling does not measure qubit by qubit;
instead the computational-basis outcome distribution of a stabilizer state is
uniform over an affine GF(2) subspace, c0 xor span(basis), which is extracted
once by Gaussian elimination and then sampled with vectorized bit algebra.

Noisy circuits are sampled with Pauli frames, as in Stim (Gidney, Quantum 5,
497 (2021)): the ideal tableau is evolved once, and each shot carries only
the X and Z bits of the Pauli its errors add up to, conjugated through the
gates that follow them. Signs are dropped, since they do not change outcomes.
A frame's X bits flip outcome bits and its Z bits leave them alone, so a
shot's outcomes are uniform over c0 xor frame_x xor span(basis).

The same row representation doubles as an exact group-element encoding for
Clifford enumeration.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, Gate, GateKind
from .distributions import SampleSet
from .errors import NonCliffordError, ValidationError
from .noise import PAULI_BITS, NoiseModel, draw_gate_errors, draw_readout_flips

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
        parity of the outcome on their Z support, everything else is free.
        """
        n = self.n
        sx = self.x[n:].copy()
        sz = self.z[n:].copy()
        sr = self.r[n:].copy()

        # Row-reduce on X parts with sign-exact row multiplication.
        pivots: list[tuple[int, int]] = []
        row = 0
        for col in range(n):
            pivot = None
            for i in range(row, n):
                if sx[i, col]:
                    pivot = i
                    break
            if pivot is None:
                continue
            if pivot != row:
                for m in (sx, sz):
                    m[[pivot, row]] = m[[row, pivot]]
                sr[[pivot, row]] = sr[[row, pivot]]
            for i in range(n):
                if i != row and sx[i, col]:
                    sr[i] = _rowmult_phase(sx[i], sz[i], sr[i], sx[row], sz[row], sr[row])
                    sx[i] ^= sx[row]
                    sz[i] ^= sz[row]
            pivots.append((row, col))
            row += 1

        k = row  # rank of the X block = number of random outcome bits
        z_rows = sz[k:]
        z_par = sr[k:]

        c0, basis = _gf2_solve(z_rows, z_par)
        if basis.shape[0] != k:
            raise ValidationError("inconsistent stabilizer outcome space")
        return c0, basis

    def sample_bits(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """(shots, n) outcome bit array, exact stabilizer measurement statistics."""
        c0, basis = self.outcome_space()
        out = np.broadcast_to(c0, (shots, self.n)).copy()
        if basis.shape[0]:
            picks = rng.integers(0, 2, size=(shots, basis.shape[0]), dtype=np.uint8)
            out ^= (picks @ basis) & 1
        return out


def _stack_keys(x: np.ndarray, z: np.ndarray, r: np.ndarray) -> list[bytes]:
    """`StabilizerTableau.key()` of each tableau in a stack, with x[q], z[q] and r of shape (F, 2n)."""
    rows = [np.moveaxis(m, 0, -1).reshape(r.shape[0], -1) for m in (x, z)]
    packed = np.ascontiguousarray(np.concatenate(rows + [r], axis=1))
    return packed.view(f"V{packed.shape[1]}").ravel().tolist()


def _rowmult_phase(xh, zh, rh, xi, zi, ri) -> np.uint8:
    """Sign bit of row h := row h * row i, mod-4 Pauli phase bookkeeping."""
    xh64 = xh.astype(np.int64)
    zh64 = zh.astype(np.int64)
    g = np.zeros(xh.shape, dtype=np.int64)
    m_y = (xi == 1) & (zi == 1)
    m_x = (xi == 1) & (zi == 0)
    m_z = (xi == 0) & (zi == 1)
    g[m_y] = (zh64 - xh64)[m_y]
    g[m_x] = (zh64 * (2 * xh64 - 1))[m_x]
    g[m_z] = (xh64 * (1 - 2 * zh64))[m_z]
    total = (2 * int(rh) + 2 * int(ri) + int(g.sum())) % 4
    if total not in (0, 2):
        raise ValidationError("anticommuting rows multiplied in tableau reduction")
    return np.uint8(total // 2)


def _gf2_solve(rows: np.ndarray, parity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, basis): rows @ x = parity over GF(2) iff x in c xor span(basis); rows may be empty."""
    n = rows.shape[1]
    a = np.concatenate([rows, parity.reshape(-1, 1)], axis=1).astype(np.uint8)
    m = a.shape[0]
    piv_cols: list[int] = []
    row = 0
    for col in range(n):
        pivot = None
        for i in range(row, m):
            if a[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[pivot, row]] = a[[row, pivot]]
        for i in range(m):
            if i != row and a[i, col]:
                a[i] ^= a[row]
        piv_cols.append(col)
        row += 1
    if np.any(a[row:, -1]):
        raise ValidationError("inconsistent GF(2) system")
    c = np.zeros(n, dtype=np.uint8)
    for i, col in enumerate(piv_cols):
        c[col] = a[i, -1]
    free_cols = [col for col in range(n) if col not in piv_cols]
    basis = np.zeros((len(free_cols), n), dtype=np.uint8)
    for bi, fc in enumerate(free_cols):
        basis[bi, fc] = 1
        for ri, pc in enumerate(piv_cols):
            if a[ri, fc]:
                basis[bi, pc] = 1
    return c, basis


def _sample_set(bits: np.ndarray, measured: tuple[int, ...]) -> SampleSet:
    """Counts of the measured bit columns, keyed from the bit rows so that any width fits."""
    rows, freq = np.unique(bits[:, list(measured)], axis=0, return_counts=True)
    keys = [(row + ord("0")).tobytes().decode() for row in rows]
    return SampleSet(len(measured), dict(zip(keys, freq.tolist())))


def evolve_tableau(circuit: Circuit) -> StabilizerTableau:
    """The ideal tableau after `circuit`, which must be Clifford and measure only at the end."""
    if circuit.metadata.get("mid_measure"):
        raise NonCliffordError("mid-circuit measurement is not supported by the tableau sampler")
    if circuit.n_qubits > STABILIZER_WIDTH_CAP:
        raise ValidationError(f"width {circuit.n_qubits} exceeds the tableau cap {STABILIZER_WIDTH_CAP}")
    tab = StabilizerTableau(circuit.n_qubits)
    for g in circuit.all_gates():
        tab.apply_gate(g)
    return tab


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


def stabilizer_sample(circuit: Circuit, shots: int, rng: np.random.Generator,
                      noise: NoiseModel | None = None) -> SampleSet:
    """Sample measurement outcomes of a Clifford circuit.

    The ideal tableau is evolved once. With a noise model, each shot gets a
    Pauli frame, X and Z bits per qubit, that is pushed through the gates;
    after each gate, the errors `qbench.noise` draws for it (for all shots, as
    the statevector sampler draws one chunk) are XORed into the frames. A
    shot's outcome is c0 xor its frame's X bits, reduced to the coset
    representative that is 0 on the free columns of the basis, xor the basis
    rows it picks with one `rng.integers(0, 2, (1, k), uint8)` per shot. So
    every shot gets the bits a tableau evolved with its own errors would give.
    The readout flips are drawn and applied last.
    """
    tab = evolve_tableau(circuit)
    if shots <= 0:
        raise ValidationError("shots must be positive")
    n = circuit.n_qubits
    measured = circuit.measured_qubits() or tuple(range(n))

    if noise is None or noise.is_trivial:
        return _sample_set(tab.sample_bits(shots, rng), measured)

    offsets = noise.shot_offsets(shots)
    fx = np.zeros((n, shots), dtype=np.uint8)
    fz = np.zeros((n, shots), dtype=np.uint8)
    for gate in circuit.all_gates():
        _push_frame(fx, fz, gate)
        for qubits, rows, choices in draw_gate_errors(noise, gate, offsets, shots, rng):
            x_bits, z_bits = PAULI_BITS[len(qubits)]
            for j, q in enumerate(qubits):
                fx[q, rows] ^= x_bits[choices, j]
                fz[q, rows] ^= z_bits[choices, j]

    c0, basis = tab.outcome_space()
    bits = c0 ^ fx.T
    k = basis.shape[0]
    if k:
        # Each basis row is 1 on its own free column (its last set bit) and 0 on the others.
        free = n - 1 - np.argmax(basis[:, ::-1], axis=1)
        bits ^= (bits[:, free] @ basis) & 1
        # One draw per shot: a single (shots, k) uint8 draw takes other bits from the stream.
        picks = np.concatenate([rng.integers(0, 2, size=(1, k), dtype=np.uint8) for _ in range(shots)])
        bits ^= (picks @ basis) & 1
    for q, flips in draw_readout_flips(noise, measured, offsets, shots, rng):
        bits[:, q] ^= flips
    return _sample_set(bits, measured)
