"""Stabilizer-tableau simulation for Clifford circuits.

The tableau keeps 2n generator rows (n destabilizers, n stabilizers) as X/Z
bit matrices plus a sign bit per row, updated with the usual CHP-style rules.
Sampling does not measure qubit by qubit; instead the computational-basis
outcome distribution of a stabilizer state is uniform over an affine GF(2)
subspace, which is extracted once by Gaussian elimination and then sampled
with vectorized bit algebra. The same row representation doubles as an exact
group-element encoding for Clifford enumeration.
"""
from __future__ import annotations

import numpy as np

from .circuits import CLIFFORD_KINDS, Circuit, Gate, GateKind
from .distributions import SampleSet
from .errors import NonCliffordError, ValidationError
from .noise import PAULI_LABELS, NoiseModel, draw_gate_errors, draw_readout_flips

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
        """Exact canonical encoding; equal keys iff equal Clifford group elements."""
        return self.x.tobytes() + self.z.tobytes() + self.r.tobytes()

    # -- single-gate conjugation updates --------------------------------------

    def _h(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.x[:, a], self.z[:, a] = self.z[:, a].copy(), self.x[:, a].copy()

    def _s(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.z[:, a] ^= self.x[:, a]

    def _sdg(self, a: int) -> None:
        self.r ^= self.x[:, a] & (self.z[:, a] ^ 1)
        self.z[:, a] ^= self.x[:, a]

    def _cx(self, a: int, b: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a] ^ 1)
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def _pauli(self, a: int, letter: str) -> None:
        if letter == "X":
            self.r ^= self.z[:, a]
        elif letter == "Z":
            self.r ^= self.x[:, a]
        elif letter == "Y":
            self.r ^= self.x[:, a] ^ self.z[:, a]

    def apply_gate(self, gate: Gate) -> None:
        k = gate.kind
        if k is GateKind.H:
            self._h(gate.targets[0])
        elif k is GateKind.S:
            self._s(gate.targets[0])
        elif k is GateKind.SDG:
            self._sdg(gate.targets[0])
        elif k in (GateKind.X, GateKind.Y, GateKind.Z):
            self._pauli(gate.targets[0], k.value.upper())
        elif k is GateKind.CX:
            self._cx(*gate.targets)
        elif k is GateKind.CZ:
            a, b = gate.targets
            self._h(b)
            self._cx(a, b)
            self._h(b)
        elif k is GateKind.SWAP:
            a, b = gate.targets
            for m in (self.x, self.z):
                m[:, [a, b]] = m[:, [b, a]]
        elif k is GateKind.PAULI:
            for t, letter in zip(gate.targets, gate.paulis):
                self._pauli(t, letter)
        elif k in (GateKind.BARRIER, GateKind.MEASURE):
            pass
        else:
            raise NonCliffordError(f"gate {k.value} is not a Clifford tableau operation")

    def apply_circuit(self, circuit: Circuit) -> None:
        for g in circuit.all_gates():
            self.apply_gate(g)

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


def _require_clifford(circuit: Circuit) -> None:
    for g in circuit.all_gates():
        if g.kind not in CLIFFORD_KINDS and g.kind not in (GateKind.MEASURE, GateKind.BARRIER):
            raise NonCliffordError(f"gate {g.kind.value} is not Clifford")
    if circuit.metadata.get("mid_measure"):
        raise NonCliffordError("mid-circuit measurement is not supported by the tableau sampler")


def _sample_set(bits: np.ndarray, measured: tuple[int, ...]) -> SampleSet:
    """Counts of the measured bit columns, keyed from the bit rows so that any width fits."""
    rows, freq = np.unique(bits[:, list(measured)], axis=0, return_counts=True)
    keys = [(row + ord("0")).tobytes().decode() for row in rows]
    return SampleSet(len(measured), dict(zip(keys, freq.tolist())))


def evolve_tableau(circuit: Circuit) -> StabilizerTableau:
    _require_clifford(circuit)
    if circuit.n_qubits > STABILIZER_WIDTH_CAP:
        raise ValidationError(f"width {circuit.n_qubits} exceeds the tableau cap {STABILIZER_WIDTH_CAP}")
    tab = StabilizerTableau(circuit.n_qubits)
    tab.apply_circuit(circuit)
    return tab


def deterministic_outcome(circuit: Circuit) -> str | None:
    """The single outcome bitstring when measurement is deterministic, else None."""
    tab = evolve_tableau(circuit)
    c0, basis = tab.outcome_space()
    if basis.shape[0]:
        return None
    measured = circuit.measured_qubits() or tuple(range(circuit.n_qubits))
    return "".join(str(int(c0[q])) for q in measured)


def stabilizer_sample(circuit: Circuit, shots: int, rng: np.random.Generator,
                      noise: NoiseModel | None = None) -> SampleSet:
    """Sample measurement outcomes of a Clifford circuit.

    With a noise model, the errors of all shots are drawn first with the
    channel and layout of `qbench.noise` (as the statevector sampler draws one
    chunk); then each shot, in order, evolves its own tableau with its errors
    and samples it; the readout flips are drawn and applied last.
    """
    _require_clifford(circuit)
    if shots <= 0:
        raise ValidationError("shots must be positive")
    if circuit.n_qubits > STABILIZER_WIDTH_CAP:
        raise ValidationError(f"width {circuit.n_qubits} exceeds the tableau cap {STABILIZER_WIDTH_CAP}")
    n = circuit.n_qubits
    measured = circuit.measured_qubits() or tuple(range(n))

    if noise is None or noise.is_trivial:
        return _sample_set(evolve_tableau(circuit).sample_bits(shots, rng), measured)

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
            for t, letter in zip(qubits, word):
                tab._pauli(t, letter)
        for gate in gates[done:]:
            tab.apply_gate(gate)
        bits[shot] = tab.sample_bits(1, rng)[0]
    for q, flips in draw_readout_flips(noise, measured, offsets, shots, rng):
        bits[:, q] ^= flips
    return _sample_set(bits, measured)
