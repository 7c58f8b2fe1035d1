"""Reference tableau sampler: one tableau per shot, evolved with that shot's errors.

It draws exactly what `qbench.stabilizer.stabilizer_sample` draws (the call's
error table over a site list it builds on its own from `gate_sites`, then one
(shots, k) array of outcome picks) and applies the table's readout flips
last, but it reads each shot's outcome from its own noisy tableau's
`outcome_space` and its own row of picks. It is slow and obviously right, so
the Pauli-frame sampler is checked against it count for count, with and
without noise. The Clifford group search below does the same for the stacked
enumeration in `qbench.cliffords`, and the two eliminations of
`reference_outcome_space` for `StabilizerTableau.outcome_space`.
"""
from __future__ import annotations

import numpy as np

from qbench.circuits import Circuit, Gate, GateKind, PauliLayer
from qbench.cliffords import _GENERATORS
from qbench.distributions import SampleSet
from qbench.errors import ValidationError
from qbench.noise import PAULI_LABELS, NoiseModel, can_fire, draw_errors, gate_sites
from qbench.stabilizer import StabilizerTableau, _sample_set, evolve_tableau


def reference_sample(circuit: Circuit, shots: int, rng: np.random.Generator,
                     noise: NoiseModel | None = None) -> SampleSet:
    evolve_tableau(circuit)  # the sampler's checks: Clifford gates, final measurements, width
    n = circuit.n_qubits
    measured = circuit.measured_qubits() or tuple(range(n))
    if noise is not None and noise.is_trivial:
        noise = None
    offsets = noise.shot_offsets(shots) if noise is not None else None
    gates = [g for g in circuit.all_gates() if g.kind not in (GateKind.MEASURE, GateKind.BARRIER)]
    # Sparse per-shot error lists of (gate position, qubits, Pauli label), in gate order.
    errors: list[list[tuple[int, tuple[int, ...], str]]] = [[] for _ in range(shots)]
    flips: list[tuple[int, int]] = []  # (shot, qubit) of each readout flip
    if noise is not None:
        sites = [(pos, qubits, rate) for pos, gate in enumerate(gates)
                 for qubits, rate in gate_sites(noise, gate) if can_fire(rate, offsets)]
        readout = [(q, noise.readout_for(q)) for q in measured
                   if can_fire(noise.readout_for(q), offsets)]
        table = draw_errors([(qubits, rate) for _, qubits, rate in sites], readout, offsets,
                            shots, rng)
        for site, shot, label in zip(*(column.tolist() for column in table)):
            if site < len(sites):
                pos, qubits, _ = sites[site]
                errors[shot].append((pos, qubits, PAULI_LABELS[len(qubits)][label]))
            else:
                flips.append((shot, readout[site - len(sites)][0]))

    spaces = []
    for shot in range(shots):
        tab = StabilizerTableau(n)
        done = 0
        for pos, qubits, word in errors[shot]:
            for gate in gates[done:pos + 1]:
                tab.apply_gate(gate)
            done = pos + 1
            tab.apply_gate(PauliLayer(qubits, word))
        for gate in gates[done:]:
            tab.apply_gate(gate)
        spaces.append(tab.outcome_space())
    k = spaces[0][1].shape[0]  # errors change signs only, so every shot has the same k
    picks = rng.integers(0, 2, size=(shots, k), dtype=np.uint8) if k else np.zeros((shots, 0), np.uint8)
    bits = np.empty((shots, n), dtype=np.uint8)
    for shot, (c0, basis) in enumerate(spaces):
        bits[shot] = c0 ^ ((picks[shot] @ basis) & 1)
    for shot, q in flips:
        bits[shot, q] ^= 1
    return _sample_set(bits, measured)


def reference_clifford_elements(n: int) -> list[tuple[tuple[Gate, ...], bytes]]:
    """(gates, key) of each Clifford group element, by breadth-first search one tableau at a time.

    New elements are numbered in frontier-major, generator-minor order.
    """
    gens = _GENERATORS[n]
    identity = StabilizerTableau(n)
    elements = [((), identity.key())]
    seen = {identity.key()}
    frontier: list[tuple[StabilizerTableau, tuple[Gate, ...]]] = [(identity, ())]
    while frontier:
        next_frontier = []
        for tab, gates in frontier:
            for gen in gens:
                new = tab.copy()
                new.apply_gate(gen)
                key = new.key()
                if key not in seen:
                    seen.add(key)
                    elements.append((gates + (gen,), key))
                    next_frontier.append((new, gates + (gen,)))
        frontier = next_frontier
    return elements


def reference_outcome_space(tab: StabilizerTableau) -> tuple[np.ndarray, np.ndarray]:
    """(c0, basis) of `tab`'s outcomes, row by row: the stabilizer rows are
    reduced on their X parts with sign-exact products, then the Z parts of the
    rows left with no X part are solved as a GF(2) system for their signs."""
    n = tab.n
    sx = tab.x[n:].copy()
    sz = tab.z[n:].copy()
    sr = tab.r[n:].copy()
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, n) if sx[i, col]), None)
        if pivot is None:
            continue
        if pivot != row:
            for m in (sx, sz, sr):
                m[[pivot, row]] = m[[row, pivot]]
        for i in range(n):
            if i != row and sx[i, col]:
                sr[i] = _rowmult_phase(sx[i], sz[i], sr[i], sx[row], sz[row], sr[row])
                sx[i] ^= sx[row]
                sz[i] ^= sz[row]
        row += 1
    c0, basis = _gf2_solve(sz[row:], sr[row:])
    if basis.shape[0] != row:
        raise ValidationError("inconsistent stabilizer outcome space")
    return c0, basis


def _rowmult_phase(xh, zh, rh, xi, zi, ri) -> np.uint8:
    """Sign bit of row h := row h * row i, mod-4 Pauli phase bookkeeping."""
    g = 0
    for x1, z1, x2, z2 in zip(xi.tolist(), zi.tolist(), xh.tolist(), zh.tolist()):
        if x1 and z1:
            g += z2 - x2
        elif x1:
            g += z2 * (2 * x2 - 1)
        elif z1:
            g += x2 * (1 - 2 * z2)
    total = (2 * int(rh) + 2 * int(ri) + g) % 4
    if total not in (0, 2):
        raise ValidationError("anticommuting rows multiplied in tableau reduction")
    return np.uint8(total // 2)


def _gf2_solve(rows: np.ndarray, parity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, basis): rows @ x = parity over GF(2) iff x in c xor span(basis)."""
    m, n = rows.shape
    a = np.concatenate([rows, parity.reshape(-1, 1)], axis=1).astype(np.uint8)
    piv_cols: list[int] = []
    for col in range(n):
        row = len(piv_cols)
        pivot = next((i for i in range(row, m) if a[i, col]), None)
        if pivot is None:
            continue
        a[[pivot, row]] = a[[row, pivot]]
        for i in range(m):
            if i != row and a[i, col]:
                a[i] ^= a[row]
        piv_cols.append(col)
    if np.any(a[len(piv_cols):, -1]):
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
