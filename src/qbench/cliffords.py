"""Exact-uniform Clifford group tables for one and two qubits.

The group is enumerated once by breadth-first search over exact tableau keys
(24 elements for n=1, 11520 for n=2), so sampling by uniform index is exactly
uniform and every element carries a canonical shortest gate sequence. The
search runs on stacks: each level's frontier is held as stacked tableau bits,
each generator is applied to the whole stack at once, and every candidate's
key is cut from one array. New elements are numbered in frontier-major,
generator-minor order, as a search one tableau at a time would number them.
Inversion is a table lookup on the tableau key of the inverted sequence, with
no floating-point hashing anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import CX, Gate, H, S, gate_unitary, inverse_gate
from .errors import ValidationError
from .stabilizer import StabilizerTableau, _push_frame, _sign_flips, _stack_keys
from .statevector import apply_unitary

GROUP_SIZES = {1: 24, 2: 11520}

_GENERATORS = {
    1: (H(0), S(0)),
    2: (H(0), H(1), S(0), S(1), CX(0, 1), CX(1, 0)),
}


@dataclass(frozen=True)
class CliffordElement:
    index: int
    gates: tuple[Gate, ...]
    key: bytes


def _sequence_key(n: int, gates: tuple[Gate, ...]) -> bytes:
    tab = StabilizerTableau(n)
    for g in gates:
        tab.apply_gate(g)
    return tab.key()


def _sequence_unitary(n: int, gates: tuple[Gate, ...]) -> np.ndarray:
    """Dense unitary of `gates`: row j of the evolved identity batch is U e_j."""
    rows = np.eye(1 << n, dtype=complex).reshape((1 << n,) + (2,) * n)
    for g in gates:
        rows = apply_unitary(rows, gate_unitary(g), g.targets)
    return np.ascontiguousarray(rows.reshape(1 << n, 1 << n).T)


class CliffordGroup:
    """Enumerated n-qubit Clifford group (n in {1, 2}) with canonical sequences."""

    def __init__(self, n: int):
        if n not in _GENERATORS:
            raise ValidationError(f"clifford tables exist for 1 or 2 qubits, not {n}")
        self.n = n
        gens = _GENERATORS[n]
        identity = StabilizerTableau(n)
        elements = [CliffordElement(0, (), identity.key())]
        index_of = {identity.key(): 0}
        # The frontier as stacks: x[q] and z[q] hold qubit q's bits and r the
        # signs, each of shape (F, 2n), one tableau row per column.
        x, z, r = identity.x.T[:, None], identity.z.T[:, None], identity.r[None]
        frontier: list[tuple[Gate, ...]] = [()]
        while frontier:
            xs, zs, rs = [], [], []
            for gen in gens:
                gx, gz = x.copy(), z.copy()
                rs.append(r ^ _sign_flips(gx, gz, gen))
                _push_frame(gx, gz, gen)
                xs.append(gx)
                zs.append(gz)
            # Candidates in frontier-major, generator-minor order.
            cx = np.stack(xs, axis=2).reshape(n, -1, 2 * n)
            cz = np.stack(zs, axis=2).reshape(n, -1, 2 * n)
            cr = np.stack(rs, axis=1).reshape(-1, 2 * n)
            new: list[int] = []
            next_frontier: list[tuple[Gate, ...]] = []
            for c, key in enumerate(_stack_keys(cx, cz, cr)):
                if key not in index_of:
                    f, g = divmod(c, len(gens))
                    gates = frontier[f] + (gens[g],)
                    index_of[key] = len(elements)
                    elements.append(CliffordElement(len(elements), gates, key))
                    new.append(c)
                    next_frontier.append(gates)
            x, z, r = cx[:, new], cz[:, new], cr[new]
            frontier = next_frontier
        if len(elements) != GROUP_SIZES[n]:
            raise ValidationError(
                f"clifford enumeration found {len(elements)} elements, expected {GROUP_SIZES[n]}")
        self.elements = tuple(elements)
        self._index_of = index_of
        self._unitaries: dict[int, np.ndarray] = {}
        self._conjugation: dict[int, dict[str, tuple[str, int]]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def unitary(self, index: int) -> np.ndarray:
        u = self._unitaries.get(index)
        if u is None:
            u = _sequence_unitary(self.n, self.elements[index].gates)
            u.setflags(write=False)
            self._unitaries[index] = u
        return u

    def inverse_index(self, gates: tuple[Gate, ...]) -> int:
        """Index of the group element equal to the inverse of `gates` (exact lookup)."""
        inv = tuple(inverse_gate(g) for g in reversed(gates))
        return self._index_of[_sequence_key(self.n, inv)]

    def sample(self, rng: np.random.Generator) -> CliffordElement:
        return self.elements[int(rng.integers(0, len(self.elements)))]

    def conjugated_pauli(self, index: int, letter: str) -> tuple[str, int]:
        """(letter, sign) of U P U^dagger for a single-qubit element U."""
        if self.n != 1:
            raise ValidationError("pauli conjugation table is for the 1-qubit group")
        table = self._conjugation.get(index)
        if table is None:
            # One row per Pauli X, Y, Z, pushed through the element's gates.
            x = np.array([[1, 1, 0]], dtype=np.uint8)
            z = np.array([[0, 1, 1]], dtype=np.uint8)
            r = np.zeros(3, dtype=np.uint8)
            for g in self.elements[index].gates:
                r ^= _sign_flips(x, z, g)
                _push_frame(x, z, g)
            table = {p: ("IZXY"[2 * x[0, i] + z[0, i]], 1 - 2 * int(r[i])) for i, p in enumerate("XYZ")}
            self._conjugation[index] = table
        return table[letter]


@lru_cache(maxsize=None)
def clifford_group(n: int) -> CliffordGroup:
    return CliffordGroup(n)
