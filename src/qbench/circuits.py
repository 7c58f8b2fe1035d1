"""Gate-level circuit IR: gate alphabet, layered circuits, Pauli strings, stats.

Conventions used everywhere downstream:
  * qubit 0 is the most significant bit of a basis-state index;
  * a 2-qubit gate matrix acts on the ordered pair `targets`, with
    `targets[0]` as the high bit of the 4-dimensional index;
  * measurement results are ordered by classical bit (`cbit`), bit 0 leftmost
    in bitstrings.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

from .errors import NonInvertibleError, ValidationError

UNITARITY_TOL = 1e-10

_SQ2 = 1.0 / math.sqrt(2.0)


class GateKind(str, Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"
    U2Q = "u2q"
    PAULI = "pauli"
    MEASURE = "measure"
    BARRIER = "barrier"


ROTATION_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})
TWO_QUBIT_KINDS = frozenset({GateKind.CX, GateKind.CZ, GateKind.SWAP, GateKind.U2Q})
CLIFFORD_KINDS = frozenset(
    {GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.SDG,
     GateKind.CX, GateKind.CZ, GateKind.SWAP, GateKind.PAULI}
)

# Per kind: fixed arity (None: variable, validated separately) and the one
# optional field the kind takes (None: it takes none of them).
_SIGNATURE: dict[GateKind, tuple[int | None, str | None]] = {
    GateKind.H: (1, None), GateKind.X: (1, None), GateKind.Y: (1, None), GateKind.Z: (1, None),
    GateKind.S: (1, None), GateKind.SDG: (1, None), GateKind.T: (1, None), GateKind.TDG: (1, None),
    GateKind.RX: (1, "angle"), GateKind.RY: (1, "angle"), GateKind.RZ: (1, "angle"),
    GateKind.CX: (2, None), GateKind.CZ: (2, None), GateKind.SWAP: (2, None),
    GateKind.U2Q: (2, "matrix"), GateKind.PAULI: (None, "paulis"), GateKind.MEASURE: (1, "cbit"),
    GateKind.BARRIER: (None, None),
}


@dataclass(frozen=True, eq=False)
class Gate:
    """One operation on an ordered tuple of qubits.

    `angle` is set for rotations, `matrix` for U2Q (a 4x4 unitary), `paulis`
    and `sign` for a Pauli layer (every other kind keeps sign 1), `cbit` for a
    measurement.
    """

    kind: GateKind
    targets: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = None
    paulis: str | None = None
    sign: int = 1
    cbit: int | None = None

    def __post_init__(self):
        # One lookup of the kind's signature decides which checks run: a 1q gate
        # cannot repeat a target, and each field is checked as the kind's own
        # or as one it must leave unset, in the order angle, matrix, paulis, cbit.
        # `operator.index` takes ints and numpy integers but refuses a float,
        # which `int` would truncate to some other qubit.
        try:
            targets = tuple(map(operator.index, self.targets))
        except TypeError:
            raise ValidationError(f"qubit indices must be integers: {self.targets!r}") from None
        object.__setattr__(self, "targets", targets)
        arity, takes = _SIGNATURE[self.kind]
        if arity is not None and len(targets) != arity:
            raise ValidationError(f"{self.kind.value} expects {arity} target(s), got {len(targets)}")
        if arity != 1 and len(set(targets)) != len(targets):
            raise ValidationError(f"{self.kind.value} targets must be distinct: {targets}")
        if targets and min(targets) < 0:
            raise ValidationError("qubit indices must be nonnegative")
        if takes == "angle":
            if self.angle is None or not math.isfinite(self.angle):
                raise ValidationError(f"{self.kind.value} needs a finite angle")
        elif self.angle is not None:
            raise ValidationError(f"{self.kind.value} takes no angle")
        if takes == "matrix":
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (4, 4):
                raise ValidationError("u2q matrix must be 4x4")
            if not np.abs(m.conj().T @ m - np.eye(4)).max() <= UNITARITY_TOL:  # NaN fails too
                raise ValidationError("u2q matrix is not unitary within 1e-10")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise ValidationError(f"{self.kind.value} takes no matrix")
        if takes == "paulis":
            if not targets:
                raise ValidationError("pauli layer needs at least one target")
            if self.paulis is None or len(self.paulis) != len(targets):
                raise ValidationError("pauli letters must match target count")
            if any(ch not in "IXYZ" for ch in self.paulis):
                raise ValidationError(f"bad pauli letters: {self.paulis!r}")
            if self.sign not in (1, -1):
                raise ValidationError("pauli sign must be +1 or -1")
        elif self.paulis is not None:
            raise ValidationError(f"{self.kind.value} takes no pauli letters")
        elif self.sign != 1:
            raise ValidationError(f"{self.kind.value} takes no sign")
        if takes == "cbit":
            cbit = self.cbit
            if cbit is not None and type(cbit) is not int:
                try:
                    cbit = operator.index(cbit)
                except TypeError:
                    raise ValidationError(f"measure needs an integer classical bit: {cbit!r}") from None
                object.__setattr__(self, "cbit", cbit)
            if cbit is None or cbit < 0:
                raise ValidationError("measure needs a nonnegative classical bit")
        elif self.cbit is not None:
            raise ValidationError(f"{self.kind.value} takes no classical bit")
        if not targets and self.kind is GateKind.BARRIER:
            raise ValidationError("barrier needs at least one target")

    @classmethod
    def _trusted(cls, kind: GateKind, targets: tuple[int, ...], angle: float | None = None,
                 matrix: np.ndarray | None = None, paulis: str | None = None, sign: int = 1,
                 cbit: int | None = None) -> "Gate":
        """A gate built without `__post_init__`'s checks, for code that derives it
        from gates that passed them (the transpiler's lowering and relabeling).

        The caller vouches for every field: int targets, distinct on a 2q gate,
        and the kind's own field already checked, a read-only matrix included.
        The fields are set in declaration order, as the checked path sets them,
        so the instance keeps sharing its dict keys with every other gate.
        """
        gate = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(gate, "kind", kind)
        setattr_(gate, "targets", targets)
        setattr_(gate, "angle", angle)
        setattr_(gate, "matrix", matrix)
        setattr_(gate, "paulis", paulis)
        setattr_(gate, "sign", sign)
        setattr_(gate, "cbit", cbit)
        return gate

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.targets, self.angle, self.paulis, self.sign, self.cbit) != (
            other.kind, other.targets, other.angle, other.paulis, other.sign, other.cbit
        ):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or bool(np.array_equal(self.matrix, other.matrix))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        extra = ""
        if self.angle is not None:
            extra = f", angle={self.angle!r}"
        if self.paulis is not None:
            extra = f", paulis={self.paulis!r}, sign={self.sign}"
        if self.cbit is not None:
            extra = f", cbit={self.cbit}"
        if self.matrix is not None:
            extra = ", matrix=..."
        return f"Gate({self.kind.value}, {self.targets}{extra})"


# Short constructors; protocol and test code reads much better with these.
def H(q: int) -> Gate: return Gate(GateKind.H, (q,))
def X(q: int) -> Gate: return Gate(GateKind.X, (q,))
def Y(q: int) -> Gate: return Gate(GateKind.Y, (q,))
def Z(q: int) -> Gate: return Gate(GateKind.Z, (q,))
def S(q: int) -> Gate: return Gate(GateKind.S, (q,))
def Sdg(q: int) -> Gate: return Gate(GateKind.SDG, (q,))
def T(q: int) -> Gate: return Gate(GateKind.T, (q,))
def Tdg(q: int) -> Gate: return Gate(GateKind.TDG, (q,))
def Rx(q: int, angle: float) -> Gate: return Gate(GateKind.RX, (q,), angle=float(angle))
def Ry(q: int, angle: float) -> Gate: return Gate(GateKind.RY, (q,), angle=float(angle))
def Rz(q: int, angle: float) -> Gate: return Gate(GateKind.RZ, (q,), angle=float(angle))
def CX(c: int, t: int) -> Gate: return Gate(GateKind.CX, (c, t))
def CZ(a: int, b: int) -> Gate: return Gate(GateKind.CZ, (a, b))
def SWAP(a: int, b: int) -> Gate: return Gate(GateKind.SWAP, (a, b))
def U2Q(a: int, b: int, matrix: np.ndarray) -> Gate: return Gate(GateKind.U2Q, (a, b), matrix=matrix)
def Measure(q: int, cbit: int) -> Gate: return Gate(GateKind.MEASURE, (q,), cbit=cbit)
def Barrier(*qubits: int) -> Gate: return Gate(GateKind.BARRIER, tuple(qubits))


def PauliLayer(targets: Iterable[int], letters: str, sign: int = 1) -> Gate:
    return Gate(GateKind.PAULI, tuple(targets), paulis=letters, sign=sign)


@dataclass(frozen=True)
class PauliString:
    """Signed Pauli word over the full register, one letter per qubit."""

    n_qubits: int
    letters: str
    sign: int = 1

    def __post_init__(self):
        if len(self.letters) != self.n_qubits:
            raise ValidationError("pauli string length must equal qubit count")
        if any(ch not in "IXYZ" for ch in self.letters):
            raise ValidationError(f"bad pauli letters: {self.letters!r}")
        if self.sign not in (1, -1):
            raise ValidationError("sign must be +1 or -1")

    @property
    def weight(self) -> int:
        return sum(1 for ch in self.letters if ch != "I")

    def as_gate(self) -> Gate:
        return PauliLayer(range(self.n_qubits), self.letters, self.sign)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + self.letters


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_FIXED_1Q = {
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.X: _PAULI_1Q["X"],
    GateKind.Y: _PAULI_1Q["Y"],
    GateKind.Z: _PAULI_1Q["Z"],
    GateKind.S: np.diag([1, 1j]).astype(complex),
    GateKind.SDG: np.diag([1, -1j]).astype(complex),
    GateKind.T: np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex),
    GateKind.TDG: np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex),
}

_FIXED_2Q = {
    GateKind.CX: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
    GateKind.SWAP: np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def pauli_matrix(letter: str) -> np.ndarray:
    return _PAULI_1Q[letter]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of 2x2 matrices, stacked over the leading axes: `a` on the high
    bit of the 4-dimensional index, as on `targets[0]` of a 2-qubit gate."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def _swap_pair(unitary: np.ndarray) -> np.ndarray:
    """The 4x4 `unitary` with its two qubits exchanged: its matrix on the reversed
    targets, stacked over the leading axes."""
    out = unitary.reshape(unitary.shape[:-2] + (2, 2, 2, 2)).swapaxes(-4, -3).swapaxes(-2, -1)
    return out.reshape(unitary.shape)


#: Pauli axis of each rotation kind
ROTATION_AXIS = {GateKind.RX: "X", GateKind.RY: "Y", GateKind.RZ: "Z"}


def rotation_unitary(axis: str, angle) -> np.ndarray:
    """exp(-i angle P / 2) for the Pauli `axis`, stacked over the shape of `angle`."""
    half = np.asarray(angle, dtype=float)[..., None, None] / 2.0
    return np.cos(half) * _PAULI_1Q["I"] - 1j * np.sin(half) * _PAULI_1Q[axis]


def gate_unitary(gate: Gate) -> np.ndarray:
    """Unitary of `gate` on its own targets (2x2 or 4x4; Pauli layers 2^k)."""
    if gate.kind in _FIXED_1Q:
        return _FIXED_1Q[gate.kind]
    if gate.kind in _FIXED_2Q:
        return _FIXED_2Q[gate.kind]
    if gate.kind in ROTATION_KINDS:
        return rotation_unitary(ROTATION_AXIS[gate.kind], gate.angle)
    if gate.kind is GateKind.U2Q:
        return gate.matrix
    if gate.kind is GateKind.PAULI:
        m = np.array([[complex(gate.sign)]])
        for ch in gate.paulis:
            m = np.kron(m, _PAULI_1Q[ch])
        return m
    raise ValidationError(f"{gate.kind.value} has no unitary")


def inverse_gate(gate: Gate) -> Gate:
    """Gate-level inverse with canonical kind normalization (S <-> Sdg etc.)."""
    pairs = {GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S,
             GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T}
    if gate.kind is GateKind.MEASURE:
        raise NonInvertibleError("measurements are not invertible")
    if gate.kind in pairs:
        return Gate(pairs[gate.kind], gate.targets)
    if gate.kind in ROTATION_KINDS:
        return Gate(gate.kind, gate.targets, angle=-gate.angle)
    if gate.kind is GateKind.U2Q:
        return Gate(GateKind.U2Q, gate.targets, matrix=np.asarray(gate.matrix).conj().T)
    # H, X, Y, Z, CX, CZ, SWAP, PAULI, BARRIER are self-inverse.
    return gate


@dataclass(frozen=True, eq=False)
class Circuit:
    """Immutable layered circuit; within a layer no qubit is touched twice."""

    n_qubits: int
    layers: tuple[tuple[Gate, ...], ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValidationError("qubit count must be nonnegative")
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))
        # Looked up once: an enum member costs a class attribute lookup per gate.
        n, measure, last = self.n_qubits, GateKind.MEASURE, len(layers) - 1
        for li, layer in enumerate(layers):
            seen: set[int] = set()
            cbits: set[int] = set()
            for g in layer:
                for t in g.targets:
                    if t >= n:
                        raise ValidationError(f"gate target {t} out of range for {n} qubits")
                    if t in seen:
                        raise ValidationError(f"qubit {t} touched twice in layer {li}")
                    seen.add(t)
                if g.kind is measure:
                    if li != last:
                        raise ValidationError("measurements must sit in the final layer")
                    if g.cbit in cbits:
                        raise ValidationError(f"classical bit {g.cbit} written twice in layer {li}")
                    cbits.add(g.cbit)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_gates(cls, n_qubits: int, gates: Iterable[Gate],
                   metadata: Mapping[str, object] | None = None) -> "Circuit":
        """Pack gates into layers greedily (as soon as possible, left to right).

        Measurements are hoisted into one dedicated final layer, so no gate
        may follow a measurement of one of its qubits.
        """
        frontier: list[float] = [0] * n_qubits
        layers: list[list[Gate]] = []
        measures: list[Gate] = []
        measure = GateKind.MEASURE
        for g in gates:
            try:
                if g.kind is measure:
                    measures.append(g)
                    # Above every depth: a later gate on the qubit lands past the last layer.
                    frontier[g.targets[0]] = math.inf
                    continue
                targets = g.targets
                if len(targets) == 1:
                    depth = frontier[targets[0]]
                else:
                    depth = max((frontier[t] for t in targets), default=0)
            except IndexError:
                t = next(t for t in g.targets if t >= n_qubits)
                raise ValidationError(f"gate target {t} out of range for {n_qubits} qubits") from None
            if depth >= len(layers):
                if depth > len(layers):
                    q = next(t for t in targets if frontier[t] == math.inf)
                    raise ValidationError(f"{g.kind.value} on qubit {q} follows its measurement")
                layers.append([])
            layers[depth].append(g)
            for t in targets:
                frontier[t] = depth + 1
        if measures:
            layers.append(sorted(measures, key=lambda g: g.cbit))
        return cls(n_qubits, tuple(tuple(l) for l in layers), metadata or {})

    def with_metadata(self, **updates) -> "Circuit":
        """This circuit with `updates` merged into its metadata, sharing its
        layers: the metadata plays no part in the layer checks."""
        md = dict(self.metadata)
        md.update(updates)
        out = object.__new__(Circuit)
        object.__setattr__(out, "n_qubits", self.n_qubits)
        object.__setattr__(out, "layers", self.layers)
        object.__setattr__(out, "metadata", MappingProxyType(md))
        return out

    # -- views ----------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.layers)

    def all_gates(self):
        for layer in self.layers:
            yield from layer

    def gate_count(self) -> int:
        barrier = GateKind.BARRIER
        return sum(1 for g in self.all_gates() if g.kind is not barrier)

    def measurements(self) -> list[Gate]:
        """The measurements, which all sit in the final layer."""
        measure = GateKind.MEASURE
        return [g for g in self.layers[-1] if g.kind is measure] if self.layers else []

    def measured_qubits(self) -> tuple[int, ...]:
        """Measured qubits in classical-bit order; empty when nothing is measured."""
        pairs = sorted((g.cbit, g.targets[0]) for g in self.measurements())
        cbits = [c for c, _ in pairs]
        if cbits and cbits != list(range(len(cbits))):
            raise ValidationError(f"classical bits must be contiguous from 0, got {cbits}")
        return tuple(q for _, q in pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.layers == other.layers

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Circuit(n={self.n_qubits}, depth={self.depth}, gates={self.gate_count()})"

    # -- JSON form (mirrors this type; .qasm is the interchange subset) -------

    def to_json(self) -> dict:
        def gate_json(g: Gate) -> dict:
            d: dict = {"kind": g.kind.value, "targets": list(g.targets)}
            if g.angle is not None:
                d["angle"] = g.angle
            if g.matrix is not None:
                d["matrix"] = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(g.matrix)]
            if g.paulis is not None:
                d["paulis"] = g.paulis
                d["sign"] = g.sign
            if g.cbit is not None:
                d["cbit"] = g.cbit
            return d

        return {
            "schema": "circuit/1",
            "n_qubits": self.n_qubits,
            "layers": [[gate_json(g) for g in layer] for layer in self.layers],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Circuit":
        if doc.get("schema") != "circuit/1":
            raise ValidationError(f"unexpected circuit schema: {doc.get('schema')!r}")

        def gate_back(d: dict) -> Gate:
            matrix = None
            if "matrix" in d:
                matrix = np.array([[complex(re, im) for re, im in row] for row in d["matrix"]])
            return Gate(GateKind(d["kind"]), tuple(d["targets"]), angle=d.get("angle"),
                        matrix=matrix, paulis=d.get("paulis"), sign=d.get("sign", 1),
                        cbit=d.get("cbit"))

        layers = tuple(tuple(gate_back(g) for g in layer) for layer in doc["layers"])
        return cls(int(doc["n_qubits"]), layers, doc.get("metadata", {}))


def is_clifford_circuit(circuit: Circuit, allow_measure: bool = True) -> bool:
    for g in circuit.all_gates():
        if g.kind in CLIFFORD_KINDS or g.kind is GateKind.BARRIER:
            continue
        if allow_measure and g.kind is GateKind.MEASURE:
            continue
        return False
    return True


@dataclass(frozen=True)
class CircuitStats:
    width: int
    depth: int
    gate_density: float
    measurement_density: float
    two_qubit_count: int


def circuit_stats(circuit: Circuit) -> CircuitStats:
    """Width, depth, gate density, measurement density, and 2q-gate count.

    Density counts every non-barrier gate (measurements included) against
    width x depth; degenerate empty circuits get densities of 0.
    """
    gates = [g for g in circuit.all_gates() if g.kind is not GateKind.BARRIER]
    n_gates = len(gates)
    n_measure = sum(1 for g in gates if g.kind is GateKind.MEASURE)
    two_q = sum(1 for g in gates if g.kind in TWO_QUBIT_KINDS)
    area = circuit.n_qubits * circuit.depth
    return CircuitStats(
        width=circuit.n_qubits,
        depth=circuit.depth,
        gate_density=(n_gates / area) if area else 0.0,
        measurement_density=(n_measure / n_gates) if n_gates else 0.0,
        two_qubit_count=two_q,
    )


def inverse_circuit(circuit: Circuit) -> Circuit:
    """Reverse the layer order and invert each gate; fails on measurements."""
    if circuit.measurements():
        raise NonInvertibleError("circuit contains measurements")
    layers = tuple(tuple(inverse_gate(g) for g in layer) for layer in reversed(circuit.layers))
    return Circuit(circuit.n_qubits, layers, dict(circuit.metadata))


def measure_all(circuit: Circuit) -> Circuit:
    """Append a final layer measuring every qubit in index order."""
    if circuit.measurements():
        raise ValidationError("circuit already measures")
    layer = tuple(Measure(q, q) for q in range(circuit.n_qubits))
    return Circuit(circuit.n_qubits, circuit.layers + (layer,), dict(circuit.metadata))
