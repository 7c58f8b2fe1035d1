"""Simulated processor descriptor and circuit-vs-device legality checks."""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

from .circuits import Circuit, Gate, GateKind, TWO_QUBIT_KINDS
from .errors import ValidationError
from .noise import DriftSchedule

DEVICE_SCHEMA = "devmodel/1"


@dataclass(frozen=True)
class DeviceModel:
    """Static description of a (simulated) quantum processor.

    Edges are undirected couplings (i, j, strength) with strength normalized
    to [0, 1]. Error books are depolarizing probabilities; durations and
    T1/T2 are seconds and feed only static metrics in this version.
    """

    n_qubits: int
    working: tuple[bool, ...]
    edges: tuple[tuple[int, int, float], ...]
    native_gates: frozenset[GateKind]
    gate_error: Mapping[GateKind, float] = field(default_factory=dict)
    edge_error: Mapping[tuple[int, int], float] = field(default_factory=dict)
    gate_duration: Mapping[GateKind, float] = field(default_factory=dict)
    t1: tuple[float, ...] = ()
    t2: tuple[float, ...] = ()
    readout_error: tuple[float, ...] = ()
    drift: DriftSchedule | None = None
    name: str = "device"

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError("device needs at least one qubit")
        working = tuple(bool(w) for w in self.working) or (True,) * self.n_qubits
        if len(working) != self.n_qubits:
            raise ValidationError("working flags must cover every qubit")
        object.__setattr__(self, "working", working)

        edges = []
        for i, j, s in self.edges:
            i, j, s = int(i), int(j), float(s)
            if i == j or not (0 <= i < self.n_qubits) or not (0 <= j < self.n_qubits):
                raise ValidationError(f"bad edge ({i}, {j})")
            if not (0.0 <= s <= 1.0):
                raise ValidationError(f"coupling strength {s} outside [0, 1]")
            edges.append((min(i, j), max(i, j), s))
        object.__setattr__(self, "edges", tuple(sorted(set(edges))))

        object.__setattr__(self, "native_gates", frozenset(GateKind(g) for g in self.native_gates))
        ge = {GateKind(k): float(v) for k, v in self.gate_error.items()}
        ee = {tuple(sorted((int(a), int(b)))): float(v) for (a, b), v in self.edge_error.items()}
        ro = tuple(float(r) for r in self.readout_error) or (0.0,) * self.n_qubits
        if len(ro) not in (1, self.n_qubits):
            raise ValidationError("readout_error must be scalar-like or per qubit")
        for v in list(ge.values()) + list(ee.values()) + list(ro):
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"probability {v} outside [0, 1]")
        gd = {GateKind(k): float(v) for k, v in self.gate_duration.items()}
        if any(v < 0 for v in gd.values()):
            raise ValidationError("gate durations must be nonnegative")
        t1 = tuple(float(v) for v in self.t1) or (float("inf"),) * self.n_qubits
        t2 = tuple(float(v) for v in self.t2) or t1
        if len(t1) != self.n_qubits or len(t2) != self.n_qubits:
            raise ValidationError("T1/T2 must be per qubit")
        for a, b in zip(t1, t2):
            if a <= 0 or b <= 0:
                raise ValidationError("T1/T2 must be positive")
            if b > 2 * a + 1e-12:
                raise ValidationError(f"T2 = {b} exceeds 2*T1 = {2 * a}")
        object.__setattr__(self, "gate_error", MappingProxyType(ge))
        object.__setattr__(self, "edge_error", MappingProxyType(ee))
        object.__setattr__(self, "gate_duration", MappingProxyType(gd))
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)
        object.__setattr__(self, "readout_error", ro)

    # -- topology -------------------------------------------------------------

    def validate(self) -> list[str]:
        """Soft violations: edges touching dead qubits, isolated working qubits."""
        problems = []
        for i, j, _ in self.edges:
            if not (self.working[i] and self.working[j]):
                problems.append(f"edge ({i}, {j}) references a non-working qubit")
        return problems

    def working_edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple((i, j, s) for i, j, s in self.edges if self.working[i] and self.working[j])

    @cached_property
    def coupled_pairs(self) -> frozenset[tuple[int, int]]:
        """(i, j), i < j, of every working coupling; built once per device."""
        return frozenset((i, j) for i, j, _ in self.working_edges())

    def coupled(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.coupled_pairs

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {q: [] for q in range(self.n_qubits) if self.working[q]}
        for i, j, _ in self.working_edges():
            adj[i].append(j)
            adj[j].append(i)
        for q in adj:
            adj[q].sort()
        return adj

    def connected_components(self) -> list[list[int]]:
        adj = self.adjacency()
        seen: set[int] = set()
        comps: list[list[int]] = []
        for start in sorted(adj):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                q = stack.pop()
                comp.append(q)
                for nb in adj[q]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            comps.append(sorted(comp))
        return sorted(comps, key=lambda c: (-len(c), c))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": DEVICE_SCHEMA,
            "name": self.name,
            "n_qubits": self.n_qubits,
            "working": [bool(w) for w in self.working],
            "edges": [[i, j, s] for i, j, s in self.edges],
            "native_gates": sorted(g.value for g in self.native_gates),
            "gate_error": {k.value: v for k, v in sorted(self.gate_error.items())},
            "edge_error": {f"{i}-{j}": v for (i, j), v in sorted(self.edge_error.items())},
            "gate_duration": {k.value: v for k, v in sorted(self.gate_duration.items())},
            "t1": [t if math.isfinite(t) else None for t in self.t1],
            "t2": [t if math.isfinite(t) else None for t in self.t2],
            "readout_error": list(self.readout_error),
            "drift": self.drift.to_json() if self.drift else None,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "DeviceModel":
        if doc.get("schema") != DEVICE_SCHEMA:
            raise ValidationError(f"unexpected device schema {doc.get('schema')!r}")
        edge_error = {}
        for key, v in doc.get("edge_error", {}).items():
            a, b = key.split("-")
            edge_error[(int(a), int(b))] = float(v)
        drift = doc.get("drift")
        return cls(
            n_qubits=int(doc["n_qubits"]),
            working=tuple(doc.get("working", [])),
            edges=tuple((int(i), int(j), float(s)) for i, j, s in doc.get("edges", [])),
            native_gates=frozenset(GateKind(g) for g in doc.get("native_gates", [])),
            gate_error={GateKind(k): float(v) for k, v in doc.get("gate_error", {}).items()},
            edge_error=edge_error,
            gate_duration={GateKind(k): float(v) for k, v in doc.get("gate_duration", {}).items()},
            t1=tuple(float("inf") if t is None else t for t in doc.get("t1", [])),
            t2=tuple(float("inf") if t is None else t for t in doc.get("t2", [])),
            readout_error=tuple(doc.get("readout_error", [])),
            drift=DriftSchedule.from_json(drift) if drift else None,
            name=str(doc.get("name", "device")),
        )

    @classmethod
    def load(cls, path: str | Path) -> "DeviceModel":
        return cls.from_json(json.loads(Path(path).read_text()))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    # -- stock topologies (test and demo devices) ------------------------------

    @classmethod
    def linear(cls, n_qubits: int, native_gates=(GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
                                                 GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
                                                 GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.CX),
               coupling: float = 1.0, **kwargs) -> "DeviceModel":
        edges = tuple((i, i + 1, coupling) for i in range(n_qubits - 1))
        return cls(n_qubits=n_qubits, working=(True,) * n_qubits, edges=edges,
                   native_gates=frozenset(native_gates), **kwargs)

    @classmethod
    def complete(cls, n_qubits: int, native_gates=(GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
                                                   GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
                                                   GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.CX),
                 coupling: float = 1.0, **kwargs) -> "DeviceModel":
        edges = tuple((i, j, coupling) for i in range(n_qubits) for j in range(i + 1, n_qubits))
        return cls(n_qubits=n_qubits, working=(True,) * n_qubits, edges=edges,
                   native_gates=frozenset(native_gates), **kwargs)


@dataclass(frozen=True)
class Violation:
    category: str  # "gate-set" | "connectivity" | "dead-qubit"
    gate: Gate
    message: str


_ALWAYS_LEGAL = frozenset({GateKind.MEASURE, GateKind.BARRIER})


def validate_against_device(circuit: Circuit, device: DeviceModel) -> list[Violation]:
    """All gate-set and connectivity violations of `circuit` on `device`."""
    violations: list[Violation] = []
    for g in circuit.all_gates():
        if g.kind in _ALWAYS_LEGAL:
            pass
        elif g.kind is GateKind.PAULI:
            needed = {GateKind(letter.lower()) for letter in g.paulis if letter != "I"}
            missing = needed - device.native_gates
            if missing:
                violations.append(Violation(
                    "gate-set", g,
                    f"pauli layer needs non-native gates {sorted(k.value for k in missing)}"))
        elif g.kind not in device.native_gates:
            violations.append(Violation("gate-set", g, f"gate {g.kind.value} is not native"))
        for t in g.targets:
            if t < device.n_qubits and not device.working[t]:
                violations.append(Violation("dead-qubit", g, f"qubit {t} is not working"))
        if g.kind in TWO_QUBIT_KINDS and not device.coupled(*g.targets):
            violations.append(Violation(
                "connectivity", g, f"qubits {g.targets} are not a coupled working pair"))
    return violations
