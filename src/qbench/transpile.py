"""Map circuits onto a device: swap routing, native-gate lowering, and the
base/peak pipeline discipline.

The base pipeline is fixed (validate, route, decompose, validate) and cannot
be reconfigured; peak mode runs a user-chosen pass list but must survive a
randomized equivalence probe on small circuits before its output is trusted.

Routing and lowering build their gates with `Gate._trusted`, skipping the
checks of `Gate.__post_init__`: every such gate is derived from gates of the
input circuit, which passed those checks when it was built. Routing keeps a
gate whose qubits do not move and relabels the others through the layout, a
one-to-one map onto nonnegative qubits, so their targets stay distinct; its
SWAPs join the neighbours on a coupling path. Lowering emits CX and CZ on the
targets of a checked 2q gate, named 1q gates on a checked gate's qubit, and
rotations whose finite angles come from `euler_zyz` of unitaries derived
from checked gates. The circuits they form are still checked by
`Circuit.from_gates`, and the output by device validation.
"""
from __future__ import annotations

import json
import math
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    CX, Circuit, Gate, GateKind, ROTATION_KINDS, Ry, Rz, TWO_QUBIT_KINDS, gate_unitary,
    measure_all,
)
from .device import DeviceModel, validate_against_device
from .errors import EquivalenceProbeError, TranspileError, ValidationError
from .kak import euler_zyz, synthesize_two_qubit
from .rng import SeedStream
from .statevector import ideal_distribution

BASE_PASSES = ("validate", "route", "decompose", "validate")

_PROBE_TOL = 1e-6


@dataclass(frozen=True)
class TranspileConfig:
    """Pipeline selection; base is canonical and refuses overrides."""

    mode: str = "base"
    passes: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("base", "peak"):
            raise TranspileError(f"unknown transpile mode {self.mode!r}")
        object.__setattr__(self, "passes", tuple(self.passes))
        if self.mode == "base" and self.passes:
            raise TranspileError("base mode is a fixed pipeline; it takes no passes")

    def effective_passes(self) -> tuple[str, ...]:
        if self.mode == "base":
            return BASE_PASSES
        return self.passes or BASE_PASSES

    def to_json(self) -> dict:
        return {"mode": self.mode, "passes": list(self.passes), "seed": self.seed}

    @classmethod
    def from_json(cls, doc: Mapping) -> "TranspileConfig":
        mode, passes = doc.get("mode", "base"), doc.get("passes", [])
        if not (isinstance(passes, list) and all(isinstance(p, str) for p in passes)):
            raise ValidationError(f"run-config {mode}.passes is not a list of pass names: {passes!r}")
        return cls(mode, tuple(passes), int(doc.get("seed", 0)))


@dataclass
class PassLogEntry:
    name: str
    gates_in: int
    gates_out: int
    swaps_added: int
    wall_seconds: float
    violations: int = 0

    def to_json(self) -> dict:
        return {"name": self.name, "gates_in": self.gates_in, "gates_out": self.gates_out,
                "swaps_added": self.swaps_added, "wall_seconds": self.wall_seconds,
                "violations": self.violations}


@dataclass
class PassLog:
    entries: list[PassLogEntry] = field(default_factory=list)

    @property
    def swaps_added(self) -> int:
        return sum(e.swaps_added for e in self.entries)

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]


# -- routing -------------------------------------------------------------------

def _bfs_path(adj: dict[int, list[int]], start: int, goal: int) -> list[int]:
    """Shortest path with deterministic lowest-index tie-breaking."""
    if start == goal:
        return [start]
    parent = {start: start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nb in adj[node]:  # adjacency lists are sorted ascending
            if nb not in parent:
                parent[nb] = node
                if nb == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(nb)
    raise TranspileError(f"no coupling path between qubits {start} and {goal}")


def route_swaps(circuit: Circuit, device: DeviceModel) -> Circuit:
    """Insert SWAPs so every 2q gate acts on a coupled working pair.

    Logical qubit k starts on the k-th qubit of the largest connected working
    component; the final logical-to-physical layout is recorded in metadata
    and measurements are relabeled so sampled bitstrings keep logical order.
    """
    comps = device.connected_components()
    if not comps or len(comps[0]) < circuit.n_qubits:
        have = len(comps[0]) if comps else 0
        raise TranspileError(
            f"largest connected working component has {have} qubits, circuit needs {circuit.n_qubits}")
    adj = device.adjacency()
    component = comps[0]
    phys_of = {l: component[l] for l in range(circuit.n_qubits)}
    logical_at = {p: l for l, p in phys_of.items()}

    out: list[Gate] = []
    swaps = 0
    for gate in circuit.all_gates():
        if gate.kind in TWO_QUBIT_KINDS:
            a, b = gate.targets
            pa, pb = phys_of[a], phys_of[b]
            if not device.coupled(pa, pb):
                path = _bfs_path(adj, pa, pb)
                for k in range(len(path) - 2):
                    p, q = path[k], path[k + 1]
                    out.append(Gate._trusted(GateKind.SWAP, (p, q)))
                    swaps += 1
                    la, lb = logical_at.get(p), logical_at.get(q)
                    if la is not None:
                        phys_of[la] = q
                    if lb is not None:
                        phys_of[lb] = p
                    logical_at[p], logical_at[q] = lb, la
                    if logical_at[p] is None:
                        del logical_at[p]
                    if logical_at[q] is None:
                        del logical_at[q]
        targets = tuple(phys_of[t] for t in gate.targets)
        if targets == gate.targets:
            out.append(gate)
        else:
            out.append(Gate._trusted(gate.kind, targets, gate.angle, gate.matrix, gate.paulis,
                                     gate.sign, gate.cbit))
    md = dict(circuit.metadata)
    md.update(layout_initial=[component[l] for l in range(circuit.n_qubits)],
              layout_final=[phys_of[l] for l in range(circuit.n_qubits)],
              swaps_added=swaps, logical_width=circuit.n_qubits)
    return Circuit.from_gates(device.n_qubits, out, metadata=md)


# -- native-gate lowering --------------------------------------------------------

def _rotation_family(device: DeviceModel) -> str:
    native = device.native_gates
    if GateKind.RZ in native and GateKind.RY in native:
        return "zyz"
    if GateKind.RZ in native and GateKind.RX in native:
        return "zxz"
    raise TranspileError("native set lacks a universal 1q family (need rz+ry or rz+rx)")


def _entangler(device: DeviceModel) -> GateKind | None:
    if GateKind.CX in device.native_gates:
        return GateKind.CX
    if GateKind.CZ in device.native_gates:
        return GateKind.CZ
    return None


_ANGLE_EPS = 1e-12


def _expand_1q(out: list, family: str) -> list[Gate]:
    """`out` with each queued (qubit, 2x2) replaced by its Euler rotations, all
    angles from one `euler_zyz` call."""
    alpha, beta, gamma, _ = euler_zyz([item[1] for item in out if not isinstance(item, Gate)])
    # euler_zyz's beta is never negative, and Rz(a) Ry(b) Rz(g) also equals
    # Rz(a - pi) Ry(-b) Rz(g + pi). That form shifts both outer Rz angles by
    # pi, so it is taken where it drops more of them: a negative Ry stays one Ry.
    outer = np.stack([gamma, alpha])
    if family != "zyz":
        outer += np.array([[-math.pi / 2], [math.pi / 2]])
    flip = (np.abs(np.cos(outer / 2.0)) > _ANGLE_EPS).sum(axis=0) \
        < (np.abs(np.sin(outer / 2.0)) > _ANGLE_EPS).sum(axis=0)
    angles = zip(np.where(flip, alpha - math.pi, alpha).tolist(),
                 np.where(flip, -beta, beta).tolist(),
                 np.where(flip, gamma + math.pi, gamma).tolist())
    rz, ry, rx = GateKind.RZ, GateKind.RY, GateKind.RX
    gates: list[Gate] = []
    for item in out:
        if isinstance(item, Gate):
            gates.append(item)
            continue
        q = (item[0],)
        alpha, beta, gamma = next(angles)
        if family == "zyz":
            seq = ((rz, gamma), (ry, beta), (rz, alpha))
        else:
            seq = ((rz, gamma - math.pi / 2), (rx, beta), (rz, alpha + math.pi / 2))
        for kind, angle in seq:
            if abs(math.sin(angle / 2.0)) > _ANGLE_EPS:
                gates.append(Gate._trusted(kind, q, angle))
    return gates


def _emit_cx(a: int, b: int, ent: GateKind | None, device: DeviceModel, out: list) -> None:
    if ent is None:
        raise TranspileError("native set lacks an entangling gate (need cx or cz)")
    if ent is GateKind.CX:
        out.append(Gate._trusted(GateKind.CX, (a, b)))
        return
    # CX = (I x H) CZ (I x H)
    _emit_named_1q(b, GateKind.H, device, out)
    out.append(Gate._trusted(GateKind.CZ, (a, b)))
    _emit_named_1q(b, GateKind.H, device, out)


def _emit_named_1q(q: int, kind: GateKind, device: DeviceModel, out: list) -> None:
    gate = Gate._trusted(kind, (q,))
    if kind in device.native_gates:
        out.append(gate)
        return
    out.append((q, gate_unitary(gate)))


def decompose_to_native(circuit: Circuit, device: DeviceModel) -> Circuit:
    """Lower every gate to the device's native set.

    Arbitrary 2q unitaries go through the Cartan path (exactly three native
    entangling gates plus 1q rotations); non-native named gates are rewritten
    with classic identities or Euler angles. Global phases are dropped. One
    `synthesize_two_qubit` call covers every U2Q of the circuit (none is made
    without one), and one `euler_zyz` call every 1q unitary the lowering emits.
    """
    family = _rotation_family(device)
    ent = _entangler(device)
    gates = list(circuit.all_gates())
    u2q = [g.matrix for g in gates if g.kind is GateKind.U2Q]
    seq = synthesize_two_qubit(u2q) if u2q else None
    n_u2q = 0
    # Lowered gates, with each 1q unitary queued as (qubit, 2x2); `_expand_1q`
    # lowers every queued one at once.
    out: list = []
    for gate in gates:
        kind = gate.kind
        if kind in (GateKind.MEASURE, GateKind.BARRIER):
            out.append(gate)
        elif kind is GateKind.PAULI:
            for t, letter in zip(gate.targets, gate.paulis):
                if letter != "I":
                    _emit_named_1q(t, GateKind(letter.lower()), device, out)
        elif kind is GateKind.U2Q:
            for op in seq.ops:
                if op[0] == "cx":
                    _emit_cx(gate.targets[op[1]], gate.targets[op[2]], ent, device, out)
                else:
                    _, local_q, u2 = op
                    out.append((gate.targets[local_q], u2[n_u2q]))
            n_u2q += 1
        elif kind in device.native_gates:
            out.append(gate)
        elif kind is GateKind.SWAP:
            a, b = gate.targets
            _emit_cx(a, b, ent, device, out)
            _emit_cx(b, a, ent, device, out)
            _emit_cx(a, b, ent, device, out)
        elif kind is GateKind.CX:
            _emit_cx(*gate.targets, ent, device, out)
        elif kind is GateKind.CZ:
            # CZ = (I x H) CX (I x H)
            a, b = gate.targets
            _emit_named_1q(b, GateKind.H, device, out)
            _emit_cx(a, b, ent, device, out)
            _emit_named_1q(b, GateKind.H, device, out)
        elif kind in ROTATION_KINDS or kind in (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
                                                GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG):
            out.append((gate.targets[0], gate_unitary(gate)))
        else:
            raise TranspileError(f"cannot lower gate {kind.value}")
    md = dict(circuit.metadata)
    md["native"] = True
    return Circuit.from_gates(circuit.n_qubits, _expand_1q(out, family), metadata=md)


# -- optimization passes ---------------------------------------------------------

_INVERSE_KINDS = {
    (GateKind.H, GateKind.H), (GateKind.X, GateKind.X), (GateKind.Y, GateKind.Y),
    (GateKind.Z, GateKind.Z), (GateKind.CX, GateKind.CX), (GateKind.CZ, GateKind.CZ),
    (GateKind.SWAP, GateKind.SWAP), (GateKind.S, GateKind.SDG), (GateKind.SDG, GateKind.S),
    (GateKind.T, GateKind.TDG), (GateKind.TDG, GateKind.T),
}


def _is_inverse_pair(a: Gate, b: Gate) -> bool:
    if a.targets != b.targets:
        return False
    if a.kind in ROTATION_KINDS and b.kind is a.kind:
        return abs(a.angle + b.angle) < 1e-12
    if a.kind is GateKind.U2Q and b.kind is GateKind.U2Q:
        prod = np.asarray(b.matrix) @ np.asarray(a.matrix)
        ref = prod[0, 0]
        return abs(abs(ref) - 1.0) < 1e-10 and np.max(np.abs(prod - ref * np.eye(4))) < 1e-10
    if a.kind is GateKind.PAULI and b.kind is GateKind.PAULI:
        return a.paulis == b.paulis
    return (a.kind, b.kind) in _INVERSE_KINDS


def cancel_inverse_gates(circuit: Circuit) -> Circuit:
    """Repeatedly drop adjacent inverse gate pairs (barriers block cancellation)."""
    ops = [g for g in circuit.all_gates()]
    changed = True
    while changed:
        changed = False
        kept: list[Gate] = []
        removed = set()
        for i, g in enumerate(ops):
            if i in removed:
                continue
            if g.kind in (GateKind.MEASURE,):
                kept.append(g)
                continue
            qubits = set(g.targets)
            partner = None
            for j in range(i + 1, len(ops)):
                if j in removed:
                    continue
                other = ops[j]
                if qubits & set(other.targets):
                    if _is_inverse_pair(g, other):
                        partner = j
                    break
            if partner is not None:
                removed.add(partner)
                changed = True
            else:
                kept.append(g)
        ops = kept
    return Circuit.from_gates(circuit.n_qubits, ops, metadata=dict(circuit.metadata))


# -- pipeline ---------------------------------------------------------------------

def _pass_validate(circuit: Circuit, device: DeviceModel, entry: PassLogEntry) -> Circuit:
    entry.violations = len(validate_against_device(circuit, device))
    return circuit

def _pass_route(circuit: Circuit, device: DeviceModel, entry: PassLogEntry) -> Circuit:
    routed = route_swaps(circuit, device)
    entry.swaps_added = int(routed.metadata.get("swaps_added", 0))
    return routed

def _pass_decompose(circuit: Circuit, device: DeviceModel, entry: PassLogEntry) -> Circuit:
    return decompose_to_native(circuit, device)

def _pass_cancel(circuit: Circuit, device: DeviceModel, entry: PassLogEntry) -> Circuit:
    return cancel_inverse_gates(circuit)


PASS_REGISTRY: dict[str, object] = {
    "validate": _pass_validate,
    "route": _pass_route,
    "decompose": _pass_decompose,
    "cancel_inverses": _pass_cancel,
}


def register_pass(name: str, fn) -> None:
    """Register a custom peak pass: fn(circuit, device, log_entry) -> circuit."""
    PASS_REGISTRY[name] = fn


def _run_passes(circuit: Circuit, device: DeviceModel, passes: tuple[str, ...]) -> tuple[Circuit, PassLog]:
    log = PassLog()
    current = circuit
    count = circuit.gate_count()
    for name in passes:
        fn = PASS_REGISTRY.get(name)
        if fn is None:
            raise TranspileError(f"unknown pass {name!r}")
        entry = PassLogEntry(name, count, 0, 0, 0.0)
        start = time.perf_counter()
        result = fn(current, device, entry)
        entry.wall_seconds = time.perf_counter() - start
        # Circuits are immutable, so a pass that returns its input kept its count.
        if result is not current:
            current, count = result, result.gate_count()
        entry.gates_out = count
        log.entries.append(entry)
    return current, log


def _probe_circuit(n: int, stream: SeedStream) -> Circuit:
    rng = stream.generator()
    gates: list[Gate] = []
    for q in range(n):
        gates.append(Ry(q, float(rng.uniform(0, 2 * math.pi))))
        gates.append(Rz(q, float(rng.uniform(0, 2 * math.pi))))
    for _ in range(3):
        if n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(CX(int(a), int(b)))
        for q in range(n):
            if rng.random() < 0.5:
                gates.append(Ry(q, float(rng.uniform(0, 2 * math.pi))))
    return measure_all(Circuit.from_gates(n, gates))


#: probes that passed, keyed by device JSON, pass names, the registered pass
#: functions and seed; a failed probe is not stored, so it fails on every call
_PASSED_PROBES: set[tuple] = set()


def _probe_equivalence(device: DeviceModel, passes: tuple[str, ...], seed: int) -> None:
    """Reject pass lists that change small-circuit output distributions.

    A probe that passed is not run again for the same device, passes, pass
    functions and seed.
    """
    key = (json.dumps(device.to_json(), sort_keys=True), passes,
           tuple(PASS_REGISTRY.get(name) for name in passes), seed)
    if key in _PASSED_PROBES:
        return
    comp = device.connected_components()
    if not comp:
        raise TranspileError("device has no working qubits to probe")
    width = min(3, len(comp[0]))
    stream = SeedStream(seed, (0xEC0,))
    for trial in range(4):
        probe = _probe_circuit(width, stream.child(trial))
        before = ideal_distribution(probe)
        after_circuit, _ = _run_passes(probe, device, passes)
        after = ideal_distribution(after_circuit)
        deviation = float(np.max(np.abs(before.probs - after.probs)))
        if deviation > _PROBE_TOL:
            raise EquivalenceProbeError(
                f"pass list {list(passes)} changed probe-circuit output by {deviation:.2e}")
    _PASSED_PROBES.add(key)


def run_pipeline(circuit: Circuit, device: DeviceModel,
                 config: TranspileConfig) -> tuple[Circuit, PassLog]:
    """Run the configured pipeline; output always passes device validation.

    Peak pass lists are vetted by a randomized equivalence probe on circuits
    of width <= 3 before the real circuit is transpiled.
    """
    passes = config.effective_passes()
    if config.mode == "peak":
        _probe_equivalence(device, passes, config.seed)
    out, log = _run_passes(circuit, device, passes)
    # A stock validate pass that ran last and found nothing has checked `out`;
    # a re-registered one is not trusted to have.
    checked = (passes[-1] == "validate" and PASS_REGISTRY["validate"] is _pass_validate
               and log.entries[-1].violations == 0)
    leftover = [] if checked else validate_against_device(out, device)
    if leftover:
        raise TranspileError(
            f"pipeline output still violates the device: {leftover[0].message} "
            f"(+{len(leftover) - 1} more)" if len(leftover) > 1 else
            f"pipeline output still violates the device: {leftover[0].message}")
    return out.with_metadata(transpile_mode=config.mode), log
