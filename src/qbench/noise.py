"""Stochastic noise description and the one trajectory channel every sampler uses.

After each gate, each of its noisy sites is hit with the site's error rate by
a uniformly random non-identity Pauli (`PAULI_LABELS`). A 1q or 2q gate is one
site over its targets; an n-qubit Pauli layer is n 1q sites at its 1q rate.
Readout bits flip independently. A drift schedule adds a per-shot offset to
every rate, gate and readout alike (RB's readout too); rates clip to [0, 1].

Draw layout: for each gate in order, and each of its sites (`gate_sites`)
whose clipped rate is above 0 for some shot, `rng.random(batch) < rates` then
`rng.integers(0, len(labels), batch)`; then the outcome picks; then, for each
measured qubit in order whose clipped readout rate is above 0 for some shot,
one `rng.random(batch) < rates`. The statevector engine, which randomized
benchmarking shares with one site per Clifford element, picks outcomes with
one `rng.random(batch)`: each shot takes the first index whose normalized
cumulative sum reaches its draw. The tableau sampler, with or without noise,
picks with one `rng.integers(0, 2, (shots, k), uint8)`, row `shot` for each
shot, when the ideal outcomes span k > 0 random bits.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .circuits import Gate, GateKind, TWO_QUBIT_KINDS
from .errors import ValidationError
from .rng import SeedStream


@dataclass(frozen=True)
class DriftSchedule:
    """Per-shot additive error-rate offset: offset(i) = cycle[i mod T] + Normal(0, noise_std)."""

    cycle: tuple[float, ...]
    noise_std: float = 0.0
    stream: SeedStream = field(default_factory=lambda: SeedStream(0))

    def __post_init__(self):
        object.__setattr__(self, "cycle", tuple(float(c) for c in self.cycle))
        if len(self.cycle) < 1:
            raise ValidationError("drift cycle needs at least one value (period >= 1)")
        if self.noise_std < 0:
            raise ValidationError("noise std must be nonnegative")

    @property
    def period(self) -> int:
        return len(self.cycle)

    def offsets_for(self, shots: int) -> np.ndarray:
        """Offsets for shot indices 0..shots-1; reproducible for a fixed stream."""
        cyc = np.asarray(self.cycle)[np.arange(shots) % self.period]
        if self.noise_std > 0:
            cyc = cyc + self.stream.generator().normal(0.0, self.noise_std, size=shots)
        return cyc

    def to_json(self) -> dict:
        return {"cycle": list(self.cycle), "noise_std": self.noise_std, "stream": self.stream.as_record()}

    @classmethod
    def from_json(cls, doc: dict) -> "DriftSchedule":
        return cls(tuple(doc["cycle"]), float(doc.get("noise_std", 0.0)),
                   SeedStream.from_record(doc.get("stream", {"seed": 0})))


def drift_rate_at(schedule: DriftSchedule, base_rate: float, shot_index: int) -> float:
    """Effective rate for one shot: clamp(base + cycle[i mod T] + Z_i, 0, 1)."""
    if shot_index < 0:
        raise ValidationError("shot index must be nonnegative")
    offset = schedule.offsets_for(shot_index + 1)[shot_index]
    return float(min(1.0, max(0.0, base_rate + offset)))


#: non-identity Pauli labels of a 1q or 2q site, indexed by the drawn choice
PAULI_LABELS = {
    1: ("X", "Y", "Z"),
    2: tuple(a + b for a in "IXYZ" for b in "IXYZ")[1:],
}

#: (x bits, z bits) of each label in `PAULI_LABELS`, each of shape (labels, qubits)
PAULI_BITS = {
    k: tuple(np.array([[letter in part for letter in label] for label in labels], dtype=np.uint8)
             for part in ("XY", "YZ"))
    for k, labels in PAULI_LABELS.items()
}


_ONE_QUBIT_GATE_KINDS = frozenset(
    k for k in GateKind
    if k not in TWO_QUBIT_KINDS and k not in (GateKind.MEASURE, GateKind.BARRIER, GateKind.PAULI)
)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probability per gate kind plus per-qubit readout flip rates.

    `default_1q` / `default_2q` cover kinds missing from `gate_error`; they are
    also the per-element rates used by protocols that treat a composite
    operation (for example one sampled Clifford element) as a single noisy unit.
    """

    gate_error: Mapping[GateKind, float] = field(default_factory=dict)
    edge_error: Mapping[tuple[int, int], float] = field(default_factory=dict)
    readout_error: tuple[float, ...] = ()
    default_1q: float = 0.0
    default_2q: float = 0.0
    drift: DriftSchedule | None = None

    def __post_init__(self):
        ge = {GateKind(k): float(v) for k, v in self.gate_error.items()}
        ee = {tuple(sorted((int(a), int(b)))): float(v) for (a, b), v in self.edge_error.items()}
        ro = tuple(float(r) for r in self.readout_error)
        for v in list(ge.values()) + list(ee.values()) + list(ro) + [self.default_1q, self.default_2q]:
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"probability {v} outside [0, 1]")
        object.__setattr__(self, "gate_error", MappingProxyType(ge))
        object.__setattr__(self, "edge_error", MappingProxyType(ee))
        object.__setattr__(self, "readout_error", ro)

    def error_for(self, kind: GateKind, targets: tuple[int, ...] = ()) -> float:
        if kind in (GateKind.MEASURE, GateKind.BARRIER):
            return 0.0
        if kind in TWO_QUBIT_KINDS and len(targets) == 2:
            edge = tuple(sorted(targets))
            if edge in self.edge_error:
                return self.edge_error[edge]
        if kind in self.gate_error:
            return self.gate_error[kind]
        return self.default_2q if kind in TWO_QUBIT_KINDS else self.default_1q

    def shot_offsets(self, shots: int) -> np.ndarray | None:
        """Per-shot drift offsets for shots 0..shots-1, or None without a drift schedule."""
        return self.drift.offsets_for(shots) if self.drift is not None else None

    def element_error(self, n_qubits: int) -> float:
        """Per-element rate for composite units (1 or 2 qubit Clifford elements)."""
        return self.default_1q if n_qubits == 1 else self.default_2q

    def readout_for(self, qubit: int) -> float:
        if not self.readout_error:
            return 0.0
        if len(self.readout_error) == 1:
            return self.readout_error[0]
        return self.readout_error[qubit]

    @property
    def is_trivial(self) -> bool:
        return (
            self.drift is None
            and self.default_1q == 0.0 and self.default_2q == 0.0
            and not any(self.gate_error.values())
            and not any(self.edge_error.values())
            and not any(self.readout_error)
        )

    @classmethod
    def uniform(cls, p1: float = 0.0, p2: float = 0.0, readout: float = 0.0,
                drift: DriftSchedule | None = None) -> "NoiseModel":
        return cls(readout_error=(readout,), default_1q=p1, default_2q=p2, drift=drift)

    @classmethod
    def from_device(cls, device, drift: DriftSchedule | None = None) -> "NoiseModel":
        """Lift a device's error book into a noise model (duck-typed DeviceModel)."""
        ge = dict(device.gate_error)
        ones = [v for k, v in ge.items() if k in _ONE_QUBIT_GATE_KINDS]
        twos = [v for k, v in ge.items() if k in TWO_QUBIT_KINDS]
        return cls(
            gate_error=ge,
            edge_error=dict(getattr(device, "edge_error", {})),
            readout_error=tuple(device.readout_error),
            default_1q=float(np.mean(ones)) if ones else 0.0,
            default_2q=float(np.mean(twos)) if twos else 0.0,
            drift=drift if drift is not None else getattr(device, "drift", None),
        )

    def scaled(self, factor: float) -> "NoiseModel":
        """All rates multiplied by `factor` (clamped to 1); used for noise ladders."""
        f = float(factor)
        clamp = lambda v: min(1.0, v * f)
        return NoiseModel(
            gate_error={k: clamp(v) for k, v in self.gate_error.items()},
            edge_error={e: clamp(v) for e, v in self.edge_error.items()},
            readout_error=tuple(clamp(v) for v in self.readout_error),
            default_1q=clamp(self.default_1q),
            default_2q=clamp(self.default_2q),
            drift=self.drift,
        )


def _clipped(base: float, offsets: np.ndarray | None) -> np.ndarray | float:
    return np.clip(base + offsets, 0.0, 1.0) if offsets is not None else base


def can_fire(rate: float, offsets: np.ndarray | None) -> bool:
    """Whether a site or readout bit with base `rate` can fire for some shot under these offsets."""
    return bool(np.any(_clipped(rate, offsets) > 0))


def gate_sites(noise: NoiseModel, gate: Gate) -> list[tuple[tuple[int, ...], float]]:
    """(qubits, base rate) of each noisy site of `gate`, in draw order.

    A Pauli layer is one 1q site per target; a measurement or barrier has none;
    any other gate is one site over its targets.
    """
    if gate.kind in (GateKind.MEASURE, GateKind.BARRIER):
        return []
    rate = noise.error_for(gate.kind, gate.targets)
    if gate.kind is GateKind.PAULI:
        return [((t,), rate) for t in gate.targets]
    return [(gate.targets, rate)]


def draw_site(rate: float, offsets: np.ndarray | None, batch: int, n_qubits: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray] | None:
    """(hit shots, index into `PAULI_LABELS[n_qubits]` per hit), or None if the site cannot fire.

    The choice is drawn for every shot, so the layout does not depend on the hits.
    """
    if not can_fire(rate, offsets):
        return None
    hit = rng.random(batch) < _clipped(rate, offsets)
    choice = rng.integers(0, len(PAULI_LABELS[n_qubits]), size=batch)
    rows = np.flatnonzero(hit)
    return rows, choice[rows]


def draw_gate_errors(noise: NoiseModel, gate: Gate, offsets: np.ndarray | None, batch: int,
                     rng: np.random.Generator) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
    """(qubits, hit shots, label index per hit) for every site of `gate` that can fire."""
    drawn = []
    for qubits, rate in gate_sites(noise, gate):
        site = draw_site(rate, offsets, batch, len(qubits), rng)
        if site is not None:
            drawn.append((qubits, *site))
    return drawn


def draw_readout_flips(noise: NoiseModel, qubits, offsets: np.ndarray | None, batch: int,
                       rng: np.random.Generator) -> list[tuple[int, np.ndarray]]:
    """(qubit, per-shot flip mask) for each measured qubit, in order, whose readout can flip."""
    flips = []
    for q in qubits:
        rate = noise.readout_for(q)
        if can_fire(rate, offsets):
            flips.append((q, rng.random(batch) < _clipped(rate, offsets)))
    return flips
