"""Stochastic noise description and the one trajectory channel every sampler uses.

After each gate, each of its noisy sites is hit with the site's error rate by
a uniformly random non-identity Pauli (`PAULI_LABELS`). A 1q or 2q gate is one
site over its targets; an n-qubit Pauli layer is n 1q sites at its 1q rate.
Readout bits flip independently. A drift schedule adds a per-shot offset to
every rate, gate and readout alike (RB's readout too); rates clip to [0, 1].

Draw layout: a sampling call draws every error it will use first, as one
sparse table (`draw_errors`). Its site list is the gate sites that can fire
for some shot, in gate order (`firing_sites`), then the measured qubits whose
clipped readout rate is above 0 for some shot (`readout_sites`), each a
one-label site whose hit is a flip. Only the hits are drawn: geometric gaps
per site, drift thinning, then one label per hit (see `draw_errors`). Then
come the outcome picks. The statevector engine, which randomized benchmarking
shares with one site per Clifford element, picks with one `rng.random` per
shot, chunk by chunk: each shot takes the first index whose normalized
cumulative sum reaches its draw, and no chunk size changes a bit. The tableau
sampler, with or without noise, picks with one `rng.integers(0, 2, (shots,
k), uint8)`, row `shot` for each shot, when the ideal outcomes span k > 0
random bits. So from one seed the two backends draw one table for a Clifford
circuit.
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


def can_fire(rate: float, offsets: np.ndarray | None) -> bool:
    """Whether a site or readout bit with base `rate` can fire for some shot under these offsets."""
    return rate + (0.0 if offsets is None else float(offsets.max())) > 0


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


def firing_sites(noise: NoiseModel | None, gates, offsets: np.ndarray | None
                 ) -> list[list[tuple[tuple[int, ...], float]]]:
    """For each gate, its sites (`gate_sites`) that can fire for some shot under `offsets`.

    Flattened in gate order, these are a call's gate sites, the first part of
    the site list that `draw_errors` reads; both samplers build it here, so
    one seed gives them one error table. Decided once per (kind, targets).
    """
    if noise is None:
        return [[] for _ in gates]
    decided: dict[tuple, list] = {}
    sites = []
    for gate in gates:
        key = (gate.kind, gate.targets)
        if key not in decided:
            decided[key] = [s for s in gate_sites(noise, gate) if can_fire(s[1], offsets)]
        sites.append(decided[key])
    return sites


def readout_sites(noise: NoiseModel | None, qubits, offsets: np.ndarray | None
                  ) -> list[tuple[int, float]]:
    """(qubit, base readout rate) of each of `qubits`, in order, whose readout can flip."""
    if noise is None:
        return []
    return [(q, noise.readout_for(q)) for q in qubits if can_fire(noise.readout_for(q), offsets)]


def draw_errors(sites: list[tuple[tuple[int, ...], float]], readout: list[tuple[int, float]],
                offsets: np.ndarray | None, shots: int, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every error of a call as one sparse table: (site, shot, label) arrays,
    sorted by site, then shot.

    Site j < len(sites) is gate site `sites[j]`, whose label indexes
    `PAULI_LABELS[len(qubits)]`; site len(sites) + i is readout bit
    `readout[i]`, whose one label 0 is a flip. Each (site, shot) is hit
    independently, at most once, with probability clip(rate + offsets[shot],
    0, 1). Each site walks its shots by geometric gaps at its largest clipped
    rate p, floor(log1p(-u) / log1p(-p)) misses before each candidate, one
    `rng.random` double u per gap. The walks run in rounds: each round, every
    unfinished site in order takes a block of min(left + 1, floor(m + 4 sqrt(m)
    + 2)) doubles, m = p * left, where `left` counts its shots not yet walked;
    a site is finished once a gap passes its last shot, and doubles of its block
    after that go unused. Under drift, one `rng.random` per candidate, in table
    order, keeps it with probability rate / p. Last, one `rng.random` per hit
    u gives its label floor(u * labels). Memory is O(sites + hits), and a site
    that cannot fire draws nothing.
    """
    rates = np.array([r for _, r in sites] + [r for _, r in readout], dtype=float)
    labels = np.array([len(PAULI_LABELS[len(q)]) for q, _ in sites] + [1] * len(readout))
    top = np.clip(rates + (offsets.max() if offsets is not None else 0.0), 0.0, 1.0)
    log_miss = np.log1p(-top, out=np.full(len(top), -np.inf), where=top < 1)  # -inf: no miss
    walked = np.zeros(len(rates), dtype=np.int64)  # shots each site has walked past
    todo = np.flatnonzero(top > 0)
    found = [np.zeros(0, dtype=np.int64)]  # (site * shots + shot) of each candidate
    while todo.size:
        left = shots - walked[todo]
        mean = top[todo] * left
        block = np.minimum(left + 1, (mean + 4 * np.sqrt(mean) + 2).astype(np.int64))
        owner = np.repeat(todo, block)
        gap = np.floor(np.log1p(-rng.random(len(owner))) / log_miss[owner])
        step = np.minimum(gap, shots).astype(np.int64) + 1
        ends = np.cumsum(block)
        total = np.cumsum(step)
        before = np.repeat(total[ends - block] - step[ends - block] - walked[todo] + 1, block)
        pos = total - before
        found.append(owner[pos < shots] * shots + pos[pos < shots])
        walked[todo] = pos[ends - 1] + 1
        todo = todo[walked[todo] < shots]
    key = np.sort(np.concatenate(found))
    site, shot = np.divmod(key, shots)
    if offsets is not None:
        keep = rng.random(len(key)) < np.clip(rates[site] + offsets[shot], 0.0, 1.0) / top[site]
        site, shot = site[keep], shot[keep]
    label = (rng.random(len(site)) * labels[site]).astype(np.int64)
    return site, shot, label
