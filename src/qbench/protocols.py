"""End-to-end benchmark protocols composing generation, transpilation,
simulation, and metrics: quantum volume, volumetric grids, randomized
benchmarking, mirror benchmarking, CLOPS, classical shadows, the collision
test, and XEB device verification.

Every protocol takes an explicit SeedStream and records the substream path of
each work item, so any item can be regenerated bit-for-bit from the report.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .circuits import Circuit, GateKind, H, PauliString, Sdg, gate_unitary, measure_all
from .cliffords import clifford_group
from .device import DeviceModel
from .distributions import SampleSet
from .errors import ValidationError
from .metrics import (
    CollisionStats, collision_delta, collision_volume, hellinger_distance, hog_probability,
    l1_distance, xeb_alpha,
)
from .noise import NoiseModel, can_fire
from .randgen import (
    VolumetricShape, layered_model_circuit, make_mirror_circuit, qv_model_circuit,
    random_clifford_circuit, volumetric_family,
)
from .rng import SeedStream
from .stabilizer import stabilizer_sample
from .statevector import (
    STATEVECTOR_WIDTH_CAP, _sample_plan, _sample_rows, apply_unitary, ideal_distribution,
    run_statevector, sample_counts,
)
from .transpile import TranspileConfig, run_pipeline

#: one-sided 97.5% normal quantile used by the quantum-volume pass rule
Z_975 = 1.959963984540054

QV_PASS_THRESHOLD = 2.0 / 3.0
QV_MIN_CIRCUITS = 100


def _execute(circuit: Circuit, device: DeviceModel, noise: NoiseModel | None, shots: int,
             rng: np.random.Generator, transpile: TranspileConfig | None = None) -> SampleSet:
    """`shots` samples of `circuit` measured on every qubit, lowered onto `device`
    by the `transpile` pipeline (the base pipeline when None), under `noise`."""
    executed, _ = run_pipeline(measure_all(circuit), device, transpile or TranspileConfig())
    return sample_counts(executed, shots, noise, rng)


def counts_digest(samples: SampleSet) -> str:
    """Stable hash of a sample set, for exact re-execution comparisons."""
    blob = json.dumps(samples.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _json_type_matches(value, annotation: str) -> bool:
    """Whether a JSON value has the type an item field is annotated with:
    int, float (any number), str or list[...] of one of them. A bool is no number."""
    if annotation.startswith("list["):
        return isinstance(value, list) and all(_json_type_matches(v, annotation[5:-1]) for v in value)
    if annotation == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value).__name__ == annotation


def _from_json(cls, item: dict):
    """An item dataclass built from the raw (init) fields of its JSON form.

    A raw field whose JSON type does not match its annotation raises ValidationError.
    """
    raw = {}
    for f in fields(cls):
        if f.init:
            value = raw[f.name] = item[f.name]
            if not _json_type_matches(value, f.type):
                raise ValidationError(f"{cls.__name__}.{f.name} is {type(value).__name__}, "
                                      f"not {f.type}")
    return cls(**raw)


# -- quantum volume -------------------------------------------------------------


@dataclass
class QvWidthRecord:
    width: int
    hogs: list[float]
    sample_hashes: list[str] = field(default_factory=list)
    circuits: int = field(init=False)
    mean_hog: float = field(init=False)
    lower_bound: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.circuits = len(self.hogs)
        self.mean_hog = float(np.mean(self.hogs))
        self.lower_bound = qv_lower_bound(self.hogs)
        self.passed = self.lower_bound > QV_PASS_THRESHOLD


@dataclass
class QvResult:
    records: list[QvWidthRecord]
    shots: int
    seeds: dict
    largest_passing_width: int = field(init=False)
    quantum_volume: int = field(init=False)
    conformant: bool = field(init=False)

    def __post_init__(self):
        self.largest_passing_width = 0
        for rec in self.records:
            if not rec.passed:
                break
            self.largest_passing_width = rec.width
        self.quantum_volume = 1 << self.largest_passing_width
        self.conformant = all(rec.circuits >= QV_MIN_CIRCUITS for rec in self.records)

    def to_record(self) -> dict:
        return {
            "protocol": "quantum_volume",
            "config": {"shots": self.shots, "conformant": self.conformant},
            "seeds": self.seeds,
            "items": [asdict(r) for r in self.records],
            "aggregate": {"largest_passing_width": self.largest_passing_width,
                          "quantum_volume": self.quantum_volume},
        }

    @classmethod
    def from_record(cls, record: dict) -> "QvResult":
        return cls([_from_json(QvWidthRecord, it) for it in record["items"]],
                   record["config"]["shots"], record["seeds"])


def qv_lower_bound(hogs: list[float]) -> float:
    """One-sided 97.5% lower confidence bound on the mean heavy-output score."""
    arr = np.asarray(hogs, dtype=float)
    if arr.size < 2:
        raise ValidationError("the confidence bound needs at least 2 circuits")
    return float(arr.mean() - Z_975 * arr.std(ddof=1) / math.sqrt(arr.size))


def qv_item(device: DeviceModel, noise: NoiseModel | None, width: int, k: int, shots: int,
            stream: SeedStream, transpile: TranspileConfig | None = None
            ) -> tuple[Circuit, SampleSet]:
    """The k-th model circuit of `width` in a quantum-volume run on `stream`, and its samples.

    The item's substream is stream.child(width, k): its child 0 generates the
    circuit and its child 1 seeds the sampler. Re-execution calls this too,
    so a report is checked against the code that made it.
    """
    item = stream.child(width, k)
    circuit = qv_model_circuit(width, item.child(0))
    return circuit, _execute(circuit, device, noise, shots, item.child(1).generator(), transpile)


def run_quantum_volume(device: DeviceModel, noise: NoiseModel | None, max_width: int,
                       circuits_per_width: int, shots: int, stream: SeedStream,
                       strict: bool = True, transpile: TranspileConfig | None = None) -> QvResult:
    """Heavy-output test per square width; QV = 2^D for the largest passing prefix.

    A width passes when the one-sided 97.5% lower confidence bound of the mean
    heavy-output probability exceeds 2/3. Fewer than 100 circuits per width is
    refused in strict mode and marks the result non-conformant otherwise.
    """
    if max_width < 2:
        raise ValidationError("quantum volume starts at width 2")
    if max_width > STATEVECTOR_WIDTH_CAP:
        raise ValidationError(f"width {max_width} is not practical for the exact heavy-set "
                              f"oracle (cap {STATEVECTOR_WIDTH_CAP})")
    if circuits_per_width < QV_MIN_CIRCUITS and strict:
        raise ValidationError(
            f"{circuits_per_width} circuits/width < {QV_MIN_CIRCUITS}; pass strict=False "
            "to run a non-conformant estimate")
    records = []
    for width in range(2, max_width + 1):
        hogs = []
        hashes = []
        for k in range(circuits_per_width):
            circuit, samples = qv_item(device, noise, width, k, shots, stream, transpile)
            hogs.append(hog_probability(samples, ideal_distribution(circuit)))
            if k == 0:
                hashes.append(counts_digest(samples))
        records.append(QvWidthRecord(width, hogs, hashes))
    return QvResult(records, shots, stream.as_record())


# -- volumetric grids -----------------------------------------------------------


@dataclass
class VolumetricRow:
    width: int
    depth: int
    metric: str
    value: float
    passed: bool | None = field(init=False)

    def __post_init__(self):
        self.passed = self.value > QV_PASS_THRESHOLD if self.metric == "hog" else None


@dataclass
class VolumetricTable:
    shape: str
    rows: list[VolumetricRow]
    shots: int
    seeds: dict

    def to_record(self) -> dict:
        return {
            "protocol": "volumetric",
            "config": {"shape": self.shape, "shots": self.shots},
            "seeds": self.seeds,
            "items": [asdict(r) for r in self.rows],
            "aggregate": {"rows": len(self.rows)},
        }

    @classmethod
    def from_record(cls, record: dict) -> "VolumetricTable":
        config = record["config"]
        return cls(config["shape"], [_from_json(VolumetricRow, it) for it in record["items"]],
                   config["shots"], record["seeds"])


def run_volumetric(device: DeviceModel, noise: NoiseModel | None,
                   shape: VolumetricShape | str, widths: list[int], metric: str,
                   shots: int, stream: SeedStream,
                   transpile: TranspileConfig | None = None) -> VolumetricTable:
    """One metric evaluated over a (width, depth) grid of one volumetric class."""
    if metric not in ("hog", "hellinger", "l1", "xeb"):
        raise ValidationError(f"unknown volumetric metric {metric!r}")
    rows = []
    for width, depth, circuit in volumetric_family(shape, widths, stream.child(0)):
        p_ideal = ideal_distribution(circuit)
        samples = _execute(circuit, device, noise, shots,
                           stream.child(1, width, depth).generator(), transpile)
        if metric == "hog":
            value = hog_probability(samples, p_ideal)
        elif metric == "hellinger":
            value = hellinger_distance(samples.empirical(), p_ideal)
        elif metric == "l1":
            value = l1_distance(samples.empirical(), p_ideal)
        else:
            value = xeb_alpha(samples, p_ideal).alpha_tilde
        rows.append(VolumetricRow(width, depth, metric, float(value)))
    shape_value = VolumetricShape(shape).value
    return VolumetricTable(shape_value, rows, shots, stream.as_record())


# -- randomized benchmarking ------------------------------------------------------

@dataclass
class RbResult:
    n_qubits: int
    lengths: list[int]
    survivals: list[list[float]]
    shots: int
    seeds: dict
    survival_means: list[float] = field(init=False)
    amplitude: float = field(init=False)
    decay: float = field(init=False)
    offset: float = field(init=False)
    error_per_clifford: float = field(init=False)
    fit_residual: float = field(init=False)

    def __post_init__(self):
        self.survival_means = [float(np.mean(s)) for s in self.survivals]
        self.amplitude, self.decay, self.offset, self.fit_residual = fit_rb_decay(
            self.lengths, self.survival_means, self.n_qubits)
        dim = 1 << self.n_qubits
        self.error_per_clifford = (dim - 1) * (1.0 - self.decay) / dim

    def to_record(self) -> dict:
        return {
            "protocol": "rb",
            "config": {"n_qubits": self.n_qubits, "lengths": self.lengths, "shots": self.shots},
            "seeds": self.seeds,
            "items": [{"length": m, "survivals": s, "mean": mu}
                      for m, s, mu in zip(self.lengths, self.survivals, self.survival_means)],
            "aggregate": {"amplitude": self.amplitude, "decay": self.decay,
                          "offset": self.offset,
                          "error_per_clifford": self.error_per_clifford,
                          "fit_residual": self.fit_residual},
        }

    @classmethod
    def from_record(cls, record: dict) -> "RbResult":
        items, config = record["items"], record["config"]
        return cls(config["n_qubits"], [it["length"] for it in items],
                   [it["survivals"] for it in items], config["shots"], record["seeds"])


#: Levenberg-Marquardt limits of the RB fit: steps taken, and damping before a step is given up
_FIT_MAX_STEPS = 1000
_FIT_MAX_DAMPING = 1e16


def fit_rb_decay(lengths: list[int], survival_means: list[float],
                 n_qubits: int) -> tuple[float, float, float, float]:
    """(A, p, B, residual) least-squares fit of F(m) = A p^m + B in the box [0, 1]^3.

    A local Levenberg-Marquardt search (More, LNM 630 (1978)) from A = 1 - 1/2^n,
    p = 0.99, B = 1/2^n. Each step is clipped into the box, and a parameter
    that sits at a bound with its gradient pointing out of the box is held
    there for that step. The search stops when a step lowers the squared
    residual by a relative 1e-15 or less, or when no step lowers it.
    """
    dim = 1 << n_qubits
    m = np.asarray(lengths, dtype=float)
    y = np.asarray(survival_means, dtype=float)
    theta = np.array([1.0 - 1.0 / dim, 0.99, 1.0 / dim])

    def residuals(t: np.ndarray) -> np.ndarray:
        return t[0] * t[1] ** m + t[2] - y

    r = residuals(theta)
    cost = float(r @ r)
    damping = 0.1
    for _ in range(_FIT_MAX_STEPS):
        amplitude, decay, _ = theta
        jac = np.stack([decay ** m, amplitude * m * decay ** np.maximum(m - 1, 0),
                        np.ones_like(m)], axis=1)
        grad = jac.T @ r
        free = ~(((theta <= 0.0) & (grad > 0)) | ((theta >= 1.0) & (grad < 0)))
        if cost == 0.0 or not free.any():
            break
        jf, gf = jac[:, free], grad[free]
        normal = jf.T @ jf
        while damping <= _FIT_MAX_DAMPING:
            trial = theta.copy()
            trial[free] = np.clip(
                theta[free] - np.linalg.solve(normal + damping * np.eye(len(gf)), gf), 0.0, 1.0)
            r_trial = residuals(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                break
            damping *= 10.0
        else:
            break  # no step lowers the residual: a minimum within rounding
        converged = cost - cost_trial <= 1e-15 * cost
        theta, r, cost = trial, r_trial, cost_trial
        damping = max(damping / 10.0, 1e-12)
        if converged:
            break
    residual = float(np.sqrt(np.mean(r ** 2)))
    return float(theta[0]), float(theta[1]), float(theta[2]), residual


def run_rb(device: DeviceModel, noise: NoiseModel | None, n_qubits: int,
           lengths: list[int], sequences_per_length: int, shots: int,
           stream: SeedStream) -> RbResult:
    """Standard randomized benchmarking on 1 or 2 qubits.

    Each sampled Clifford element counts as one noisy unit with the noise
    model's per-element depolarizing rate; the closing element is the exact
    group inverse of the sequence, so the noiseless survival is 1. Each
    sequence runs on the statevector trajectory engine as a plan of one op per
    element, each with one site at that rate, so errors, outcome picks and
    readout flips follow the channel and draw layout of `qbench.noise`, and
    drift shifts the readout rates as well as the element rate.
    """
    if n_qubits not in (1, 2):
        raise ValidationError("randomized benchmarking supports 1 or 2 qubits")
    if len(set(lengths)) < 2:
        raise ValidationError("need at least 2 distinct sequence lengths to fit a decay")
    group = clifford_group(n_qubits)
    qubits = tuple(range(n_qubits))
    noise = noise if noise is not None else NoiseModel()
    rate = noise.element_error(n_qubits)
    offsets = noise.shot_offsets(shots)
    sites = [(qubits, rate)] if can_fire(rate, offsets) else []

    survivals: list[list[float]] = []
    for li, m in enumerate(lengths):
        per_seq = []
        for s in range(sequences_per_length):
            rng = stream.child(li, s).generator()
            indices = [int(i) for i in rng.integers(0, len(group), size=m)]
            gates = tuple(g for idx in indices for g in group.elements[idx].gates)
            plan = [(qubits, group.unitary(i), sites)
                    for i in indices + [group.inverse_index(gates)]]
            outcomes = _sample_plan(plan, n_qubits, shots, noise, offsets, qubits, rng)
            per_seq.append(float(np.mean(outcomes == 0)))
        survivals.append(per_seq)
    return RbResult(n_qubits, list(lengths), survivals, shots, stream.as_record())


# -- mirror benchmarking -----------------------------------------------------------


@dataclass
class MirrorRecord:
    width: int
    depth: int
    success: float
    expected: str
    polarization: float = field(init=False)

    def __post_init__(self):
        floor = 1.0 / (1 << self.width)
        self.polarization = (self.success - floor) / (1.0 - floor)


@dataclass
class MirrorResult:
    records: list[MirrorRecord]
    shots: int
    seeds: dict
    mean_success: float = field(init=False)
    mean_polarization: float = field(init=False)

    def __post_init__(self):
        self.mean_success = float(np.mean([r.success for r in self.records]))
        self.mean_polarization = float(np.mean([r.polarization for r in self.records]))

    def to_record(self) -> dict:
        return {
            "protocol": "mirror",
            "config": {"shots": self.shots},
            "seeds": self.seeds,
            "items": [asdict(r) for r in self.records],
            "aggregate": {"mean_success": self.mean_success,
                          "mean_polarization": self.mean_polarization},
        }

    @classmethod
    def from_record(cls, record: dict) -> "MirrorResult":
        return cls([_from_json(MirrorRecord, it) for it in record["items"]],
                   record["config"]["shots"], record["seeds"])


def run_mirror_benchmark(device: DeviceModel, noise: NoiseModel | None,
                         base_widths: list[int], base_depths: list[int],
                         randomizations_per_base: int, shots: int,
                         stream: SeedStream) -> MirrorResult:
    """Mirror-circuit success probabilities on the tableau simulator.

    Runs entirely on the stabilizer path, so widths far beyond the dense cap
    are legal; the noiseless success probability is exactly 1.
    """
    records = []
    for width in base_widths:
        if width > device.n_qubits:
            raise ValidationError(f"base width {width} exceeds the device ({device.n_qubits})")
        for depth in base_depths:
            for r in range(randomizations_per_base):
                item = stream.child(width, depth, r)
                base = random_clifford_circuit(width, depth, item.child(0))
                spec = make_mirror_circuit(base, item.child(1))
                samples = stabilizer_sample(spec.circuit, shots, item.child(2).generator(),
                                            noise=noise)
                success = samples.counts.get(spec.expected, 0) / shots
                records.append(MirrorRecord(width, depth, success, spec.expected))
    return MirrorResult(records, shots, stream.as_record())


# -- CLOPS -------------------------------------------------------------------------


@dataclass
class ClopsResult:
    width: int
    layers_executed: int
    elapsed_seconds: float
    shots: int
    batch: int
    host_relative: bool
    seeds: dict
    layers_per_second: float = field(init=False)

    def __post_init__(self):
        self.layers_per_second = self.layers_executed / self.elapsed_seconds

    def to_record(self) -> dict:
        return {
            "protocol": "clops",
            "config": {"width": self.width, "shots": self.shots, "batch": self.batch,
                       "host_relative": self.host_relative},
            "seeds": self.seeds,
            "items": [],
            "aggregate": {"layers_executed": self.layers_executed,
                          "elapsed_seconds": self.elapsed_seconds,
                          "layers_per_second": self.layers_per_second},
        }

    @classmethod
    def from_record(cls, record: dict) -> "ClopsResult":
        config, agg = record["config"], record["aggregate"]
        return cls(config["width"], agg["layers_executed"], agg["elapsed_seconds"],
                   config["shots"], config["batch"], config["host_relative"], record["seeds"])


def run_clops(device: DeviceModel, noise: NoiseModel | None, width: int,
              layers_total: int, batch: int, stream: SeedStream, shots: int = 100,
              transpile: TranspileConfig | None = None) -> ClopsResult:
    """Model-circuit layers per second, wall clock, including generation,
    transpilation, execution, and readout. The number benchmarks this host's
    simulator, so results are only comparable on equal machines."""
    if layers_total < 1 or batch < 1:
        raise ValidationError("need layers_total >= 1 and batch >= 1")
    executed = 0
    k = 0
    start = time.perf_counter()
    while executed < layers_total:
        for _ in range(batch):
            if executed >= layers_total:
                break
            item = stream.child(k)
            circuit = qv_model_circuit(width, item.child(0))
            _execute(circuit, device, noise, shots, item.child(1).generator(), transpile)
            executed += circuit.depth
            k += 1
    elapsed = time.perf_counter() - start
    return ClopsResult(width, executed, elapsed, shots, batch, True, stream.as_record())


# -- classical shadows ---------------------------------------------------------------


@dataclass
class ShadowEstimate:
    observable: str
    estimate: float
    snapshots: int
    variance_bound: float = field(init=False)

    def __post_init__(self):
        letters = self.observable.lstrip("+-")
        self.variance_bound = (3.0 ** (len(letters) - letters.count("I"))) / self.snapshots


@dataclass
class ShadowsResult:
    prep: str
    width: int
    snapshots: int
    estimates: list[ShadowEstimate]
    seeds: dict

    def to_record(self) -> dict:
        return {
            "protocol": "shadows",
            "config": {"prep": self.prep, "width": self.width, "snapshots": self.snapshots},
            "seeds": self.seeds,
            "items": [asdict(e) for e in self.estimates],
            "aggregate": {"estimates": {e.observable: e.estimate for e in self.estimates}},
        }

    @classmethod
    def from_record(cls, record: dict) -> "ShadowsResult":
        config = record["config"]
        return cls(config["prep"], config["width"], config["snapshots"],
                   [_from_json(ShadowEstimate, it) for it in record["items"]], record["seeds"])


#: per measured basis (0 = X, 1 = Y), the 2x2 unitary that rotates it onto Z
_TO_Z = (gate_unitary(H(0)), gate_unitary(H(0)) @ gate_unitary(Sdg(0)))


def shadow_estimate(prep: Circuit, observables: list[PauliString], snapshots: int,
                    stream: SeedStream) -> list[ShadowEstimate]:
    """Classical-shadow estimates of Pauli observables on the state prep|0...0>.

    Each snapshot measures every qubit in a uniformly random Pauli basis
    (Huang, Kueng and Preskill, Nat. Phys. 16, 1050 (2020)): it draws its n
    bases with one `rng.integers(0, 3, n)`, rotates its X and Y qubits onto Z,
    and picks its outcome with one `_sample_rows` draw. The inverse channel
    scores a snapshot 3 times the measured +-1 eigenvalue per non-identity
    letter if every such letter's basis was measured, else 0. This is the
    random 1q Clifford estimator's distribution, since such a Clifford sends Z
    to +-P with P uniform over X, Y, Z. The variance bound is 3^weight / snapshots.
    """
    if snapshots < 1:
        raise ValidationError("need at least one snapshot")
    if not observables:
        raise ValidationError("need at least one observable")
    if any(g.kind is GateKind.MEASURE for g in prep.all_gates()):
        raise ValidationError("the preparation circuit must be measurement-free")
    n = prep.n_qubits
    for obs in observables:
        if obs.n_qubits != n:
            raise ValidationError("observable width does not match the preparation circuit")
    psi = run_statevector(prep).amps.reshape((1,) + (2,) * n)
    rng = stream.generator()
    bases = np.empty((snapshots, n), dtype=np.int64)
    outcomes = np.empty(snapshots, dtype=np.int64)
    for s in range(snapshots):
        bases[s] = rng.integers(0, 3, size=n)
        state = psi
        for q in np.flatnonzero(bases[s] < 2):
            state = apply_unitary(state, _TO_Z[bases[s, q]], (int(q),))
        outcomes[s] = _sample_rows(np.abs(state.reshape(1, -1)) ** 2, np.zeros(1, np.intp), rng)[0]
    eigen = 1 - 2 * ((outcomes[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    letters = np.array([["XYZI".index(p) for p in obs.letters] for obs in observables])
    factors = np.where(bases[:, None] == letters, 3 * eigen[:, None], 0)
    values = np.where(letters == 3, 1, factors).prod(axis=2)
    signs = np.array([obs.sign for obs in observables])
    return [ShadowEstimate(str(obs), float(est), snapshots)
            for obs, est in zip(observables, signs * values.mean(axis=0))]


# -- collision test ------------------------------------------------------------------


@dataclass
class CollisionTestResult:
    n_qubits: int
    shots: int
    stats: CollisionStats
    seeds: dict
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.stats.delta_hat >= 0.5

    def to_record(self) -> dict:
        return {
            "protocol": "collision",
            "config": {"n_qubits": self.n_qubits, "shots": self.shots},
            "seeds": self.seeds,
            "items": [self.stats.to_json()],
            "aggregate": {"delta_hat": self.stats.delta_hat, "passed": self.passed},
        }

    @classmethod
    def from_record(cls, record: dict) -> "CollisionTestResult":
        st, config = record["items"][0], record["config"]
        collisions = st["shots"] - st["distinct"]
        stats = CollisionStats(st["shots"], st["n_outcomes"], st["distinct"], collisions,
                               collision_delta(collisions, st["shots"], st["n_outcomes"]))
        return cls(config["n_qubits"], config["shots"], stats, record["seeds"])


def collision_shots(n_qubits: int) -> int:
    """The 2^(n/2 + 5) sample-size rule."""
    return int(round(2.0 ** (n_qubits / 2.0 + 5)))


def run_collision_test(device: DeviceModel, noise: NoiseModel | None, n_qubits: int,
                       stream: SeedStream, transpile: TranspileConfig | None = None
                       ) -> CollisionTestResult:
    """Collision-volume test on a fresh random model circuit; pass iff
    delta_hat >= 1/2 with the prescribed 2^(n/2+5) shot budget."""
    shots = collision_shots(n_qubits)
    circuit = layered_model_circuit(n_qubits, n_qubits, stream.child(0))
    samples = _execute(circuit, device, noise, shots, stream.child(1).generator(), transpile)
    return CollisionTestResult(n_qubits, shots, collision_volume(samples), stream.as_record())


# -- XEB device verification ----------------------------------------------------------


@dataclass
class XebVerifyResult:
    n_qubits: int
    alphas: list[float]
    threshold: float
    shots: int
    seeds: dict
    alpha_mean: float = field(init=False)
    stderr: float = field(init=False)
    verified: bool = field(init=False)

    def __post_init__(self):
        self.alpha_mean = float(np.mean(self.alphas))
        self.stderr = float(np.std(self.alphas, ddof=1) / math.sqrt(len(self.alphas))) \
            if len(self.alphas) > 1 else 1.0 / math.sqrt(self.shots)
        self.verified = self.alpha_mean >= self.threshold

    def to_record(self) -> dict:
        return {
            "protocol": "xeb_verify",
            "config": {"n_qubits": self.n_qubits, "shots": self.shots,
                       "threshold": self.threshold},
            "seeds": self.seeds,
            "items": [{"alpha_tilde": a} for a in self.alphas],
            "aggregate": {"alpha_mean": self.alpha_mean, "stderr": self.stderr,
                          "verified": self.verified},
        }

    @classmethod
    def from_record(cls, record: dict) -> "XebVerifyResult":
        config = record["config"]
        return cls(config["n_qubits"], [it["alpha_tilde"] for it in record["items"]],
                   config["threshold"], config["shots"], record["seeds"])


def default_verification_width(device: DeviceModel) -> int:
    """XEB verification width when none is given: the largest even width up to
    min(6, the largest component's size), or 1 on a device of lone qubits.

    Layered model circuits of odd width can leave outcomes of ideal
    probability zero, and XEB diverges on those.
    """
    comp = device.connected_components()
    size = len(comp[0]) if comp else 1
    return size if size < 2 else min(6, size) // 2 * 2


def xeb_verify_device(device: DeviceModel, noise: NoiseModel | None, n_qubits: int,
                      circuits: int, shots: int, stream: SeedStream,
                      threshold: float = 0.9) -> XebVerifyResult:
    """Cross-entropy verification gate: mean alpha over fresh random circuits
    must reach the threshold before a benchmark run proceeds."""
    if circuits < 1:
        raise ValidationError("need at least one verification circuit")
    alphas = []
    for k in range(circuits):
        item = stream.child(k)
        circuit = layered_model_circuit(n_qubits, n_qubits, item.child(0))
        p_ideal = ideal_distribution(circuit)
        samples = _execute(circuit, device, noise, shots, item.child(1).generator())
        alphas.append(float(xeb_alpha(samples, p_ideal).alpha_tilde))
    return XebVerifyResult(n_qubits, alphas, threshold, shots, stream.as_record())
