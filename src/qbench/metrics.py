"""Scalar metric computations: distribution comparisons, collision volume,
EPLG, static device metrics, shot budgeting, and the shipped metric taxonomy."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .device import DeviceModel
from .distributions import ProbDist, SampleSet, index_to_bits
from .errors import DegenerateInputError, ValidationError


# -- metric taxonomy ----------------------------------------------------------

class Attr(str, Enum):
    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class MetricDescriptor:
    """Qualitative attribute flags and performance class of a shipped metric."""

    name: str
    practical: Attr
    repeatable: Attr
    reliable: Attr
    linear: Attr
    consistent: Attr
    performance: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "practical": self.practical.value,
            "repeatable": self.repeatable.value,
            "reliable": self.reliable.value,
            "linear": self.linear.value,
            "consistent": self.consistent.value,
            "performance": list(self.performance),
        }


_Y, _N, _U = Attr.YES, Attr.NO, Attr.UNDETERMINED

METRIC_TABLE: tuple[MetricDescriptor, ...] = (
    MetricDescriptor("working_connected_qubits", _Y, _Y, _Y, _Y, _Y, ("scalability",)),
    MetricDescriptor("processor_connectivity", _Y, _Y, _N, _N, _Y, ("scalability", "speed")),
    MetricDescriptor("gate_fidelity", _Y, _Y, _N, _U, _N, ("quality",)),
    MetricDescriptor("decoherence_times", _Y, _Y, _N, _U, _N, ("quality",)),
    MetricDescriptor("gate_speed", _Y, _Y, _N, _Y, _N, ("speed",)),
    MetricDescriptor("quantum_volume", _N, _N, _N, _N, _Y, ("scalability", "quality")),
    MetricDescriptor("q_score", _Y, _N, _N, _N, _Y, ("scalability", "quality")),
    MetricDescriptor("clops", _N, _N, _Y, _N, _N, ("speed",)),
    MetricDescriptor("algorithmic_qubits", _N, _Y, _N, _N, _Y, ("scalability", "quality")),
    MetricDescriptor("xeb", _N, _Y, _Y, _U, _Y, ("quality",)),
    MetricDescriptor("hellinger_distance", _N, _Y, _Y, _U, _Y, ("quality",)),
    MetricDescriptor("heavy_output_generation", _N, _Y, _Y, _U, _Y, ("quality",)),
    MetricDescriptor("l1_distance", _N, _Y, _Y, _U, _Y, ("quality",)),
    MetricDescriptor("collision_volume", _N, _Y, _Y, _U, _Y, ("quality",)),
)

METRIC_DESCRIPTORS = {d.name: d for d in METRIC_TABLE}


def metric_record(name: str, value: float, stderr: float | None = None) -> dict:
    """Report-embeddable metric result: {name, value, stderr?, descriptor}."""
    record: dict = {"name": name, "value": float(value)}
    if stderr is not None:
        record["stderr"] = float(stderr)
    descriptor = METRIC_DESCRIPTORS.get(name)
    if descriptor is not None:
        record["descriptor"] = descriptor.to_json()
    return record


# -- distribution comparison metrics -----------------------------------------

def _check_widths(a_bits: int, b_bits: int) -> None:
    if a_bits != b_bits:
        raise ValidationError(f"width mismatch: {a_bits} vs {b_bits} bits")


def _heavy_mask(p_ideal: ProbDist) -> np.ndarray:
    """Per outcome index, whether it is strictly heavier than the median ideal probability.

    The median of the (even-length) probability list is the mean of its two
    central order statistics; an exactly uniform distribution therefore has
    no heavy outcome.
    """
    p = np.sort(p_ideal.probs)
    n = p.size
    median = 0.5 * (p[n // 2 - 1] + p[n // 2]) if n % 2 == 0 else p[n // 2]
    return p_ideal.probs > median


def heavy_set(p_ideal: ProbDist) -> frozenset[str]:
    """Bitstrings strictly heavier than the median ideal probability (`_heavy_mask`)."""
    return frozenset(index_to_bits(int(i), p_ideal.n_bits)
                     for i in np.flatnonzero(_heavy_mask(p_ideal)))


def hog_probability(p_or_samples: ProbDist | SampleSet, p_ideal: ProbDist) -> float:
    """Probability mass the first argument puts on the ideal heavy set, summed in index order."""
    _check_widths(p_or_samples.n_bits, p_ideal.n_bits)
    heavy = _heavy_mask(p_ideal)
    if isinstance(p_or_samples, SampleSet):
        return int(p_or_samples.freq[heavy[p_or_samples.indices()]].sum()) / p_or_samples.shots
    return float(p_or_samples.probs[heavy].sum())


def hellinger_distance(p: ProbDist, q: ProbDist) -> float:
    """sqrt(1 - Bhattacharyya coefficient); 0 for identical, 1 for disjoint."""
    _check_widths(p.n_bits, q.n_bits)
    bc = float(np.sqrt(p.probs * q.probs).sum())
    return math.sqrt(max(0.0, 1.0 - min(1.0, bc)))


def l1_distance(p: ProbDist, q: ProbDist) -> float:
    """Total absolute difference, in [0, 2]."""
    _check_widths(p.n_bits, q.n_bits)
    return float(np.abs(p.probs - q.probs).sum())


@dataclass(frozen=True)
class XebAlpha:
    alpha_tilde: float
    stderr: float
    shots: int

    def to_json(self) -> dict:
        return {"alpha_tilde": self.alpha_tilde, "stderr": self.stderr, "shots": self.shots}


def xeb_alpha(samples: SampleSet, p_ideal: ProbDist) -> XebAlpha:
    """Cross-entropy difference estimate from samples against the exact ideal.

    alpha = H(uniform, p) - mean_j ln(1 / p(x_j)), natural logarithm, with the
    standard k/sqrt(m) error bar at k = 1. Any sampled bitstring with zero
    ideal probability (or any zero entry in p, which makes the uniform cross
    entropy diverge) is reported as an error rather than clipped.
    """
    _check_widths(samples.n_bits, p_ideal.n_bits)
    p = p_ideal.probs
    if np.any(p <= 0.0):
        raise DegenerateInputError(
            "ideal distribution has zero entries; cross-entropy difference diverges")
    h_cl = -float(np.log(p).mean())
    surprisal = -np.log(p[samples.indices()])
    mean_surprisal = float((surprisal * samples.freq).sum() / samples.shots)
    return XebAlpha(h_cl - mean_surprisal, 1.0 / math.sqrt(samples.shots), samples.shots)


@dataclass(frozen=True)
class CollisionStats:
    shots: int
    n_outcomes: int
    distinct: int
    collisions: int
    delta_hat: float

    def to_json(self) -> dict:
        return {"shots": self.shots, "n_outcomes": self.n_outcomes, "distinct": self.distinct,
                "collisions": self.collisions, "delta_hat": self.delta_hat}


def collision_delta(collisions: int, shots: int, n_outcomes: int) -> float:
    """Normalized collision statistic: 0 for uniform sampling, 1 for sampling
    a typical Haar-random state, in expectation.

    The numerator subtracts the expected uniform collision count m - N(1-e^(-m/N));
    the denominator is the Porter-Thomas excess N^2/(N+m) - N e^(-m/N).
    """
    m = float(shots)
    n = float(n_outcomes)
    expn = math.exp(-m / n)
    numerator = collisions - m + n * (1.0 - expn)
    denominator = n * n / (n + m) - n * expn
    if denominator <= 0:
        raise DegenerateInputError("collision normalization is degenerate for these sizes")
    return numerator / denominator


def collision_volume(samples: SampleSet) -> CollisionStats:
    """Collision statistics of a sample set (needs at least 2 shots)."""
    if samples.shots < 2:
        raise ValidationError("collision volume needs at least 2 shots")
    distinct = len(samples.freq)
    collisions = samples.shots - distinct
    n_outcomes = 1 << samples.n_bits
    delta = collision_delta(collisions, samples.shots, n_outcomes)
    return CollisionStats(samples.shots, n_outcomes, distinct, collisions, delta)


def eplg(layer_fidelity: float, n_two_qubit: int) -> float:
    """Error per layered gate: 1 - LF^(1/n_2q).

    For a linear chain of N qubits the conventional gate count is n_2q = N - 1.
    """
    if not (0.0 < layer_fidelity <= 1.0):
        raise ValidationError("layer fidelity must be in (0, 1]")
    if n_two_qubit < 1:
        raise ValidationError("need at least one two-qubit gate")
    return 1.0 - layer_fidelity ** (1.0 / n_two_qubit)


# -- static device metrics ----------------------------------------------------

def static_device_metrics(device: DeviceModel) -> dict:
    """Graph, fidelity, decoherence, and speed summaries of a device."""
    comps = device.connected_components()
    largest = len(comps[0]) if comps else 0
    adj = device.adjacency()
    degrees = [len(v) for v in adj.values()] or [0]

    n = device.n_qubits
    coupling = np.zeros((n, n))
    for i, j, s in device.working_edges():
        coupling[i, j] = coupling[j, i] = s
    spectral = float(np.linalg.norm(coupling, 2)) if n else 0.0

    fidelities = [1.0 - v for v in device.gate_error.values()] or [1.0]
    durations = list(device.gate_duration.values()) or [0.0]
    t1 = [t for t, w in zip(device.t1, device.working) if w and math.isfinite(t)]
    t2 = [t for t, w in zip(device.t2, device.working) if w and math.isfinite(t)]

    return {
        "working_connected_qubits": largest,
        "degree": {"min": int(min(degrees)), "avg": float(np.mean(degrees)), "max": int(max(degrees))},
        "coupling_spectral_norm": spectral,
        "gate_fidelity": {"min": float(min(fidelities)), "avg": float(np.mean(fidelities)),
                          "max": float(max(fidelities))},
        "t1": {"min": float(min(t1)) if t1 else None, "avg": float(np.mean(t1)) if t1 else None},
        "t2": {"min": float(min(t2)) if t2 else None, "avg": float(np.mean(t2)) if t2 else None},
        "gate_duration": {"min": float(min(durations)), "avg": float(np.mean(durations)),
                          "max": float(max(durations))},
    }


# -- shot budgeting -----------------------------------------------------------

@dataclass(frozen=True)
class ShotPlan:
    target_std: float
    probability: float
    shots: int

    def to_json(self) -> dict:
        return {"target_std": self.target_std, "probability": self.probability, "shots": self.shots}


def shots_for_precision(p: float, delta_p: float) -> ShotPlan:
    """Shots needed so the binomial estimate of p has std <= delta_p.

    Uses the Fisher-information bound for a Bernoulli outcome,
    m = ceil(p(1-p)/delta_p^2).
    """
    if not (0.0 < p < 1.0):
        raise DegenerateInputError("p in {0, 1} has degenerate variance; no finite plan")
    if delta_p <= 0.0:
        raise ValidationError("target precision must be positive")
    m = max(1, math.ceil(p * (1.0 - p) / (delta_p * delta_p)))
    return ShotPlan(delta_p, p, m)
