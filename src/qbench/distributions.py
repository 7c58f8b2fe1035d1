"""Exact output distributions and measured sample sets."""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ValidationError

NORM_TOL = 1e-9

# Dense JSON serialization is refused above this width (2^20 entries).
SERIALIZE_WIDTH_CAP = 20


def index_to_bits(index: int, n_bits: int) -> str:
    return format(index, f"0{n_bits}b")


def bits_to_index(bits: str) -> int:
    return int(bits, 2)


@dataclass(frozen=True)
class ProbDist:
    """Probability distribution over all 2^n bitstrings, bit 0 most significant."""

    n_bits: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (1 << self.n_bits,):
            raise ValidationError(f"expected {1 << self.n_bits} entries, got {p.shape}")
        if np.any(p < -1e-12):
            raise ValidationError("negative probability")
        p = np.clip(p, 0.0, None)
        if abs(float(p.sum()) - 1.0) > NORM_TOL:
            raise ValidationError(f"probabilities sum to {p.sum()}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, n_bits: int) -> "ProbDist":
        n = 1 << n_bits
        return cls(n_bits, np.full(n, 1.0 / n))

    def prob_of(self, bits: str) -> float:
        return float(self.probs[bits_to_index(bits)])

    def to_json(self) -> list[float]:
        if self.n_bits > SERIALIZE_WIDTH_CAP:
            raise ValidationError(
                f"refusing to serialize a dense distribution over {self.n_bits} bits "
                f"(cap {SERIALIZE_WIDTH_CAP})"
            )
        return [float(x) for x in self.probs]

    @classmethod
    def from_json(cls, values: list[float]) -> "ProbDist":
        n = len(values)
        n_bits = n.bit_length() - 1
        if 1 << n_bits != n:
            raise ValidationError("distribution length must be a power of two")
        return cls(n_bits, np.asarray(values, dtype=float))


@dataclass(frozen=True)
class SampleSet:
    """Multiset of measured bitstrings with total shot count."""

    n_bits: int
    counts: Mapping[str, int]
    shots: int = field(default=0)

    def __post_init__(self):
        # Every key and count is checked in one pass; only a failing set is
        # scanned key by key, to raise on the first bad entry.
        try:
            values = list(map(int, self.counts.values()))
            valid = set(map(len, self.counts)) <= {self.n_bits} \
                and set("".join(self.counts)) <= {"0", "1"} and min(values, default=1) > 0
        except (TypeError, ValueError):
            valid = False
        if not valid:
            for bits, c in self.counts.items():
                c = int(c)
                if len(bits) != self.n_bits or any(ch not in "01" for ch in bits):
                    raise ValidationError(f"bad bitstring key {bits!r} for {self.n_bits} bits")
                if c <= 0:
                    raise ValidationError("counts must be positive")
        counts = dict(zip(self.counts, values))
        total = sum(values)
        shots = self.shots or total
        if total != shots:
            raise ValidationError(f"counts sum to {total}, declared shots {shots}")
        object.__setattr__(self, "counts", MappingProxyType(counts))
        object.__setattr__(self, "shots", shots)

    @classmethod
    def from_indices(cls, indices: np.ndarray, n_bits: int) -> "SampleSet":
        values, freq = np.unique(np.asarray(indices, dtype=np.int64), return_counts=True)
        if 0 < n_bits < 64 and (not values.size or (values[0] >= 0 and values[-1] >> n_bits == 0)):
            # Each index's low n_bits bits, high bit first, as '0'/'1' bytes viewed as one string.
            bits = np.unpackbits(values.astype(">i8").view(np.uint8).reshape(-1, 8), axis=1)
            keys = (bits[:, 64 - n_bits:] + ord("0")).view(f"S{n_bits}").ravel().astype(str).tolist()
        else:  # out-of-range indices keep their over-long keys, which validation rejects
            keys = [index_to_bits(int(v), n_bits) for v in values]
        return cls(n_bits, dict(zip(keys, freq.tolist())))

    def index_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, counts) arrays sorted by index."""
        items = sorted((bits_to_index(b), c) for b, c in self.counts.items())
        idx = np.array([i for i, _ in items], dtype=np.int64)
        cnt = np.array([c for _, c in items], dtype=np.int64)
        return idx, cnt

    def empirical(self) -> ProbDist:
        p = np.zeros(1 << self.n_bits)
        for bits, c in self.counts.items():
            p[bits_to_index(bits)] = c / self.shots
        return ProbDist(self.n_bits, p)

    def merge(self, other: "SampleSet") -> "SampleSet":
        if other.n_bits != self.n_bits:
            raise ValidationError("cannot merge sample sets of different widths")
        counts = dict(self.counts)
        for bits, c in other.counts.items():
            counts[bits] = counts.get(bits, 0) + c
        return SampleSet(self.n_bits, counts)

    def to_json(self) -> dict[str, int]:
        return {bits: int(c) for bits, c in sorted(self.counts.items())}

    @classmethod
    def from_json(cls, doc: Mapping[str, int], n_bits: int | None = None) -> "SampleSet":
        if n_bits is None:
            if not doc:
                raise ValidationError("cannot infer width of an empty sample set")
            n_bits = len(next(iter(doc)))
        return cls(n_bits, dict(doc))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self.n_bits == other.n_bits and dict(self.counts) == dict(other.counts)
