"""Exact output distributions and measured sample sets."""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ValidationError

NORM_TOL = 1e-9

# Dense JSON serialization is refused above this width (2^20 entries).
SERIALIZE_WIDTH_CAP = 20
INDEX_WIDTH_CAP = 62  # `SampleSet.indices` are int64


def index_to_bits(index: int, n_bits: int) -> str:
    return format(index, f"0{n_bits}b")


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


class SampleSet:
    """Multiset of measured bitstrings with total shot count, held as arrays.

    `keys` holds the distinct outcomes in ascending order, each as n_bits
    '0'/'1' bytes (dtype `S{n_bits}`, bit 0 first), so any width fits; `freq`
    holds their int64 counts. Bitstrings as `str` exist only at the boundary:
    the checked constructor, `counts`, and JSON.
    """

    __slots__ = ("n_bits", "keys", "freq", "shots")

    def __init__(self, n_bits: int, counts: Mapping[str, int], shots: int = 0):
        # Every key and count is checked in one pass; only a failing set is
        # scanned key by key, to raise on the first bad entry.
        try:
            values = list(map(int, counts.values()))
            valid = set(map(len, counts)) <= {n_bits} \
                and set("".join(counts)) <= {"0", "1"} and min(values, default=1) > 0
        except (TypeError, ValueError):
            valid = False
        if not valid:
            for bits, c in counts.items():
                c = int(c)
                if len(bits) != n_bits or any(ch not in "01" for ch in bits):
                    raise ValidationError(f"bad bitstring key {bits!r} for {n_bits} bits")
                if c <= 0:
                    raise ValidationError("counts must be positive")
        total = sum(values)
        if total != (shots or total):
            raise ValidationError(f"counts sum to {total}, declared shots {shots}")
        keys = np.array(list(counts), dtype=f"S{n_bits}")
        order = np.argsort(keys)
        self._store(n_bits, keys[order], np.array(values, dtype=np.int64)[order])

    def _store(self, n_bits: int, keys: np.ndarray, freq: np.ndarray) -> None:
        keys.setflags(write=False)
        freq.setflags(write=False)
        self.n_bits, self.keys, self.freq, self.shots = n_bits, keys, freq, int(freq.sum())

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "SampleSet":
        """The outcomes of a (shots, n_bits) uint8 array of 0/1 bits, one row per shot."""
        chars = np.ascontiguousarray(rows + np.uint8(ord("0")))
        keys, freq = np.unique(chars.view(f"S{rows.shape[1]}").ravel(), return_counts=True)
        samples = cls.__new__(cls)
        samples._store(rows.shape[1], keys, freq.astype(np.int64, copy=False))
        return samples

    @property
    def counts(self) -> Mapping[str, int]:
        """Read-only {bitstring: count}, built on each access."""
        return MappingProxyType(self.to_json())

    def indices(self) -> np.ndarray:
        """Each of `keys` as an int64 index, bit 0 most significant: ascending."""
        if self.n_bits > INDEX_WIDTH_CAP:
            raise ValidationError(f"{self.n_bits}-bit outcomes have no index (cap {INDEX_WIDTH_CAP})")
        bits = self.keys.view(np.uint8).reshape(len(self.keys), self.n_bits) - np.uint8(ord("0"))
        return bits @ (1 << np.arange(self.n_bits - 1, -1, -1, dtype=np.int64))

    def empirical(self) -> ProbDist:
        p = np.zeros(1 << self.n_bits)
        p[self.indices()] = self.freq / self.shots
        return ProbDist(self.n_bits, p)

    def merge(self, other: "SampleSet") -> "SampleSet":
        if other.n_bits != self.n_bits:
            raise ValidationError("cannot merge sample sets of different widths")
        counts = self.to_json()
        for bits, c in other.counts.items():
            counts[bits] = counts.get(bits, 0) + c
        return SampleSet(self.n_bits, counts)

    def to_json(self) -> dict[str, int]:
        return dict(zip(self.keys.astype(str).tolist(), self.freq.tolist()))

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
        return self.n_bits == other.n_bits and np.array_equal(self.keys, other.keys) \
            and np.array_equal(self.freq, other.freq)

    def __repr__(self) -> str:
        return f"SampleSet({self.n_bits}, {self.to_json()})"
