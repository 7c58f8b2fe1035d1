"""Seeded, splittable random streams.

Every generator in the package is a pure function of its parameters and an
explicit random stream, so repeated runs with the same (seed, path) are
bitwise identical. Streams are identified by a 64-bit master seed plus a
spawn path of integers, which is what gets recorded in seed ledgers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SeedStream:
    """Handle for a deterministic substream of the master seed."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.seed < 0 or any(i < 0 for i in self.path):
            raise ValidationError(f"seeds and stream paths must be non-negative: {self.seed}, {self.path}")

    def child(self, *indices: int) -> "SeedStream":
        """Derive the substream at `path + indices`."""
        return SeedStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator for this stream; identical streams yield identical bytes."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.path)))

    def as_record(self) -> dict:
        return {"seed": int(self.seed), "path": list(self.path)}

    @classmethod
    def from_record(cls, record: dict) -> "SeedStream":
        return cls(int(record["seed"]), tuple(int(i) for i in record.get("path", ())))
