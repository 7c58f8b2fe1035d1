"""Seeded generation of Haar unitaries, model circuits, Cliffords, and mirrors.

Circuit-producing generators take a SeedStream (not a bare numpy generator)
so that the stream identity can be stamped into the circuit metadata and
replayed later from a report's seed ledger.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuits import (
    CX, CZ, Circuit, Gate, H, Measure, PauliString, S, Sdg, SWAP, U2Q, X, Y, Z,
    inverse_circuit, is_clifford_circuit,
)
from .cliffords import clifford_group
from .errors import NonCliffordError, ValidationError
from .rng import SeedStream
# deterministic_outcome is not called here, but bench/tracing.py wraps this binding.
from .stabilizer import _push_frame, deterministic_outcome  # noqa: F401

HAAR_DIMS = (2, 4, 8, 16)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R diagonal is phase-normalized so the distribution is exactly Haar
    rather than merely unitary.
    """
    if dim not in HAAR_DIMS:
        raise ValidationError(f"haar sampling supports dims {HAAR_DIMS}, not {dim}")
    return _haar_stack(dim, 1, rng)[0]


def _haar_stack(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Haar unitaries from one draw and one stacked QR; the stream is
    read as by `count` successive `haar_unitary` calls, each taking its real
    and then its imaginary part, and the bits are the same."""
    normal = rng.normal(size=(count, 2, dim, dim))
    q, r = np.linalg.qr(normal[:, 0] + 1j * normal[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _qv_layers(width: int, depth: int, rng: np.random.Generator) -> tuple[tuple[Gate, ...], ...]:
    """Model-circuit layers: random qubit pairing + Haar 2q unitary per pair."""
    layers = []
    for _ in range(depth):
        perm = rng.permutation(width).tolist()
        unitaries = _haar_stack(4, width // 2, rng)
        layers.append(tuple(U2Q(perm[2 * k], perm[2 * k + 1], u) for k, u in enumerate(unitaries)))
    return tuple(layers)


def qv_model_circuit(width: int, stream: SeedStream) -> Circuit:
    """Square model circuit: `width` layers of paired Haar 2q gates; odd qubit idles."""
    if width < 2:
        raise ValidationError("model circuits need width >= 2")
    layers = _qv_layers(width, width, stream.generator())
    return Circuit(width, layers, {"family": "qv-model", "stream": stream.as_record()})


def layered_model_circuit(width: int, depth: int, stream: SeedStream) -> Circuit:
    """Model circuit with independently chosen depth (volumetric grids)."""
    if width < 2 or depth < 1:
        raise ValidationError("need width >= 2 and depth >= 1")
    layers = _qv_layers(width, depth, stream.generator())
    return Circuit(width, layers, {"family": "layered-model", "stream": stream.as_record()})


_CLIFFORD_1Q = (H, S, Sdg, X, Y, Z)
_CLIFFORD_2Q = (CX, CZ, SWAP)


def random_clifford_circuit(n_qubits: int, depth: int, stream: SeedStream) -> Circuit:
    """Random layered circuit over {H, S, Sdg, X, Y, Z, CX, CZ, SWAP}."""
    if n_qubits < 1 or depth < 1:
        raise ValidationError("need n >= 1 and depth >= 1")
    rng = stream.generator()
    layers = []
    for _ in range(depth):
        perm = list(rng.permutation(n_qubits))
        layer = []
        while perm:
            if len(perm) >= 2 and rng.random() < 0.5:
                a, b = int(perm.pop()), int(perm.pop())
                kind = _CLIFFORD_2Q[int(rng.integers(0, len(_CLIFFORD_2Q)))]
                layer.append(kind(a, b))
            else:
                q = int(perm.pop())
                kind = _CLIFFORD_1Q[int(rng.integers(0, len(_CLIFFORD_1Q)))]
                layer.append(kind(q))
        layers.append(tuple(layer))
    return Circuit(n_qubits, tuple(layers),
                   {"family": "random-clifford", "stream": stream.as_record()})


def sample_clifford_element(n_qubits: int, stream: SeedStream) -> Circuit:
    """Uniformly random 1q (24 elements) or 2q (11520 elements) Clifford element."""
    if n_qubits not in (1, 2):
        raise ValidationError("clifford element sampling supports 1 or 2 qubits")
    group = clifford_group(n_qubits)
    element = group.sample(stream.generator())
    return Circuit.from_gates(
        n_qubits, element.gates,
        metadata={"family": "clifford-element", "clifford_index": element.index,
                  "stream": stream.as_record()})


_PREP_GATES = {"Z": (), "X": ("h",), "Y": ("h", "s")}
_RESTORE_GATES = {"Z": (), "X": ("h",), "Y": ("sdg", "h")}
_GATE_BY_NAME = {"h": H, "s": S, "sdg": Sdg}


@dataclass(frozen=True)
class MirrorSpec:
    """A mirror wrapper around a Clifford base circuit with its known outcome."""

    base: Circuit
    prep: tuple[tuple[str, int], ...]  # per qubit: (basis letter, flip bit)
    pauli: PauliString
    expected: str
    circuit: Circuit


def make_mirror_circuit(base: Circuit, stream: SeedStream) -> MirrorSpec:
    """Wrap a Clifford base circuit: random Pauli-eigenstate prep, base, random
    Pauli layer, inverted base, basis restore, measurement.

    The expected bitstring is fixed by the construction (Proctor et al., PRL
    129, 150502 (2022)): the inverted base and the restore layer undo the base
    and the basis prep, so bit q is flip q xor the X bit on q of the Pauli layer
    conjugated through them, which the frame rules give without simulating a
    state. The noiseless success probability of the full circuit is 1.
    """
    if not is_clifford_circuit(base, allow_measure=False):
        raise NonCliffordError("mirror bases must be Clifford-only and measurement-free")
    n = base.n_qubits
    rng = stream.generator()
    bases = [("Z", "X", "Y")[int(rng.integers(0, 3))] for _ in range(n)]
    flips = [int(rng.integers(0, 2)) for _ in range(n)]
    letters = "".join("IXYZ"[int(rng.integers(0, 4))] for _ in range(n))
    pauli = PauliString(n, letters)

    prep_gates: list[Gate] = [X(q) for q in range(n) if flips[q]]
    for name_idx in range(2):
        for q in range(n):
            seq = _PREP_GATES[bases[q]]
            if len(seq) > name_idx:
                prep_gates.append(_GATE_BY_NAME[seq[name_idx]](q))
    restore_gates: list[Gate] = []
    for name_idx in range(2):
        for q in range(n):
            seq = _RESTORE_GATES[bases[q]]
            if len(seq) > name_idx:
                restore_gates.append(_GATE_BY_NAME[seq[name_idx]](q))

    inverse = inverse_circuit(base)
    x = np.array([[p in "XY"] for p in letters], dtype=np.uint8)
    z = np.array([[p in "YZ"] for p in letters], dtype=np.uint8)
    for g in (*inverse.all_gates(), *restore_gates):
        _push_frame(x, z, g)
    expected = "".join(str(f ^ int(b)) for f, b in zip(flips, x[:, 0]))

    prep_layers = Circuit.from_gates(n, prep_gates).layers
    restore_layers = Circuit.from_gates(n, restore_gates).layers
    measure_layer = (tuple(Measure(q, q) for q in range(n)),)
    layers = (
        prep_layers + base.layers + ((pauli.as_gate(),),)
        + inverse.layers + restore_layers + measure_layer
    )
    full = Circuit(n, layers, {"family": "mirror", "stream": stream.as_record(),
                               "base": dict(base.metadata)})
    return MirrorSpec(base=base, prep=tuple(zip(bases, flips)), pauli=pauli,
                      expected=expected, circuit=full)


class VolumetricShape(str, Enum):
    SQUARE = "square"
    SHALLOW = "shallow"
    DEEP = "deep"
    AQ = "aq"


def volumetric_depth(shape: VolumetricShape, width: int) -> int:
    if shape is VolumetricShape.SQUARE:
        return width
    if shape is VolumetricShape.SHALLOW:
        return int(math.ceil(math.log2(width))) + 1 if width > 1 else 1
    if shape is VolumetricShape.DEEP:
        return 4 * width
    return width * width


def volumetric_family(shape: VolumetricShape | str, widths: list[int],
                      stream: SeedStream) -> list[tuple[int, int, Circuit]]:
    """(width, depth, circuit) triples for one volumetric class."""
    if not widths:
        raise ValidationError("widths must be nonempty")
    shape = VolumetricShape(shape)
    out = []
    for k, w in enumerate(widths):
        depth = volumetric_depth(shape, w)
        circuit = layered_model_circuit(w, depth, stream.child(k))
        out.append((w, depth, circuit.with_metadata(family=f"volumetric-{shape.value}")))
    return out
