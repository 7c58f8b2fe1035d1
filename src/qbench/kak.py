"""Cartan (KAK) decomposition of two-qubit unitaries and 3-CX synthesis.

Every 4x4 unitary factors as

    U = phase * (k1l x k1r) @ exp(i(a XX + b YY + c ZZ)) @ (k2l x k2r)

with single-qubit k's. `weyl_decompose` finds the factors in the magic (Bell)
basis, where local gates are real orthogonal: with U~ = M^dag U M scaled into
SU(4), the symmetric unitary W = U~^T U~ is diagonalized by a real orthogonal
O, and its eigenphases give (a, b, c). The real and imaginary parts of a
symmetric unitary are commuting real symmetric matrices, so one symmetric
eigensolve of Re W + t Im W diagonalizes both for a generic weight t. A few
fixed weights are tried in turn, and the first O that diagonalizes W to 1e-9
is kept. No eigenvalue-grouping threshold is involved, so inputs with a
degenerate W (CX, SWAP, the identity, ...) and inputs near them decompose
like any other.

`synthesize_two_qubit` emits the canonical factor with the fixed three-CX
circuit of Vatan and Williams (PRA 69, 032315 (2004), arXiv:quant-ph/0308006).
With CX(i->j) controlled by qubit i,

    exp(i(a XX + b YY + c ZZ)) = e^{i pi/4} (Rz(pi/2) x I) CX(1->0)
        (I x Ry(pi/2 - 2b)) CX(0->1) (Rz(pi/2 - 2c) x Ry(2a - pi/2)) CX(1->0)
        (I x Rz(-pi/2))

for every (a, b, c); the outer rotations fold into the Weyl locals. Every
synthesis is verified against its input to 1e-9 before being returned.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuits import CX, Ry, Rz, gate_unitary, pauli_matrix
from .errors import TranspileError

_SQ2 = 1.0 / math.sqrt(2.0)

MAGIC = np.array(
    [[1, 0, 0, 1j],
     [0, 1j, 1, 0],
     [0, 1j, -1, 0],
     [1, 0, 0, -1j]], dtype=complex) * _SQ2

#: XX, YY, ZZ
_PAULI_PAIRS = tuple(np.kron(pauli_matrix(p), pauli_matrix(p)) for p in "XYZ")

# Rows: eigenvalues of (XX, YY, ZZ) on the four magic-basis columns.
_EIG_SIGNS = np.array([
    [float((MAGIC[:, j].conj() @ P @ MAGIC[:, j]).real) for P in _PAULI_PAIRS]
    for j in range(4)
])

#: 4x4 CX keyed by local (control, target), qubit 0 the high bit; gate_unitary
#: gives CX on its own targets, so CX(1->0) swaps the two qubit axes of CX(0->1)
_CX = {(0, 1): gate_unitary(CX(0, 1))}
_CX[1, 0] = _CX[0, 1].reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)

#: weights t for eigh(Re W + t Im W); two distinct eigenvalues of W merge at a
#: single t, so a later weight separates what an unlucky one merges. The order
#: of the eigenvalues sets (a, b, c): the first weight's order puts the Ry
#: angles of the circuit below in [0, pi], where each lowers to one rotation,
#: more often than weights near 0 do (measured on Haar inputs)
_WEIGHTS = (3.7183, -2.6219, 1.8371, -0.4137)


def canonical_matrix(a: float, b: float, c: float) -> np.ndarray:
    """exp(i(a XX + b YY + c ZZ)) from commuting closed forms."""
    out = np.eye(4, dtype=complex)
    for coeff, pp in zip((a, b, c), _PAULI_PAIRS):
        out = (math.cos(coeff) * np.eye(4) + 1j * math.sin(coeff) * pp) @ out
    return out


def _to_su4(u: np.ndarray) -> tuple[np.ndarray, complex]:
    """(U/phase, phase) with det(U/phase) = 1, principal fourth-root branch."""
    det = np.linalg.det(u)
    phase = cmath.exp(1j * cmath.phase(det) / 4) * abs(det) ** 0.25
    return u / phase, phase


def _simultaneously_diagonalize(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real orthogonal O (det +1) with O^T w O diagonal, and that diagonal, for
    symmetric unitary w."""
    for t in _WEIGHTS:
        _, o = np.linalg.eigh(w.real + t * w.imag)
        diag = o.T @ w @ o
        if np.max(np.abs(diag - np.diag(np.diagonal(diag)))) <= 1e-9:
            if np.linalg.det(o) < 0:
                o[:, 0] = -o[:, 0]
            return o, np.diagonal(diag)
    raise TranspileError("failed to diagonalize the magic-basis symmetric form")


def _split_local(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex]:
    """Split an exact tensor product into (k0, k1, phase), k0 and k1 in SU(2)."""
    r = k.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(r)
    if s[1] > 1e-8:
        raise TranspileError("matrix is not a tensor product of single-qubit unitaries")
    k0 = (u[:, 0] * math.sqrt(s[0])).reshape(2, 2)
    k1 = (vh[0, :] * math.sqrt(s[0])).reshape(2, 2)
    d0 = np.linalg.det(k0)
    k0 = k0 / cmath.sqrt(d0)
    d1 = np.linalg.det(k1)
    k1 = k1 / cmath.sqrt(d1)
    rebuilt = np.kron(k0, k1)
    ref = np.unravel_index(np.argmax(np.abs(rebuilt)), rebuilt.shape)
    phase = k[ref] / rebuilt[ref]
    if abs(abs(phase) - 1.0) > 1e-8 or np.max(np.abs(phase * rebuilt - k)) > 1e-8:
        raise TranspileError("tensor-product split failed")
    return k0, k1, phase


@dataclass
class WeylDecomposition:
    """u = phase * (k1l x k1r) @ canonical(a, b, c) @ (k2l x k2r)."""

    k1l: np.ndarray
    k1r: np.ndarray
    coords: tuple[float, float, float]
    k2l: np.ndarray
    k2r: np.ndarray
    phase: complex

    def reconstruct(self) -> np.ndarray:
        return self.phase * np.kron(self.k1l, self.k1r) @ canonical_matrix(*self.coords) \
            @ np.kron(self.k2l, self.k2r)


def weyl_decompose(u: np.ndarray) -> WeylDecomposition:
    """Cartan decomposition of a 4x4 unitary (coordinates not canonicalized)."""
    u = np.asarray(u, dtype=complex)
    u_su, phase0 = _to_su4(u)
    up = MAGIC.conj().T @ u_su @ MAGIC
    w = up.T @ up
    o, d = _simultaneously_diagonalize(w)
    theta = np.angle(d) / 2.0
    p = up @ o @ np.diag(np.exp(-1j * theta))
    if np.max(np.abs(p.imag)) > 1e-8:
        raise TranspileError("left factor of the Cartan decomposition is not real")
    p = p.real.astype(float)
    if np.linalg.det(p) < 0:
        # Flip one half-phase branch by pi; keeps exp(i theta) and realness, fixes det.
        theta[0] += math.pi
        p[:, 0] = -p[:, 0]
    # The sign-pattern matrix spans the zero-sum subspace; normalize sum(theta) to 0.
    theta[0] -= round(float(theta.sum()) / (2 * math.pi)) * 2 * math.pi

    coords, *_ = np.linalg.lstsq(_EIG_SIGNS, theta, rcond=None)
    if np.max(np.abs(_EIG_SIGNS @ coords - theta)) > 1e-8:
        raise TranspileError("canonical coordinates are inconsistent with the phases")

    k1 = MAGIC @ p @ MAGIC.conj().T
    k2 = MAGIC @ o.T @ MAGIC.conj().T
    k1l, k1r, ph1 = _split_local(k1)
    k2l, k2r, ph2 = _split_local(k2)
    dec = WeylDecomposition(k1l, k1r, tuple(float(x) for x in coords), k2l, k2r,
                            phase0 * ph1 * ph2)
    if np.max(np.abs(dec.reconstruct() - u)) > 1e-8:
        raise TranspileError("Cartan decomposition failed to reconstruct its input")
    return dec


# -- exactly-3-CX synthesis ----------------------------------------------------

@dataclass
class TwoQubitSequence:
    """Flat op list in circuit order: ("u", qubit, 2x2 matrix) and
    ("cx", control, target) entries on local qubits 0 and 1, plus a phase."""

    ops: list[tuple]
    phase: complex


def synthesize_two_qubit(u: np.ndarray) -> TwoQubitSequence:
    """Express a 4x4 unitary as exactly three CX gates plus 1q unitaries.

    The result is verified against the input (up to global phase) to 1e-9.
    """
    u = np.asarray(u, dtype=complex)
    dec = weyl_decompose(u)
    a, b, c = dec.coords
    half_pi = math.pi / 2
    out = TwoQubitSequence([
        ("u", 0, dec.k2l), ("u", 1, gate_unitary(Rz(1, -half_pi)) @ dec.k2r),
        ("cx", 1, 0),
        ("u", 0, gate_unitary(Rz(0, half_pi - 2 * c))),
        ("u", 1, gate_unitary(Ry(1, 2 * a - half_pi))),
        ("cx", 0, 1),
        ("u", 1, gate_unitary(Ry(1, half_pi - 2 * b))),
        ("cx", 1, 0),
        ("u", 0, dec.k1l @ gate_unitary(Rz(0, half_pi))), ("u", 1, dec.k1r),
    ], dec.phase * cmath.exp(0.25j * math.pi))
    check = sequence_matrix(out)
    inner = np.trace(check.conj().T @ u)
    phase = inner / abs(inner) if abs(inner) > 1e-12 else 1.0
    if np.max(np.abs(phase * check - u)) > 1e-9:
        raise TranspileError("three-CX synthesis failed verification")
    return out


def sequence_matrix(seq: TwoQubitSequence) -> np.ndarray:
    """4x4 matrix of an op list (local qubit 0 the high bit)."""
    m = np.eye(4, dtype=complex)
    for op in seq.ops:
        if op[0] == "cx":
            m = _CX[op[1], op[2]] @ m
        else:
            _, qubit, u2 = op
            full = np.kron(u2, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), u2)
            m = full @ m
    return seq.phase * m


def euler_zyz(u: np.ndarray) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, phase) with u = e^{i phase} Rz(alpha) Ry(beta) Rz(gamma)."""
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    phase = cmath.phase(det) / 2
    su = u * cmath.exp(-1j * phase)
    beta = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[1, 0]) < 1e-12:
        alpha = -2.0 * cmath.phase(su[0, 0])
        gamma = 0.0
    elif abs(su[0, 0]) < 1e-12:
        alpha = 2.0 * cmath.phase(su[1, 0])
        gamma = 0.0
    else:
        sum_ag = -2.0 * cmath.phase(su[0, 0])
        diff_ag = 2.0 * cmath.phase(su[1, 0])
        alpha = 0.5 * (sum_ag + diff_ag)
        gamma = 0.5 * (sum_ag - diff_ag)
    return alpha, beta, gamma, phase
