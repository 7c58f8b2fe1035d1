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

The functions take stacks: an (N, 4, 4) array of unitaries (a single 4x4 is a
stack of one), or an (N, 2, 2) one for `euler_zyz`, and every step is one
stacked numpy call (`det`, `eigh`, `svd`, `lstsq`, `matmul`), so one call
covers every two-qubit gate of a circuit. A weight retry runs only on the
matrices the previous weight left undiagonalized. Each check applies to every
matrix of the stack at its own tolerance, and any failure raises
TranspileError for the whole call.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuits import CX, _kron, _swap_pair, gate_unitary, pauli_matrix, rotation_unitary
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

#: 4x4 CX keyed by local (control, target), qubit 0 the high bit
_CX = {(0, 1): gate_unitary(CX(0, 1))}
_CX[1, 0] = _swap_pair(_CX[0, 1])

#: weights t for eigh(Re W + t Im W); two distinct eigenvalues of W merge at a
#: single t, so a later weight separates what an unlucky one merges. The order
#: of the eigenvalues sets (a, b, c): the first weight's order puts the Ry
#: angles of the circuit below in [0, pi], where each lowers to one rotation,
#: more often than weights near 0 do (measured on Haar inputs)
_WEIGHTS = (3.7183, -2.6219, 1.8371, -0.4137)

_I2 = np.eye(2, dtype=complex)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def _stack(u, size: int) -> np.ndarray:
    """`u` as an (N, size, size) complex stack; a single matrix is a stack of one."""
    return np.asarray(u, dtype=complex).reshape(-1, size, size)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest |entry| of each item of a stack."""
    return np.abs(x).max(axis=tuple(range(1, x.ndim)), initial=0.0)


_RZ_HALF_PI = rotation_unitary("Z", math.pi / 2)
_RZ_MINUS_HALF_PI = rotation_unitary("Z", -math.pi / 2)


def canonical_matrix(a, b, c) -> np.ndarray:
    """exp(i(a XX + b YY + c ZZ)) from commuting closed forms, stacked over the
    shape of the coordinates."""
    out = np.eye(4, dtype=complex)
    for coeff, pp in zip((a, b, c), _PAULI_PAIRS):
        coeff = np.asarray(coeff, dtype=float)[..., None, None]
        out = (np.cos(coeff) * np.eye(4) + 1j * np.sin(coeff) * pp) @ out
    return out


def _to_su4(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U/phase, phase) with det(U/phase) = 1, principal fourth-root branch."""
    det = np.linalg.det(u)
    phase = np.exp(1j * np.angle(det) / 4) * np.abs(det) ** 0.25
    return u / phase[:, None, None], phase


def _simultaneously_diagonalize(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real orthogonal O (det +1) with O^T w O diagonal, and that diagonal, for
    each symmetric unitary w of a stack."""
    o = np.empty(w.shape, dtype=float)
    d = np.empty(w.shape[:2], dtype=complex)
    todo = np.arange(len(w))
    for t in _WEIGHTS:
        if not todo.size:
            break
        wt = w[todo]
        _, ot = np.linalg.eigh(wt.real + t * wt.imag)
        diag = ot.mT @ wt @ ot
        done = _max_abs(diag[:, _OFF_DIAGONAL]) <= 1e-9
        o[todo[done]] = ot[done]
        d[todo[done]] = np.diagonal(diag[done], axis1=1, axis2=2)
        todo = todo[~done]
    if todo.size:
        raise TranspileError("failed to diagonalize the magic-basis symmetric form")
    o[np.linalg.det(o) < 0, :, 0] *= -1
    return o, d


def _split_local(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split exact tensor products into (k0, k1, phase), k0 and k1 in SU(2)."""
    r = k.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    u, s, vh = np.linalg.svd(r)
    if np.any(s[:, 1] > 1e-8):
        raise TranspileError("matrix is not a tensor product of single-qubit unitaries")
    root = np.sqrt(s[:, :1])
    k0 = (u[:, :, 0] * root).reshape(-1, 2, 2)
    k1 = (vh[:, 0, :] * root).reshape(-1, 2, 2)
    k0 = k0 / np.sqrt(np.linalg.det(k0))[:, None, None]
    k1 = k1 / np.sqrt(np.linalg.det(k1))[:, None, None]
    rebuilt = _kron(k0, k1)
    flat = rebuilt.reshape(-1, 16)
    rows = np.arange(len(flat))
    ref = np.argmax(np.abs(flat), axis=1)
    phase = k.reshape(-1, 16)[rows, ref] / flat[rows, ref]
    if np.any(np.abs(np.abs(phase) - 1.0) > 1e-8) \
            or np.any(_max_abs(phase[:, None, None] * rebuilt - k) > 1e-8):
        raise TranspileError("tensor-product split failed")
    return k0, k1, phase


@dataclass
class WeylDecomposition:
    """u = phase * (k1l x k1r) @ canonical(a, b, c) @ (k2l x k2r) for each u of
    a stack: k's are (N, 2, 2), coords (N, 3) and phase (N,)."""

    k1l: np.ndarray
    k1r: np.ndarray
    coords: np.ndarray
    k2l: np.ndarray
    k2r: np.ndarray
    phase: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.phase[:, None, None] * _kron(self.k1l, self.k1r) \
            @ canonical_matrix(*self.coords.T) @ _kron(self.k2l, self.k2r)


def weyl_decompose(u) -> WeylDecomposition:
    """Cartan decomposition of a stack of 4x4 unitaries (coordinates not
    canonicalized)."""
    u = _stack(u, 4)
    u_su, phase0 = _to_su4(u)
    up = MAGIC.conj().T @ u_su @ MAGIC
    w = up.mT @ up
    o, d = _simultaneously_diagonalize(w)
    theta = np.angle(d) / 2.0
    p = up @ o * np.exp(-1j * theta)[:, None, :]
    if np.any(_max_abs(p.imag) > 1e-8):
        raise TranspileError("left factor of the Cartan decomposition is not real")
    p = p.real.copy()
    # Flip one half-phase branch by pi; keeps exp(i theta) and realness, fixes det.
    flip = np.linalg.det(p) < 0
    theta[flip, 0] += math.pi
    p[flip, :, 0] *= -1
    # The sign-pattern matrix spans the zero-sum subspace; normalize sum(theta) to 0.
    theta[:, 0] -= np.round(theta.sum(axis=1) / (2 * math.pi)) * 2 * math.pi

    coords = np.linalg.lstsq(_EIG_SIGNS, theta.T, rcond=None)[0].T
    if np.any(_max_abs(coords @ _EIG_SIGNS.T - theta) > 1e-8):
        raise TranspileError("canonical coordinates are inconsistent with the phases")

    k1 = MAGIC @ p @ MAGIC.conj().T
    k2 = MAGIC @ o.mT @ MAGIC.conj().T
    k1l, k1r, ph1 = _split_local(k1)
    k2l, k2r, ph2 = _split_local(k2)
    dec = WeylDecomposition(k1l, k1r, coords, k2l, k2r, phase0 * ph1 * ph2)
    if np.any(_max_abs(dec.reconstruct() - u) > 1e-8):
        raise TranspileError("Cartan decomposition failed to reconstruct its input")
    return dec


# -- exactly-3-CX synthesis ----------------------------------------------------

@dataclass
class TwoQubitSequence:
    """Flat op list in circuit order, shared by a stack of N syntheses:
    ("u", qubit, (N, 2, 2) matrices) and ("cx", control, target) entries on
    local qubits 0 and 1, plus an (N,) phase."""

    ops: list[tuple]
    phase: np.ndarray


def synthesize_two_qubit(u) -> TwoQubitSequence:
    """Express each 4x4 unitary of a stack as exactly three CX gates plus 1q
    unitaries.

    Each result is verified against its input (up to global phase) to 1e-9.
    """
    u = _stack(u, 4)
    dec = weyl_decompose(u)
    a, b, c = dec.coords.T
    half_pi = math.pi / 2
    out = TwoQubitSequence([
        ("u", 0, dec.k2l), ("u", 1, _RZ_MINUS_HALF_PI @ dec.k2r),
        ("cx", 1, 0),
        ("u", 0, rotation_unitary("Z", half_pi - 2 * c)),
        ("u", 1, rotation_unitary("Y", 2 * a - half_pi)),
        ("cx", 0, 1),
        ("u", 1, rotation_unitary("Y", half_pi - 2 * b)),
        ("cx", 1, 0),
        ("u", 0, dec.k1l @ _RZ_HALF_PI), ("u", 1, dec.k1r),
    ], dec.phase * cmath.exp(0.25j * math.pi))
    check = sequence_matrix(out)
    inner = np.einsum("nij,nij->n", check.conj(), u)
    norm = np.abs(inner)
    phase = np.ones_like(inner)
    big = norm > 1e-12
    phase[big] = inner[big] / norm[big]
    if np.any(_max_abs(phase[:, None, None] * check - u) > 1e-9):
        raise TranspileError("three-CX synthesis failed verification")
    return out


def sequence_matrix(seq: TwoQubitSequence) -> np.ndarray:
    """4x4 matrix of an op list (local qubit 0 the high bit), stacked like its ops."""
    m = np.eye(4, dtype=complex)
    for op in seq.ops:
        if op[0] == "cx":
            m = _CX[op[1], op[2]] @ m
        else:
            _, qubit, u2 = op
            m = (_kron(u2, _I2) if qubit == 0 else _kron(_I2, u2)) @ m
    return np.asarray(seq.phase)[..., None, None] * m


def euler_zyz(u) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, beta, gamma, phase), each of shape (N,), with
    u = e^{i phase} Rz(alpha) Ry(beta) Rz(gamma) for each u of a 2x2 stack."""
    u = _stack(u, 2)
    phase = np.angle(np.linalg.det(u)) / 2
    su = u * np.exp(-1j * phase)[:, None, None]
    c, s = np.abs(su[:, 0, 0]), np.abs(su[:, 1, 0])
    beta = 2.0 * np.arctan2(s, c)
    sum_ag = -2.0 * np.angle(su[:, 0, 0])
    diff_ag = 2.0 * np.angle(su[:, 1, 0])
    # With one of the two entries zero only alpha + gamma or alpha - gamma is
    # defined; gamma is then 0.
    alpha = np.where(s < 1e-12, sum_ag, np.where(c < 1e-12, diff_ag, 0.5 * (sum_ag + diff_ag)))
    gamma = np.where((s < 1e-12) | (c < 1e-12), 0.0, 0.5 * (sum_ag - diff_ag))
    return alpha, beta, gamma, phase
