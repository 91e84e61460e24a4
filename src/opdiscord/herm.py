"""Orthonormal Hermitian operator bases and coordinate maps.

Quantum systems are represented by real coordinate vectors in a fixed
orthonormal (Hilbert-Schmidt) Hermitian basis whose first element is
``I/sqrt(d)``.  Ordering after the identity: symmetric off-diagonal
pairs, antisymmetric off-diagonal pairs, then diagonal elements.
"""

from __future__ import annotations

import numpy as np

def hermitian_basis(d: int) -> np.ndarray:
    """Return the basis with shape ``(d*d, d, d)``; Tr[B_i B_j] = delta_ij."""
    if d <= 0:
        raise ValueError("dimension must be positive")
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m / np.sqrt(2.0))
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m / np.sqrt(2.0))
    for level in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(level), np.arange(level)] = 1.0
        m[level, level] = -float(level)
        mats.append(m / np.sqrt(level * (level + 1)))
    return np.stack(mats)


def product_basis(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Kronecker products ``B_i (x) C_j``, i-major, for composite systems."""
    out = [np.kron(a, b) for a in basis_a for b in basis_b]
    return np.stack(out)


def mat_to_coords(mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates ``x_i = Tr[M B_i]``; M must be Hermitian up to 1e-9."""
    coords = np.einsum("ij,kji->k", np.asarray(mat, dtype=complex), basis)
    if np.max(np.abs(coords.imag)) > 1e-9:
        raise ValueError("matrix is not Hermitian within tolerance")
    return coords.real.copy()


def coords_to_mat(coords: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("k,kij->ij", np.asarray(coords, dtype=float), basis)


def half_trace_norm(delta: np.ndarray) -> np.ndarray:
    """Half the trace norm of each Hermitian matrix in the stack: the
    Helstrom distance when ``delta`` is a difference of states."""
    return np.sum(np.abs(np.linalg.eigvalsh(delta)), axis=-1) / 2.0


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors on S^2, shape ``(n, 3)``."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


ENTROPY_EIG_FLOOR = 1e-12


def entropy_bits(mat: np.ndarray) -> float:
    """Von Neumann entropy in bits; eigenvalues <= ENTROPY_EIG_FLOOR add 0."""
    w = np.linalg.eigvalsh(np.asarray(mat, dtype=complex))
    w = w[w > ENTROPY_EIG_FLOOR]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))
