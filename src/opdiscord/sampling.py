"""Seeded random states, bases and decompositions.

Used by the witness search and throughout the test suite; everything is
driven by an explicit ``numpy.random.Generator`` so runs reproduce
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .theory import POLYTOPE, StateVec, TheoryModel


def random_polytope_state(theory: TheoryModel, rng: np.random.Generator) -> StateVec:
    weights = rng.dirichlet(np.ones(theory.pure_state_coords.shape[0]))
    return theory.state(weights @ theory.pure_state_coords)


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_quantum_state(theory: TheoryModel, rng: np.random.Generator) -> StateVec:
    return theory.state_from_matrix(random_density_matrix(theory.quantum_levels, rng))


def random_state(theory: TheoryModel, rng: np.random.Generator) -> StateVec:
    if theory.backend == POLYTOPE:
        return random_polytope_state(theory, rng)
    return random_quantum_state(theory, rng)


def random_pure_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    ket = rng.normal(size=d) + 1j * rng.normal(size=d)
    return ket / np.linalg.norm(ket)


def random_haar_basis(d: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis, rows are kets."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
    return q.T.copy()


def random_entangled_pure(ab: TheoryModel, rng: np.random.Generator) -> StateVec:
    """Haar-random pure bipartite state (entangled with probability one)."""
    da, db = (f.quantum_levels for f in ab.factors)
    ket = random_pure_ket(da * db, rng)
    return ab.state_from_matrix(np.outer(ket, ket.conj()))


def random_cq_state(ab: TheoryModel, rng: np.random.Generator) -> StateVec:
    """Random classical-quantum state ``sum_k q_k |psi_k><psi_k| (x) sigma_k``."""
    fa, fb = ab.factors
    da, db = fa.quantum_levels, fb.quantum_levels
    basis = random_haar_basis(da, rng)
    weights = rng.dirichlet(np.ones(da))
    mat = np.zeros((da * db, da * db), dtype=complex)
    for k in range(da):
        proj = np.outer(basis[k], basis[k].conj())
        mat += weights[k] * np.kron(proj, random_density_matrix(db, rng))
    return ab.state_from_matrix(mat)


def random_separable_state(
    ab: TheoryModel, rng: np.random.Generator, terms: int = 4
) -> StateVec:
    fa, fb = ab.factors
    weights = rng.dirichlet(np.ones(terms))
    coords = np.zeros(ab.dim)
    for w in weights:
        a = random_state(fa, rng)
        b = random_state(fb, rng)
        coords = coords + w * np.kron(a.coords, b.coords)
    return ab.state(coords)
