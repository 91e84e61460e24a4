"""Minimum-error discrimination, the operational distance, and
perfect-distinguishability certificates.

The operational distance between two normalized states is
``1 - 2 p_err`` where ``p_err`` is the minimum error probability of the
equal-prior binary discrimination.  Equivalently it is the maximum of
``a . (rho0 - rho1)`` over valid effects ``a``: a vertex-enumeration
maximum for polytopes with an explicit effect list, a linear program in
half-space form for composites, and the closed-form eigenvalue
expression on the quantum backend.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .config import SearchConfig
from .errors import InvalidStateError, ResourceBudgetError
from .herm import fibonacci_sphere
from .lp import OPTIMAL, solve_lp
from .sampling import random_haar_basis
from .theory import (
    POLYTOPE,
    QUANTUM,
    EffectVec,
    StateVec,
    TheoryModel,
)

VERTEX_ENUM_CAP = 10_000
FAMILY_CHECK_BUDGET = 1_000_000
EIG_TOL = 1e-11


@dataclass(frozen=True)
class DiscriminationResult:
    p_err: float
    optimal_effect: EffectVec
    distance: float


@dataclass(frozen=True)
class DistinguishabilityCertificate:
    distinguishable: bool
    discriminating_effects: tuple[EffectVec, ...] | None


def _check_pair(rho0: StateVec, rho1: StateVec) -> TheoryModel:
    if not rho0.system.is_same(rho1.system):
        raise InvalidStateError("states live on different systems")
    if not (rho0.normalized and rho1.normalized):
        raise InvalidStateError("discrimination is defined for normalized states")
    return rho0.system


def _polytope_max_pairing(system: TheoryModel, delta: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize ``a . delta`` over the effect polytope; returns (value, effect)."""
    vertices = system.effect_vertex_coords
    if vertices is not None and vertices.shape[0] <= VERTEX_ENUM_CAP:
        vals = vertices @ delta
        top = float(np.max(vals))
        ties = np.nonzero(vals >= top - 1e-9)[0]
        pick = ties[np.lexsort(vertices[ties].T[::-1])[0]]
        return max(top, 0.0), vertices[pick]
    # half-space form via LP duality:  max a.delta s.t. 0 <= a.v <= 1
    # equals min sum(mu) s.t. V^T (mu - nu) = delta, mu, nu >= 0, and the
    # equality multipliers of that dual are the optimal effect.
    pure = system.pure_state_coords
    m = pure.shape[0]
    A = np.hstack([pure.T, -pure.T])
    c = np.concatenate([np.ones(m), np.zeros(m)])
    res = solve_lp(c, A, delta)
    if res.status != OPTIMAL:
        raise InvalidStateError("effect-polytope LP failed; invalid state difference")
    return max(float(res.objective), 0.0), res.dual_eq


def _helstrom(system: TheoryModel, delta: np.ndarray) -> tuple[float, EffectVec]:
    """Half the trace norm of the Hermitian matrix ``delta`` and the
    projector onto its eigenvalues above ``EIG_TOL``, the effect that
    attains it, from one ``eigh``."""
    w, u = np.linalg.eigh(delta)
    pos = u[:, w > EIG_TOL]
    return float(np.sum(np.abs(w)) / 2.0), system.effect_from_matrix(pos @ pos.conj().T)


def min_error_discrimination(rho0: StateVec, rho1: StateVec) -> DiscriminationResult:
    """Optimal equal-prior binary discrimination of two normalized states."""
    system = _check_pair(rho0, rho1)
    if system.backend == POLYTOPE:
        distance, effect_coords = _polytope_max_pairing(system, rho0.coords - rho1.coords)
        effect = system.effect(effect_coords)
    else:
        distance, effect = _helstrom(system, rho0.matrix() - rho1.matrix())
    distance = min(max(distance, 0.0), 1.0)
    return DiscriminationResult(p_err=(1.0 - distance) / 2.0, optimal_effect=effect, distance=distance)


def operational_distance(rho0: StateVec, rho1: StateVec) -> float:
    return min_error_discrimination(rho0, rho1).distance


def _quantum_support_projectors(states: list[StateVec]):
    mats = [s.matrix() for s in states]
    for a, b in itertools.combinations(mats, 2):
        if np.linalg.norm(a @ b) > 1e-9:
            return None
    d = mats[0].shape[0]
    projs = []
    for m in mats:
        w, u = np.linalg.eigh(m)
        cols = u[:, w > 1e-9]
        projs.append(cols @ cols.conj().T)
    remainder = np.eye(d, dtype=complex) - sum(projs)
    projs[-1] = projs[-1] + remainder
    return projs


def _polytope_distinguishability_lp(system: TheoryModel, states: list[StateVec]):
    """Find effects ``a_k >= 0`` on the cone with ``sum a_k = e`` and
    ``a_k . rho_i = delta_ki``; effects are parameterized in half-space
    form (split positive/negative parts plus slack on each pure state).
    The free columns are ``(k, sign, axis)`` with ``a_k = pos - neg``.
    """
    pure = system.pure_state_coords
    m, dim = pure.shape
    k = len(states)
    n_free = 2 * k * dim
    A = np.zeros((k * (m + k) + dim, n_free + k * m))
    b = np.zeros(len(A))
    free = A[:, :n_free].reshape(-1, k, 2, dim)
    on = np.arange(k)
    for start, vecs in ((0, pure), (k * m, np.array([rho.coords for rho in states]))):
        rows = free[start : start + k * len(vecs)].reshape(k, len(vecs), k, 2, dim)
        rows[on, :, on] = np.stack([vecs, -vecs], axis=1)
    A[np.arange(k * m), n_free + np.arange(k * m)] = -1.0
    b[k * m : k * (m + k)] = np.eye(k).ravel()
    axis = np.arange(dim)
    free[k * (m + k) :][axis, :, :, axis] = [1.0, -1.0]
    b[k * (m + k) :] = system.det_effect_coords

    res = solve_lp(np.zeros(A.shape[1]), A, b)
    if res.status != OPTIMAL:
        return None
    signed = res.x[:n_free].reshape(k, 2, dim)
    return signed[:, 0] - signed[:, 1]


def are_perfectly_distinguishable(states: list[StateVec]) -> DistinguishabilityCertificate:
    """Joint perfect distinguishability with a discriminating test."""
    if len(states) == 0:
        raise InvalidStateError("need at least one state")
    system = states[0].system
    for s in states[1:]:
        if not s.system.is_same(system):
            raise InvalidStateError("states live on different systems")
    if any(not s.normalized for s in states):
        raise InvalidStateError("distinguishability is defined for normalized states")
    if len(states) == 1:
        return DistinguishabilityCertificate(True, (system.deterministic_effect,))

    if system.backend == QUANTUM:
        projs = _quantum_support_projectors(states)
        if projs is None:
            return DistinguishabilityCertificate(False, None)
        effects = tuple(system.effect_from_matrix(p) for p in projs)
        return DistinguishabilityCertificate(True, effects)

    coords = _polytope_distinguishability_lp(system, states)
    if coords is None:
        return DistinguishabilityCertificate(False, None)
    return DistinguishabilityCertificate(True, tuple(system.effect(a) for a in coords))


@functools.lru_cache(maxsize=128)
def _polytope_maximal_families(theory: TheoryModel, budget: int) -> tuple[tuple[StateVec, ...], ...]:
    """Enumerated once per theory object and budget (``TheoryModel`` hashes
    by identity); the tuples of frozen states are safe to share."""
    pure = theory.pure_states
    m = len(pure)
    checks = 0
    distinguishable: set[frozenset[int]] = {frozenset((i,)) for i in range(m)}
    frontier = [frozenset((i,)) for i in range(m)]
    max_size = min(m, theory.dim)
    while frontier:
        new_frontier = []
        for subset in frontier:
            if len(subset) >= max_size:
                continue
            for j in range(max(subset) + 1, m):
                cand = subset | {j}
                if cand in distinguishable:
                    continue
                # every sub-family of a distinguishable family is
                # distinguishable, so prune when any k-subset failed
                if any(
                    frozenset(c) not in distinguishable
                    for c in itertools.combinations(sorted(cand), len(cand) - 1)
                ):
                    continue
                checks += 1
                if checks > budget:
                    raise ResourceBudgetError(
                        f"family enumeration exceeded {budget} feasibility checks"
                    )
                cert = are_perfectly_distinguishable([pure[i] for i in sorted(cand)])
                if cert.distinguishable:
                    distinguishable.add(cand)
                    new_frontier.append(cand)
        frontier = new_frontier
    maximal = [
        s for s in distinguishable if not any(s < t for t in distinguishable)
    ]
    maximal.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(tuple(pure[i] for i in sorted(s)) for s in maximal)


def _basis_from_angles(theta, phi) -> np.ndarray:
    """The qubit basis (rows are kets) whose first ket has Bloch angles
    ``(theta, phi)``; arrays of angles give a ``(..., 2, 2)`` stack."""
    half, phase = np.divide(theta, 2.0), np.exp(1j * np.asarray(phi))
    k0 = np.stack([np.cos(half), np.sin(half) * phase], axis=-1)
    k1 = np.stack([np.sin(half), -np.cos(half) * phase], axis=-1)
    return np.stack([k0, k1], axis=-2)


def _angles_from_direction(direction: np.ndarray) -> tuple[float, float]:
    theta = float(np.arccos(np.clip(direction[2], -1.0, 1.0)))
    phi = float(np.arctan2(direction[1], direction[0]))
    return theta, phi


@functools.lru_cache(maxsize=16)
def _grid_stack(levels: int, points: int, seed: int | None) -> np.ndarray:
    if levels == 2:
        bases = [_basis_from_angles(*_angles_from_direction(v)) for v in fibonacci_sphere(points)]
    else:
        rng = np.random.default_rng(seed)
        bases = [random_haar_basis(levels, rng) for _ in range(points)]
    grid = np.array(bases, dtype=complex).reshape(-1, levels, levels)
    grid.setflags(write=False)
    return grid


def _grid_bases(da: int, config: SearchConfig) -> np.ndarray:
    """The measurement grid as one read-only ``(G, da, da)`` stack, built
    once per levels, point count and seed (the qubit's Fibonacci sphere
    has no seed).  Copy a basis before handing it out."""
    seed = None if da == 2 else config.seed
    return _grid_stack(da, config.resolved_grid_points(da), seed)


def basis_family(theory: TheoryModel, basis: np.ndarray) -> tuple[StateVec, ...]:
    """The pure-state family of an orthonormal basis (rows are kets)."""
    return tuple(
        theory.state_from_matrix(np.outer(ket, ket.conj())) for ket in basis
    )


def maximal_distinguishable_pure_families(
    theory: TheoryModel,
    grid_points: int | None = None,
    seed: int = 0x5EED,
    budget: int = FAMILY_CHECK_BUDGET,
):
    """Maximal jointly-distinguishable families of pure states.

    Polytope backend: exhaustive subset search over the vertex list with
    feasibility pruning, exact and finite.  Quantum backend: the family
    set is a continuum of orthonormal bases; the families of the discord
    search's measurement grid are returned (the bases of a Fibonacci
    sphere of Bloch directions for ``d = 2``, Haar-sampled bases at
    ``seed`` otherwise).  ``grid_points`` and ``seed`` follow
    ``SearchConfig``'s rules.
    """
    if theory.backend == POLYTOPE:
        return _polytope_maximal_families(theory, budget)
    grid = _grid_bases(theory.quantum_levels, SearchConfig(grid_points=grid_points, seed=seed))
    return tuple(basis_family(theory, basis) for basis in grid)
