"""Simpliciality of state spaces and the witness search.

A polytope theory is simplicial when its pure states are linearly
independent and exactly as numerous as the coordinate dimension.  In a
non-simplicial theory, separable states built from complete linearly
independent local sets acquire strictly positive discord; the witness
search constructs such states and certifies the value (exactly via LP
on polytopes, via a weak-duality lower bound on the quantum backend).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SearchConfig
from .discord import _require_state, discord
from .discrimination import _basis_from_angles
from .fixedbasis import solve_fixed_basis
from .sampling import random_state
from .theory import (
    POLYTOPE,
    QUANTUM,
    StateVec,
    TheoryModel,
    compose_theories,
)

RANK_TOL = 1e-9
WITNESS_TOL = 1e-9


@dataclass(frozen=True)
class SimplexReport:
    is_simplex: bool
    pure_count: float
    dim: int
    affine_rank: int


@dataclass(frozen=True)
class WitnessReport:
    found: bool
    state: StateVec | None
    discord_lower_bound: float
    construction: str


@dataclass(frozen=True)
class TheoremRow:
    theory: str
    dim: int
    pure_count: float
    is_simplex: bool
    witness_found: bool
    discord_lower_bound: float
    runtime_ms: float
    consistent: bool

    def fields(self) -> dict:
        """The data columns, in CSV order, with an infinite ``pure_count``
        as ``"inf"``.  ``runtime_ms`` is wall-clock time, so it is left
        out and equal inputs give equal fields."""
        return {
            "theory": self.theory,
            "dim": self.dim,
            "pure_count": "inf" if math.isinf(self.pure_count) else int(self.pure_count),
            "is_simplex": self.is_simplex,
            "witness_found": self.witness_found,
            "discord_lower_bound": self.discord_lower_bound,
        }


def is_simplicial(theory: TheoryModel) -> SimplexReport:
    """Pure-state count equals the dimension and the vertices are
    linearly independent.  Quantum systems have a continuum of pure
    states and are never simplicial."""
    if theory.backend == QUANTUM:
        return SimplexReport(False, math.inf, theory.dim, theory.dim - 1)
    pure = theory.pure_state_coords
    count = pure.shape[0]
    lin_rank = int(np.linalg.matrix_rank(pure, tol=RANK_TOL))
    if count >= 2:
        aff_rank = int(np.linalg.matrix_rank(pure[1:] - pure[0], tol=RANK_TOL))
    else:
        aff_rank = 0
    return SimplexReport(
        is_simplex=(count == theory.dim and lin_rank == theory.dim),
        pure_count=count,
        dim=theory.dim,
        affine_rank=aff_rank,
    )


# ---------------------------------------------------------------------------
# certified lower bound (first factor a qubit)


def _angle_grid_bases(n_theta: int, n_phi: int) -> np.ndarray:
    """Qubit bases on the latitude-longitude grid of ``n_theta`` polar
    angles in ``[0, pi]`` and ``n_phi`` azimuths, theta-major, ``(G, 2, 2)``."""
    theta, phi = np.meshgrid(
        np.linspace(0.0, np.pi, n_theta),
        np.linspace(-np.pi, np.pi, n_phi, endpoint=False),
        indexing="ij",
    )
    return _basis_from_angles(theta, phi).reshape(-1, 2, 2)


def certified_discord_lower_bound(
    rho: StateVec, n_theta: int = 46, n_phi: int = 90, iters: int = 40
) -> float:
    """A rigorous lower bound on the discord of a state with a qubit first factor.

    The distance to the fixed-basis block set is 1/2-Lipschitz in the
    Bloch angle of the measurement basis, so a latitude-longitude grid
    with spacing ``(dtheta, dphi)`` covers every basis within
    ``dtheta/2 + dphi/2``; subtracting ``sin(cover/2)`` from the minimum
    per-basis dual value bounds the global minimum from below.  The
    per-basis duals come from one stacked run of the fixed-basis solver,
    which is exact in one step for a qubit first factor.  ``iters`` is
    accepted for compatibility and must be at least 1; no setting
    changes the bound.
    """
    fa, fb = _require_state(rho, quantum=True)
    if fa.quantum_levels != 2:
        raise ValueError("certification is implemented for a qubit first factor")
    if n_theta < 2 or n_phi < 1:
        raise ValueError("the grid needs n_theta >= 2 and n_phi >= 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    cover = (np.pi / (n_theta - 1)) / 2.0 + (2.0 * np.pi / n_phi) / 2.0
    slack = math.sin(cover / 2.0)
    kets = _angle_grid_bases(n_theta, n_phi)
    lower = solve_fixed_basis(rho.matrix(), kets, fb.quantum_levels).lower
    return float(lower.min() - slack)


# ---------------------------------------------------------------------------
# witness search


def _grow_independent(base: list[StateVec], draw, dim: int, tries: int | None) -> list[StateVec]:
    """``base`` extended by each state from ``draw()`` that raises its
    rank, until it holds ``dim`` states or ``tries`` draws are spent
    (``None``: no limit)."""
    out = list(base)
    drawn = 0
    while len(out) < dim and (tries is None or drawn < tries):
        drawn += 1
        s = draw()
        trial = np.vstack([c.coords for c in out] + [s.coords])
        if np.linalg.matrix_rank(trial, tol=RANK_TOL) == len(out) + 1:
            out.append(s)
    return out


def _complete_independent_sets(theory: TheoryModel, rng: np.random.Generator, extra: int):
    """Complete (spanning) linearly independent state sets of the theory.

    The deterministic candidates come first: greedy selections from the
    vertex list (polytope) or the standard tomographic projector family
    (quantum); ``extra`` randomized sets follow.
    """
    dim = theory.dim
    draw = functools.partial(random_state, theory, rng)
    sets: list[list[StateVec]] = []
    if theory.backend == POLYTOPE:
        vertices = theory.pure_states
        base = _grow_independent([], iter(vertices).__next__, dim, len(vertices))
        # complete with mixtures when the vertices do not span
        sets.append(_grow_independent(base, draw, dim, None))
    else:
        d = theory.quantum_levels
        kets = [np.eye(d, dtype=complex)[i] for i in range(d)]
        states = [np.outer(k, k.conj()) for k in kets]
        for i in range(d):
            for j in range(i + 1, d):
                plus = (kets[i] + kets[j]) / np.sqrt(2.0)
                imag = (kets[i] + 1j * kets[j]) / np.sqrt(2.0)
                states.append(np.outer(plus, plus.conj()))
                states.append(np.outer(imag, imag.conj()))
        sets.append([theory.state_from_matrix(m) for m in states])

    for _ in range(extra):
        cand = _grow_independent([], draw, dim, 50 * dim)
        if len(cand) == dim:
            sets.append(cand)
    return sets


def _known_quantum_candidate(theory: TheoryModel):
    """A two-term separable state with non-orthogonal first-factor
    supports; the textbook example of discord without entanglement."""
    if theory.backend != QUANTUM or theory.quantum_levels != 2:
        return None
    z0 = np.array([1.0, 0.0], dtype=complex)
    z1 = np.array([0.0, 1.0], dtype=complex)
    plus = (z0 + z1) / np.sqrt(2.0)
    pairs = [
        (np.outer(z0, z0.conj()), np.outer(z0, z0.conj())),
        (np.outer(plus, plus.conj()), np.outer(z1, z1.conj())),
    ]
    return pairs


def find_witness(
    theory: TheoryModel,
    config: SearchConfig | None = None,
    n_random: int = 8,
) -> WitnessReport:
    """Search for a separable state of ``theory (x) theory`` with
    strictly positive discord.

    Candidates are uniform mixtures ``sum_i p_i rho_i (x) tau_i`` over
    complete linearly independent sets (with ``tau_i = rho_i``, the
    second system being a copy of the first), a known two-term
    discordant state on the qubit, and seeded random separable states.
    Polytope verdicts use the exact LP value; quantum verdicts require a
    certified weak-duality lower bound to stay positive.
    """
    cfg = config or DEFAULT_CONFIG
    rng = np.random.default_rng(cfg.seed)
    ab = compose_theories(theory, theory)

    candidates: list[tuple[str, StateVec]] = []
    for si, stateset in enumerate(_complete_independent_sets(theory, rng, extra=max(0, n_random - 1))):
        coords = np.zeros(ab.dim)
        for s in stateset:
            coords = coords + np.kron(s.coords, s.coords) / len(stateset)
        label = "complete-set" if si == 0 else f"random-complete-set-{si}"
        candidates.append((f"{label} (uniform, {len(stateset)} terms)", ab.state(coords)))

    known = _known_quantum_candidate(theory)
    if known is not None:
        mat = sum(np.kron(a, b) for a, b in known) / len(known)
        candidates.insert(1, ("two-term non-orthogonal pair", ab.state_from_matrix(mat)))

    for label, cand in candidates:
        result = discord(cand, cfg)
        if theory.backend == POLYTOPE:
            if result.value > WITNESS_TOL:
                return WitnessReport(True, cand, result.value, label)
        else:
            if result.value <= 1e-4:
                continue
            if theory.quantum_levels == 2:
                lower = certified_discord_lower_bound(cand)
                if lower > WITNESS_TOL:
                    return WitnessReport(True, cand, lower, label + " (certified)")
            elif result.value > 1e-3:
                # no certification machinery beyond two levels; report the
                # search value, flagged as an estimate
                return WitnessReport(True, cand, result.value, label + " (upper-bound estimate)")
    return WitnessReport(False, None, 0.0, "no candidate exceeded the positivity threshold")


def theorem3_report(
    theories: list[TheoryModel],
    config: SearchConfig | None = None,
    n_random: int = 8,
) -> list[TheoremRow]:
    """Per theory: simpliciality verdict, witness verdict, and their
    logical consistency (non-simplicial implies witness found;
    simplicial implies none under the budget)."""
    rows = []
    for theory in theories:
        t0 = time.perf_counter()
        simplex = is_simplicial(theory)
        witness = find_witness(theory, config, n_random=n_random)
        ms = (time.perf_counter() - t0) * 1000.0
        consistent = simplex.is_simplex != witness.found
        rows.append(
            TheoremRow(
                theory=theory.name,
                dim=theory.dim,
                pure_count=simplex.pure_count,
                is_simplex=simplex.is_simplex,
                witness_found=witness.found,
                discord_lower_bound=witness.discord_lower_bound,
                runtime_ms=ms,
                consistent=consistent,
            )
        )
    return rows


def theorem3_rows_to_csv(rows: list[TheoremRow]) -> str:
    """The rows' ``TheoremRow.fields`` as CSV."""
    lines = ["theory,dim,pure_count,is_simplex,witness_found,discord_lower_bound"]
    for r in rows:
        f = r.fields()
        lines.append(
            f"{f['theory']},{f['dim']},{f['pure_count']},{str(f['is_simplex']).lower()},"
            f"{str(f['witness_found']).lower()},{f['discord_lower_bound']:.12g}"
        )
    return "\n".join(lines) + "\n"
