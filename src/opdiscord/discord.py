"""Null-discord states, the operational discord, and the entropic discord.

A bipartite state has null discord when it decomposes as
``sum_k q_k psi_k (x) sigma_k`` with ``{psi_k}`` jointly perfectly
distinguishable pure states on the first factor.  The discord of a
state is its minimum operational distance to that set.

Polytope backend: the family list is finite and each inner problem is
an exact linear program, so the reported discord is exact.  Quantum
backend: families form a continuum; a deterministic measurement grid
plus local refinement picks the measurement basis, the fixed-basis
solver (``opdiscord.fixedbasis``) finds the best weights and conditionals
at that basis to a stated primal-dual gap, and the result is an upper
bound over bases (``converged`` reports whether that gap closed), with
every reported value being the exact operational distance of the final
candidate.  The quantum pipeline first runs the pinching fixed-point
check, which recognizes classical-quantum states exactly.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import herm
from .config import DEFAULT_CONFIG, SearchConfig, require_tolerance
from .discrimination import (
    _basis_from_angles,
    _grid_bases,
    _helstrom,
    are_perfectly_distinguishable,
    basis_family,
    maximal_distinguishable_pure_families,
)
from .errors import InvalidStateError, SystemMismatchError, UnsupportedBackendError
from .fixedbasis import gap_tolerance, solve_fixed_basis
from .lp import OPTIMAL, solve_lp
from .neldermead import minimize, minimize_stack
from .sampling import random_pure_ket
from .theory import (
    POLYTOPE,
    QUANTUM,
    EffectVec,
    StateVec,
    TheoryModel,
    compose_theories,
    is_pure,
    state_in_cone,
    validate_state,
)

ZERO_WEIGHT_TOL = 1e-12
FIXED_POINT_TOL = 1e-9


@dataclass(frozen=True)
class NullDiscordDecomposition:
    """A family ``{psi_k}``, weights ``{q_k}`` and conditionals ``{sigma_k}``."""

    family: tuple[StateVec, ...]
    weights: np.ndarray
    conditionals: tuple[StateVec, ...]

    def reconstruction_coords(self) -> np.ndarray:
        out = None
        for q, psi, sigma in zip(self.weights, self.family, self.conditionals):
            term = q * np.kron(psi.coords, sigma.coords)
            out = term if out is None else out + term
        return out

    def validate(self) -> None:
        if not (len(self.family) == len(self.weights) == len(self.conditionals)):
            raise InvalidStateError("family, weights and conditionals must have equal length")
        if len(self.family) == 0:
            raise InvalidStateError("decomposition needs at least one term")
        w = np.asarray(self.weights, dtype=float)
        if np.min(w) < -ZERO_WEIGHT_TOL:
            raise InvalidStateError("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise InvalidStateError("weights must sum to 1")
        _require_family(self.family, self.family[0].system)
        sys_b = self.conditionals[0].system
        for sigma in self.conditionals:
            if not sigma.system.is_same(sys_b):
                raise InvalidStateError("conditionals live on different systems")
            if not sigma.normalized or not state_in_cone(sigma):
                raise InvalidStateError("conditional is not a valid normalized state")


@dataclass(frozen=True)
class DiscordResult:
    """A discord value, the decomposition and effect that attain it.

    ``converged`` is always True on the polytope backend, where the value
    is exact.  On the quantum backend the value is an upper bound over
    measurement bases; ``converged`` says whether the inner problem at
    the reported basis was solved: True when the pinching fixed-point
    check recognized a classical-quantum state, or when the fixed-basis
    solver's primal-dual gap there is at most
    ``fixedbasis.gap_tolerance(da)``.  It says nothing about whether
    another basis does better.

    ``outer_evaluations`` is the number of families (polytope); else 1 on
    a recognized cq state, or the search's scores (grid, Nelder-Mead
    ``nfev``, one final point per run) plus the fixed-basis solver's steps.
    """

    value: float
    optimizer: NullDiscordDecomposition
    certificate_effect: EffectVec
    outer_evaluations: int
    converged: bool


@dataclass(frozen=True)
class EntropyReport:
    S_A: float
    S_B: float
    S_AB: float
    mutual_information: float
    J_value: float
    discord_value: float
    optimal_measurement: np.ndarray


def make_null_discord_state(decomp: NullDiscordDecomposition) -> StateVec:
    """The reconstruction ``sum_k q_k psi_k (x) sigma_k`` as a composite state."""
    decomp.validate()
    ab = compose_theories(decomp.family[0].system, decomp.conditionals[0].system)
    return ab.state(decomp.reconstruction_coords())


# ---------------------------------------------------------------------------
# the input gate and the decomposition builder


def _require_state(rho: StateVec, quantum: bool = False) -> tuple[TheoryModel, TheoryModel]:
    """The factors of ``rho``, once it passes the discord layer's checks,
    in order: it is bipartite, on the quantum backend when ``quantum``,
    normalized, and on the quantum backend positive semidefinite.  A
    polytope point is not checked against its state cone, which would
    take one more LP per call (see the README)."""
    if not rho.system.is_composite:
        raise SystemMismatchError("a bipartite state is required")
    is_quantum = rho.system.backend == QUANTUM
    if quantum and not is_quantum:
        raise UnsupportedBackendError("operation requires the quantum backend")
    if not rho.normalized:
        raise InvalidStateError("discord is defined for normalized states")
    if is_quantum:
        validate_state(rho)
    return rho.system.factors


def _require_family(family, system: TheoryModel) -> tuple[StateVec, ...]:
    """``family`` as a tuple, once it is non-empty, each member is a pure state
    on ``system``, and the members are jointly perfectly distinguishable."""
    family = tuple(family)
    if len(family) == 0:
        raise InvalidStateError("family must be non-empty")
    for psi in family:
        if not psi.system.is_same(system):
            raise InvalidStateError(f"family members must live on {system.name}")
        if not is_pure(psi, 1e-8):
            raise InvalidStateError("family members must be pure")
    if not are_perfectly_distinguishable(list(family)).distinguishable:
        raise InvalidStateError("family is not jointly perfectly distinguishable")
    return family


def _decomposition(family, weights, parts, to_state) -> NullDiscordDecomposition:
    """The terms of weight ``q_k > ZERO_WEIGHT_TOL``, with the weights
    renormalized and conditionals ``to_state(parts[k] / q_k)``: ``parts``
    are the unnormalized conditionals, as coordinates (polytope) or
    matrices (quantum)."""
    kept = [k for k, q in enumerate(weights) if q > ZERO_WEIGHT_TOL]
    q = np.array([weights[k] for k in kept])
    return NullDiscordDecomposition(
        tuple(family[k] for k in kept),
        q / np.sum(q),
        tuple(to_state(parts[k] / weights[k]) for k in kept),
    )


# The quantum kernel works on stacks: bases ``(G, K, da)`` (rows are kets),
# blocks ``(G, K, db, db)`` and matrices ``(G, da*db, da*db)``.
# ``_blocks``, ``_cq_matrix`` and ``_pinch_residuals`` form each entry by
# the same floating-point operations as the one-basis-at-a-time forms kept
# in ``tests/oracles.py``, so they equal them bit for bit; single-basis
# callers pass ``G = 1``.


def _blocks(rho_mat: np.ndarray, kets: np.ndarray, da: int, db: int) -> np.ndarray:
    """Diagonal blocks ``tau_k = (<k| (x) I) rho (|k> (x) I)``, shape (G, K, db, db)."""
    rr = rho_mat.reshape(da, db, da, db)
    return np.einsum("gka,abcd,gkc->gkbd", kets.conj(), rr, kets)


def _cq_matrix(kets: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``sum_k |k><k| (x) tau_k`` per basis: every entry is the single
    product ``np.kron`` forms, and the ``k`` terms are added in order."""
    g, k, da = kets.shape
    dim = da * taus.shape[-1]
    proj = kets[..., :, None] * kets.conj()[..., None, :]
    terms = (proj[..., :, None, :, None] * taus[..., None, :, None, :]).reshape(g, k, dim, dim)
    out = terms[:, 0]
    for i in range(1, k):
        out = out + terms[:, i]
    return out


def _pinch_residuals(
    rho_mat: np.ndarray, bases: np.ndarray, da: int, db: int, herm_basis: np.ndarray
) -> np.ndarray:
    """Largest Hermitian-basis coordinate of ``rho`` minus its pinching,
    per basis, shape (G,)."""
    delta = rho_mat - _cq_matrix(bases, _blocks(rho_mat, bases, da, db))
    coords = np.einsum("gij,kji->gk", delta, herm_basis)
    return np.max(np.abs(coords.real), axis=-1)


# The search scores a basis from its frame blocks
# ``M_kl = (<k| (x) I) rho (|l> (x) I)`` alone, without building the
# ``da*db`` pinched matrix: the pinching distance is half the trace norm
# of ``rho`` with its diagonal blocks removed, which for a qubit first
# factor is ``||M_01||_1``, and the entropic objective needs only the
# diagonal blocks.  For ``db = 2`` that trace norm and the blocks'
# eigenvalues come in closed form.  These scores equal the cq-matrix
# forms kept in ``tests/oracles.py`` to rounding, not bit for bit.


def _block_rows(rho_mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """The blocks ``R_ac = (<a| (x) I) rho (|c> (x) I)`` of the computational
    basis, flattened into one row per ``a``: ``(da, da*db*db)``."""
    return rho_mat.reshape(da, db, da, db).swapaxes(1, 2).reshape(da, da * db * db)


def _block_between(r: np.ndarray, bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """``(<bra| (x) I) rho (|ket> (x) I)`` flattened, ``(..., db*db)``, for
    broadcastable stacks ``(..., da)`` of bras and kets (given as kets),
    from ``r = _block_rows(rho)``: the coefficients ``<bra|a><c|ket>`` of
    every block ``R_ac``, then one matmul."""
    da = r.shape[0]
    coef = bras.conj()[..., :, None] * kets[..., None, :]
    return (coef.reshape(-1, da * da) @ r.reshape(da * da, -1)).reshape(coef.shape[:-2] + (-1,))


def _block_pinch_distances(r: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Distance from ``rho`` to its pinching in each basis, shape (G,):
    half the trace norm of the off-diagonal blocks, which on 2 (x) 2 is
    ``||M_01||_1 = sqrt(||M_01||_F^2 + 2|det M_01|)``."""
    g, k, _ = bases.shape
    db = math.isqrt(r.shape[1] // len(r))
    if k == 2 and db == 2:
        b = _block_between(r, bases[:, 0], bases[:, 1])
        frob = np.sum(b.real**2 + b.imag**2, axis=-1)
        return np.sqrt(frob + 2.0 * np.abs(b[:, 0] * b[:, 3] - b[:, 1] * b[:, 2]))
    off = _block_between(r, bases[:, :, None], bases[:, None]).reshape(g, k, k, db, db)
    off[:, range(k), range(k)] = 0.0
    return herm.half_trace_norm(off.swapaxes(2, 3).reshape(g, k * db, k * db))


def _block_measured_J(r: np.ndarray, bases: np.ndarray, s_b: float) -> np.ndarray:
    """``S(B) - sum_k p_k S(tau_k / p_k)`` per basis from the diagonal
    blocks ``tau_k = M_kk``, shape (G,).  Outcomes with
    ``p_k <= ZERO_WEIGHT_TOL`` are skipped, and normalized eigenvalues at
    or below ``herm.ENTROPY_EIG_FLOOR`` add nothing."""
    taus = _block_between(r, bases, bases)
    db = math.isqrt(taus.shape[-1])
    if db == 2:
        a, d = taus[..., 0].real, taus[..., 3].real
        mid, rad = (a + d) / 2.0, np.hypot((a - d) / 2.0, np.abs(taus[..., 1]))
        w = np.stack([mid - rad, mid + rad], axis=-1)
    else:
        w = np.linalg.eigvalsh(taus.reshape(taus.shape[:-1] + (db, db)))
    p = np.sum(w, axis=-1)
    kept = p > ZERO_WEIGHT_TOL
    w = w / np.where(kept, p, 1.0)[..., None]
    w = np.where(w > herm.ENTROPY_EIG_FLOOR, w, 1.0)
    entropy = -np.sum(w * np.log2(w), axis=-1)
    return s_b - np.sum(np.where(kept, p * entropy, 0.0), axis=-1)


# The points of the Nelder-Mead refinement.  The driver is the library's
# own port of scipy's (``neldermead.py``): it visits the same points, and
# ties in the simplex are ordered by ``np.argsort`` as scipy orders them.
# A qubit point arrives as two float angles and is scored with scalar
# arithmetic (2.6 us for the pinching and 12 us for the entropic score on
# 2 (x) 2, against 26 us for one stacked pinching call; 2 vCPUs), so
# qubit restarts run one after another, one point per call.
# The qutrit restarts run in lockstep, and each round's points come as one
# stack of bases: their pinching distances are ``_block_pinch_distances``
# of that stack, and their entropic scores read the diagonal blocks of the
# stack once and score each basis with ``_point_measured_J`` from lists
# (the stacked ``_block_measured_J`` takes ``np.log2`` and ``np.hypot`` of
# arrays, and its last bits differ).  A stacked step gives each basis the
# bits it would get alone, so every search value is the one the restarts
# gave run one at a time (``tests/oracles.py::qutrit_search_sequential``).


def _cse(theta: float, phi: float) -> tuple[float, float, complex]:
    return math.cos(theta / 2.0), math.sin(theta / 2.0), cmath.exp(1j * phi)


def _trace_norm(b: list[complex]) -> float:
    """Trace norm of one flattened square block: for 2 x 2 it is
    ``sqrt(||b||_F^2 + 2 |det b|)``, else the sum of singular values."""
    if len(b) == 4:
        w, x, y, z = b
        frob = abs(w) ** 2 + abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2
        return math.sqrt(frob + 2.0 * abs(w * z - x * y))
    db = math.isqrt(len(b))
    return float(np.sum(np.linalg.svd(np.reshape(b, (db, db)), compute_uv=False)))


def _block_eigvalsh(tau: list[complex]) -> list[float]:
    """Eigenvalues of one flattened Hermitian block: for 2 x 2 they are
    ``mean -+ hypot(half difference, |off-diagonal|)``."""
    if len(tau) == 4:
        a, b, _, d = tau
        mid, rad = (a.real + d.real) / 2.0, math.hypot((a.real - d.real) / 2.0, abs(b))
        return [mid - rad, mid + rad]
    db = math.isqrt(len(tau))
    return np.linalg.eigvalsh(np.reshape(tau, (db, db))).tolist()


def _point_measured_J(taus, s_b: float) -> float:
    """``_block_measured_J`` of one basis from its flattened diagonal
    blocks ``taus`` (lists), with the same outcome and eigenvalue cut-offs;
    for a basis ``(da, da)`` they are ``_block_between(r, basis, basis)``."""
    out = s_b
    for tau in taus:
        w = _block_eigvalsh(tau)
        p = sum(w)
        if p > ZERO_WEIGHT_TOL:
            w = [v / p for v in w if v / p > herm.ENTROPY_EIG_FLOOR]
            out -= p * -sum(v * math.log2(v) for v in w)
    return out


def _qubit_pinch_distance(r: np.ndarray):
    """The pinching distance at ``_basis_from_angles(theta, phi)``, whose
    rows are ``(c, s e)`` and ``(s, -c e)``, as a function of the angles:
    the trace norm of ``M_01 = cs (R_00 - R_11) - c^2 e R_01 + s^2 e* R_10``."""
    r00, r01, r10, r11 = r.reshape(4, -1).tolist()
    diff = [a - b for a, b in zip(r00, r11)]

    def score(theta: float, phi: float) -> float:
        c, s, e = _cse(theta, phi)
        cs, c2e, s2e = c * s, c * c * e, s * s * e.conjugate()
        return _trace_norm([cs * x - c2e * y + s2e * z for x, y, z in zip(diff, r01, r10)])

    return score


def _qubit_measured_J(r: np.ndarray, s_b: float):
    """``_point_measured_J`` at ``_basis_from_angles(theta, phi)`` as a function
    of the angles, from ``M_00 = c^2 R_00 + s^2 R_11 + h`` and
    ``M_11 = s^2 R_00 + c^2 R_11 - h`` with ``h = cs (e R_01 + e* R_10)``."""
    r00, r01, r10, r11 = r.reshape(4, -1).tolist()

    def score(theta: float, phi: float) -> float:
        c, s, e = _cse(theta, phi)
        cs, c2, s2, ec = c * s, c * c, s * s, e.conjugate()
        h = [cs * (e * y + ec * z) for y, z in zip(r01, r10)]
        m00 = [c2 * a + s2 * b + t for a, b, t in zip(r00, r11, h)]
        m11 = [s2 * a + c2 * b - t for a, b, t in zip(r00, r11, h)]
        return _point_measured_J((m00, m11), s_b)

    return score


def _expi(h: np.ndarray) -> np.ndarray:
    """``exp(iH)`` of each Hermitian matrix in a stack ``(..., d, d)``, as
    ``V e^{i lambda} V^+`` from its ``eigh``."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _marginal_a_matrix(rho_mat: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.einsum("abcb->ac", rho_mat.reshape(da, db, da, db))


def _marginal_b_matrix(rho_mat: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.einsum("abad->bd", rho_mat.reshape(da, db, da, db))


def _kets_from_family(family: tuple[StateVec, ...]) -> np.ndarray:
    """Each member's top eigenvector, as rows, for a family that passed ``_require_family``."""
    return np.array([np.linalg.eigh(psi.matrix())[1][:, -1] for psi in family])


def _quantum_decomposition(
    ab: TheoryModel, kets: np.ndarray, taus: np.ndarray
) -> NullDiscordDecomposition:
    """The decomposition over the basis ``kets`` with blocks ``taus``,
    whose traces are the weights."""
    fa, fb = ab.factors
    weights = [float(np.trace(tau).real) for tau in taus]
    return _decomposition(basis_family(fa, kets), weights, taus, fb.state_from_matrix)


# ---------------------------------------------------------------------------
# fixed-point (pinching) analysis


def _require_basis(basis, da: int) -> np.ndarray:
    """``basis`` as a finite, orthonormal ``(da, da)`` array of kets (rows)."""
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (da, da):
        raise InvalidStateError(f"basis must be a ({da}, {da}) array of kets")
    if not np.all(np.isfinite(basis)):
        raise InvalidStateError("basis entries must be finite")
    gram = basis @ basis.conj().T
    if np.max(np.abs(gram - np.eye(da))) > 1e-8:
        raise InvalidStateError("basis is not orthonormal")
    return basis


def check_vonneumann_fixed_point(rho: StateVec, basis: np.ndarray, tol: float = FIXED_POINT_TOL) -> bool:
    """Whether pinching in ``basis`` (rows are kets) leaves ``rho`` unchanged,
    to ``tol`` in each Hermitian-basis coordinate.  A negative, non-finite
    or bool ``tol`` raises ``ValueError``."""
    require_tolerance("tol", tol)
    da, db = (f.quantum_levels for f in _require_state(rho, quantum=True))
    basis = _require_basis(basis, da)
    residual = _pinch_residuals(rho.matrix(), basis[None], da, db, rho.system.herm_basis)[0]
    return bool(residual <= tol)


def find_fixed_point_basis(rho: StateVec, config: SearchConfig | None = None) -> np.ndarray | None:
    """Search for a measurement basis whose pinching fixes ``rho``.

    The candidates, in order, are the eigenbasis of the first marginal
    and the eigenbases of three conditional compressions
    ``(I (x) <phi|) rho (I (x) |phi>)`` at probe vectors ``phi`` drawn
    from ``config.seed``.  Returns the first candidate that passes
    ``check_vonneumann_fixed_point``, or None when none of the four does.

    For a classical-quantum state ``sum_k p_k |k><k| (x) tau_k`` each
    compression is diagonal in ``{|k>}``, with entries
    ``p_k <phi|tau_k|phi>``.  Two entries tie at a random ``phi`` (with
    probability one) only when ``p_k tau_k = p_l tau_l``, and then any
    basis of that pair fixes the state, so the candidates recognize
    every cq state, degenerate weights included.  A state within a few
    times the check's tolerance of a cq state can read either way.
    """
    cfg = config or DEFAULT_CONFIG
    da, db = (f.quantum_levels for f in _require_state(rho, quantum=True))
    rho_mat = rho.matrix()
    rr = rho_mat.reshape(da, db, da, db)

    _, u = np.linalg.eigh(_marginal_a_matrix(rho_mat, da, db))
    candidates: list[np.ndarray] = [u.T.copy()]

    rng = np.random.default_rng(cfg.seed)
    for _ in range(3):
        phi = random_pure_ket(db, rng)
        compression = np.einsum("abcd,b,d->ac", rr, phi.conj(), phi)
        _, uc = np.linalg.eigh(compression)
        candidates.append(uc.T.copy())

    for basis in candidates:
        if check_vonneumann_fixed_point(rho, basis):
            return basis
    return None


# ---------------------------------------------------------------------------
# distance to a fixed family


def _polytope_distance_to_family(
    rho: StateVec, family: tuple[StateVec, ...]
) -> tuple[float, NullDiscordDecomposition, EffectVec]:
    """Exact inner minimum over weights and conditionals, as one LP.

    The operational distance ``max_a a.(rho - sigma)`` over the dual
    effect polytope equals ``min { sum mu : V^T (mu - nu) = rho - sigma }``
    by LP duality, so minimizing jointly over the decomposable states
    ``sigma = sum_kj c_kj psi_k (x) w_j`` stays a single linear program;
    the equality multipliers recover the optimal discrimination effect.
    """
    ab = rho.system
    _, th_b = ab.factors
    pure = ab.pure_state_coords
    m, dim = pure.shape
    b_vertices = th_b.pure_state_coords
    mb = b_vertices.shape[0]
    k = len(family)

    # column (i, j) is kron(family[i], b_vertices[j]), built by one broadcast
    fam = np.array([psi.coords for psi in family])
    W = (fam[:, None, :, None] * b_vertices[None, :, None, :]).reshape(k * mb, dim).T
    A_eq = np.hstack([pure.T, -pure.T, W])
    A_eq = np.vstack([A_eq, np.concatenate([np.zeros(2 * m), np.ones(k * mb)])])
    b_eq = np.concatenate([rho.coords, [1.0]])
    cost = np.concatenate([np.ones(m), np.zeros(m + k * mb)])
    res = solve_lp(cost, A_eq, b_eq)
    if res.status != OPTIMAL:
        raise InvalidStateError("family distance LP failed; invalid input state")

    coeff = res.x[2 * m :].reshape(k, mb)
    weights = [float(np.sum(c)) for c in coeff]
    decomp = _decomposition(family, weights, [c @ b_vertices for c in coeff], th_b.state)
    effect = ab.effect(res.dual_eq[:dim])
    return max(float(res.objective), 0.0), decomp, effect


def distance_to_family(
    rho: StateVec,
    family: list[StateVec],
) -> tuple[float, NullDiscordDecomposition]:
    """Minimum operational distance from ``rho`` to states decomposable
    over the given jointly-distinguishable pure family.

    Exact (single LP) on the polytope backend.  On the quantum backend
    the fixed-basis solver of ``opdiscord.fixedbasis`` runs to its
    primal-dual gap, and the value is the exact distance to the returned
    decomposition.
    """
    fa, fb = _require_state(rho)
    family = _require_family(family, fa)
    if rho.system.backend == POLYTOPE:
        value, decomp, _ = _polytope_distance_to_family(rho, family)
        return value, decomp

    kets = _kets_from_family(family)
    rho_mat = rho.matrix()
    solution = solve_fixed_basis(rho_mat, kets[None], fb.quantum_levels)
    return float(solution.value[0]), _quantum_decomposition(rho.system, kets, solution.taus[0])


# ---------------------------------------------------------------------------
# the discord functional


def _quantum_basis_search(
    r: np.ndarray,
    cfg: SearchConfig,
    grid_objective,
    point_objective,
) -> tuple[np.ndarray, float, int]:
    """Grid plus Nelder-Mead refinement over measurement bases, for the
    state whose blocks are ``r = _block_rows(rho)``.

    ``grid_objective`` maps a ``(G, da, da)`` stack of bases (rows are
    kets) to ``G`` scores; the whole grid is scored in one call,
    and ties resolve to the lowest grid index.  The best ``cfg.restarts``
    points then seed one Nelder-Mead run each, over the Bloch angles of
    the first ket for a qubit and over a Hermitian generator ``H``
    rotating the start basis by ``exp(iH)`` otherwise.  The refinement's
    points are scored by ``point_objective``: for a qubit from the angles
    ``(theta, phi)`` of ``_basis_from_angles``, passed as floats, one
    point per call; otherwise from a ``(P, da, da)`` stack of bases, to a
    list of ``P`` values.  Both equal ``grid_objective`` up to rounding.

    The runs use the library's own port of scipy's Nelder-Mead
    (``neldermead``), which returns the same points and evaluation counts.
    Its simplex is ordered by value; when two values tie (the 3 (x) 2
    generator has flat directions) the order among them is
    ``np.argsort``'s, as in scipy.

    The qutrit restarts run in lockstep (``minimize_stack``): each round
    builds the pending points' bases of every live run as one stack and
    scores it in one call, so numpy's per-call cost, which sets the cost
    of one 3 (x) 2 point, is paid once per round.  Qubit restarts run one
    after another (``minimize``), since a qubit point's scalar score costs
    less than one stacked call.  Every stacked step makes, for each basis,
    the BLAS or LAPACK call that one basis alone makes, so the search
    returns bit for bit what the restarts return run one at a time.

    Returns the best basis, its score and the number of scores taken:
    the grid, each run's ``nfev`` and one final score per run.
    """
    da = len(r)
    grid = _grid_bases(da, cfg)
    scores = grid_objective(grid)
    order = np.argsort(scores, kind="stable")
    best_idx = int(order[0])
    best_basis, best_val = grid[best_idx].copy(), float(scores[best_idx])

    starts = grid[order[: cfg.restarts]]
    evaluations = len(grid) + len(starts)
    if da == 2:
        for start_basis in starts:
            ket0 = start_basis[0]
            theta = float(2.0 * np.arccos(np.clip(np.abs(ket0[0]), 0.0, 1.0)))
            phi = float(np.angle(ket0[1])) if abs(ket0[1]) > 1e-12 else 0.0
            res = minimize(lambda x: point_objective(*x), [theta, phi], cfg.refine_iters, xatol=1e-10, fatol=1e-12)
            evaluations += res.nfev
            val = point_objective(*res.x)
            if val < best_val:
                best_val, best_basis = val, _basis_from_angles(*res.x)
        return best_basis, best_val, evaluations

    hb = herm.hermitian_basis(da).reshape(da * da, da * da)

    def bases_of(points, owners):
        # ``xs[:, None, :] @ hb`` makes one vector-matrix product per point,
        # as ``x @ hb`` does; ``xs @ hb`` would be one matrix product, whose
        # last bits differ.  The start bases enter as transposed views, the
        # layout of ``start.T`` for one basis.
        h = (np.array(points)[:, None, :] @ hb).reshape(-1, da, da)
        return (_expi(h) @ starts[owners].swapaxes(-1, -2)).swapaxes(-1, -2)

    def score(points, owners):
        return point_objective(bases_of(points, owners))

    runs = minimize_stack(score, [[0.0] * (da * da)] * len(starts), cfg.refine_iters, xatol=1e-10, fatol=1e-12)
    if runs:
        finals = bases_of([res.x for res in runs], list(range(len(runs))))
        evaluations += sum(res.nfev for res in runs)
        for basis, val in zip(finals, point_objective(finals)):
            if val < best_val:
                best_val, best_basis = val, basis
    return best_basis, best_val, evaluations


def _quantum_discord(rho: StateVec, cfg: SearchConfig) -> DiscordResult:
    """The pinching of a fixed-point basis, else the fixed-basis solution
    at the searched basis; the value and certificate are the Helstrom
    step of ``rho`` minus that cq state; ``rho`` has passed the gate."""
    ab = rho.system
    da, db = (f.quantum_levels for f in ab.factors)
    rho_mat = rho.matrix()

    basis = find_fixed_point_basis(rho, cfg)
    if basis is not None:
        taus = _blocks(rho_mat, basis[None], da, db)[0]
        evaluations = 1
        converged = True
    else:
        r = _block_rows(rho_mat, da, db)
        if da == 2:
            point = _qubit_pinch_distance(r)
        else:

            def point(bases: np.ndarray) -> list[float]:
                return _block_pinch_distances(r, bases).tolist()

        basis, _, evaluations = _quantum_basis_search(r, cfg, functools.partial(_block_pinch_distances, r), point)
        # the exact optimum over weights and conditionals at the winning
        # basis, started from its pinching
        solution = solve_fixed_basis(rho_mat, basis[None], db)
        evaluations += int(solution.iterations[0])
        taus = solution.taus[0]
        converged = bool(solution.value[0] - solution.lower[0] <= gap_tolerance(da))

    value, effect = _helstrom(ab, rho_mat - _cq_matrix(basis[None], taus[None])[0])
    return DiscordResult(
        value=value,
        optimizer=_quantum_decomposition(ab, basis, taus),
        certificate_effect=effect,
        outer_evaluations=evaluations,
        converged=converged,
    )


def discord(rho: StateVec, config: SearchConfig | None = None) -> DiscordResult:
    """Minimum operational distance from ``rho`` to the null-discord set.

    Exact on the polytope backend (finite family enumeration, exact
    inner LPs); a flagged upper bound on the quantum backend.
    """
    cfg = config or DEFAULT_CONFIG
    fa, _ = _require_state(rho)

    if rho.system.backend == POLYTOPE:
        families = maximal_distinguishable_pure_families(fa)
        best = None
        for fam in families:
            value, decomp, effect = _polytope_distance_to_family(rho, fam)
            if best is None or value < best[0] - 1e-12:
                best = (value, decomp, effect)
        return DiscordResult(*best, outer_evaluations=len(families), converged=True)
    return _quantum_discord(rho, cfg)


def is_null_discord(
    rho: StateVec,
    tol: float | None = None,
    config: SearchConfig | None = None,
) -> tuple[bool, NullDiscordDecomposition | None]:
    """Membership in the null-discord set.

    Polytope: exact (discord value against ``tol``).  Quantum: the
    discord upper bound must vanish *and* the pinching fixed-point
    search must succeed; the two must agree for a positive verdict.
    ``tol`` replaces ``config.tol_zero`` and follows its rule: a negative
    or non-finite value raises ``ValueError``.
    """
    cfg = config or DEFAULT_CONFIG
    if tol is not None:
        cfg = replace(cfg, tol_zero=tol)
    result = discord(rho, cfg)
    verdict = result.value <= cfg.tol_zero
    if rho.system.backend == QUANTUM:
        verdict = verdict and find_fixed_point_basis(rho, cfg) is not None
    return (verdict, result.optimizer if verdict else None)


# ---------------------------------------------------------------------------
# entropic discord (quantum backend)


def _entropies(rho: StateVec) -> tuple[float, float, float, np.ndarray, int, int]:
    da, db = (f.quantum_levels for f in _require_state(rho, quantum=True))
    rho_mat = rho.matrix()
    s_a = herm.entropy_bits(_marginal_a_matrix(rho_mat, da, db))
    s_b = herm.entropy_bits(_marginal_b_matrix(rho_mat, da, db))
    s_ab = herm.entropy_bits(rho_mat)
    return s_a, s_b, s_ab, rho_mat, da, db


def mutual_information(rho: StateVec) -> float:
    """``S(A) + S(B) - S(AB)`` in bits."""
    s_a, s_b, s_ab, _, _, _ = _entropies(rho)
    return s_a + s_b - s_ab


def conditional_J(rho: StateVec, basis: np.ndarray) -> float:
    """``S(B) - sum_i p_i S(B | outcome i)`` for a von Neumann measurement."""
    da, db = (f.quantum_levels for f in _require_state(rho, quantum=True))
    basis = _require_basis(basis, da)
    rho_mat = rho.matrix()
    s_b = herm.entropy_bits(_marginal_b_matrix(rho_mat, da, db))
    return float(_block_measured_J(_block_rows(rho_mat, da, db), basis[None], s_b)[0])


def quantum_discord_entropy(rho: StateVec, config: SearchConfig | None = None) -> EntropyReport:
    """Entropic discord, minimized over rank-one von Neumann measurements
    with the same grid-plus-refinement machinery as the operational search."""
    cfg = config or DEFAULT_CONFIG
    s_a, s_b, s_ab, rho_mat, da, db = _entropies(rho)
    info = s_a + s_b - s_ab

    r = _block_rows(rho_mat, da, db)

    def grid_objective(bases: np.ndarray) -> np.ndarray:
        return info - _block_measured_J(r, bases, s_b)

    if da == 2:
        measured = _qubit_measured_J(r, s_b)

        def point_objective(theta: float, phi: float) -> float:
            return info - measured(theta, phi)
    else:

        def point_objective(bases: np.ndarray) -> list[float]:
            return [info - _point_measured_J(taus, s_b) for taus in _block_between(r, bases, bases).tolist()]

    basis, best, _ = _quantum_basis_search(r, cfg, grid_objective, point_objective)
    j_val = info - best
    return EntropyReport(
        S_A=s_a,
        S_B=s_b,
        S_AB=s_ab,
        mutual_information=info,
        J_value=j_val,
        discord_value=max(best, 0.0),
        optimal_measurement=basis,
    )
