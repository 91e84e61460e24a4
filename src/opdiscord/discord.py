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
from scipy.optimize import minimize

from . import herm
from .config import DEFAULT_CONFIG, SearchConfig
from .discrimination import (  # noqa: F401  (_grid_stack stays reachable from here)
    _basis_from_angles,
    _grid_bases,
    _grid_stack,
    _helstrom,
    are_perfectly_distinguishable,
    maximal_distinguishable_pure_families,
)
from .errors import InvalidStateError, SystemMismatchError, UnsupportedBackendError
from .fixedbasis import gap_tolerance, solve_fixed_basis
from .lp import OPTIMAL, solve_lp
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
DEGENERACY_GAP = 1e-8
ROTATION_GRID = 24


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
        sys_a = self.family[0].system
        sys_b = self.conditionals[0].system
        for psi in self.family:
            if not psi.system.is_same(sys_a):
                raise InvalidStateError("family members live on different systems")
            if not is_pure(psi, 1e-8):
                raise InvalidStateError("family member is not a pure state")
        for sigma in self.conditionals:
            if not sigma.system.is_same(sys_b):
                raise InvalidStateError("conditionals live on different systems")
            if not sigma.normalized or not state_in_cone(sigma):
                raise InvalidStateError("conditional is not a valid normalized state")
        cert = are_perfectly_distinguishable(list(self.family))
        if not cert.distinguishable:
            raise InvalidStateError("family is not jointly perfectly distinguishable")


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
# shared quantum helpers


def _require_bipartite(rho: StateVec) -> tuple[TheoryModel, TheoryModel]:
    if not rho.system.is_composite:
        raise SystemMismatchError("a bipartite state is required")
    return rho.system.factors


def _require_quantum_bipartite(rho: StateVec) -> tuple[int, int]:
    fa, fb = _require_bipartite(rho)
    if rho.system.backend != QUANTUM:
        raise UnsupportedBackendError("operation requires the quantum backend")
    return fa.quantum_levels, fb.quantum_levels


def _require_quantum_state(rho: StateVec) -> tuple[int, int]:
    """Levels of a quantum bipartite ``rho``, which must be positive semidefinite."""
    levels = _require_quantum_bipartite(rho)
    validate_state(rho)
    return levels


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


def _frame_stack(r: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """All blocks ``M_kl`` of each basis in a stack ``(G, K, da)``,
    ``(G, K, K, db*db)``."""
    return _block_between(r, bases[:, :, None], bases[:, None])


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
    off = _frame_stack(r, bases).reshape(g, k, k, db, db)
    off[:, range(k), range(k)] = 0.0
    return herm.half_trace_norm(off.swapaxes(2, 3).reshape(g, k * db, k * db))


def _off_diagonal_norms(r: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """``sqrt(sum_{k != l} ||M_kl||_F^2)`` per basis: the Frobenius norm
    of ``rho`` minus its pinching, summed from the off-diagonal blocks
    themselves (``||rho||^2 - sum_k ||tau_k||^2`` would cancel).  For a
    qubit first factor ``M_10 = M_01^+``, so the sum is ``2 ||M_01||_F^2``:
    one block instead of four (0.2 against 1.6 ms on 2576 bases, 2 vCPUs;
    it halves the fixed-point search on a 2 (x) 2 state)."""
    if bases.shape[1] == 2:
        b = _block_between(r, bases[:, 0], bases[:, 1])
        return np.sqrt(2.0 * np.sum(b.real**2 + b.imag**2, axis=-1))
    m = _frame_stack(r, bases)
    sq = np.sum(m.real**2 + m.imag**2, axis=-1)
    return np.sqrt(np.sum(sq * (1.0 - np.eye(bases.shape[1])), axis=(-2, -1)))


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


# One point of the Nelder-Mead refinement at a time.  A qubit point is
# scored from its angles with scalar arithmetic.  A qutrit point's
# pinching distance is the stacked score of a stack of one, but its
# entropic score reads the diagonal blocks as lists: on one 3 (x) 2 basis
# numpy's per-call cost makes ``_block_measured_J`` twice as slow
# (34 against 17 us, 2 vCPUs), enough to lengthen the benchmark's
# latency tail, which the qutrit items set, by about a fifth.


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
    """``exp(iH)`` of a Hermitian matrix, as ``V e^{i lambda} V^+`` from its ``eigh``."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _marginal_a_matrix(rho_mat: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.einsum("abcb->ac", rho_mat.reshape(da, db, da, db))


def _marginal_b_matrix(rho_mat: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.einsum("abad->bd", rho_mat.reshape(da, db, da, db))


def _kets_from_family(family: tuple[StateVec, ...]) -> np.ndarray:
    kets = []
    for psi in family:
        mat = psi.matrix()
        w, u = np.linalg.eigh(mat)
        if w[-1] < 1.0 - 1e-8:
            raise InvalidStateError("family member is not a rank-one projector")
        kets.append(u[:, -1])
    kets = np.array(kets)
    gram = kets @ kets.conj().T
    if np.max(np.abs(gram - np.eye(len(kets)))) > 1e-7:
        raise InvalidStateError("family members are not mutually orthogonal")
    return kets


def _angle_grid_bases(n_theta: int, n_phi: int) -> np.ndarray:
    """Qubit bases on the latitude-longitude grid of ``n_theta`` polar
    angles in ``[0, pi]`` and ``n_phi`` azimuths, theta-major, ``(G, 2, 2)``."""
    theta, phi = np.meshgrid(
        np.linspace(0.0, np.pi, n_theta),
        np.linspace(-np.pi, np.pi, n_phi, endpoint=False),
        indexing="ij",
    )
    return _basis_from_angles(theta, phi).reshape(-1, 2, 2)


def _quantum_decomposition(
    ab: TheoryModel, kets: np.ndarray, taus: np.ndarray
) -> NullDiscordDecomposition:
    fa, fb = ab.factors
    family, weights, conditionals = [], [], []
    for ket, tau in zip(kets, taus):
        q = float(np.trace(tau).real)
        if q <= ZERO_WEIGHT_TOL:
            continue
        family.append(fa.state_from_matrix(np.outer(ket, ket.conj())))
        weights.append(q)
        conditionals.append(fb.state_from_matrix(tau / q))
    weights = np.array(weights)
    weights = weights / np.sum(weights)
    return NullDiscordDecomposition(tuple(family), weights, tuple(conditionals))


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
    """Whether pinching in ``basis`` (rows are kets) leaves ``rho`` unchanged."""
    da, db = _require_quantum_bipartite(rho)
    basis = _require_basis(basis, da)
    residual = _pinch_residuals(rho.matrix(), basis[None], da, db, rho.system.herm_basis)[0]
    return bool(residual <= tol)


def _degenerate_rotation_bases(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rotation grid inside degenerate eigenspaces of the marginal.

    Pairs of nearly equal eigenvalues get a full two-parameter rotation
    grid (ROTATION_GRID angles per parameter) applied to their
    eigenvectors; a fully degenerate qubit marginal reduces to a grid
    over all bases.  Returns a ``(R, d, d)`` stack, possibly empty.
    """
    d = len(w)
    clusters = []
    start = 0
    for i in range(1, d + 1):
        if i == d or w[i] - w[i - 1] > DEGENERACY_GAP:
            if i - start >= 2:
                clusters.append((start, i))
            start = i
    rot = _angle_grid_bases(ROTATION_GRID, ROTATION_GRID)
    out = [np.empty((0, d, d), dtype=complex)]
    for lo, hi in clusters:
        for i in range(lo, hi - 1):
            cols = np.broadcast_to(u, rot.shape[:1] + (d, d)).astype(complex)
            sub = u[:, [i, i + 1]]
            cols[..., i] = (sub @ rot[:, 0, :, None])[..., 0]
            cols[..., i + 1] = (sub @ rot[:, 1, :, None])[..., 0]
            out.append(cols.swapaxes(-1, -2))
    return np.concatenate(out)


def find_fixed_point_basis(rho: StateVec, config: SearchConfig | None = None) -> np.ndarray | None:
    """Search for a measurement basis whose pinching fixes ``rho``.

    Candidates, in order: the eigenbasis of the first marginal,
    eigenbases of conditional compressions ``(I (x) <phi|) rho (I (x) |phi>)``
    for a few seeded probe vectors (these recover the basis exactly for
    any classical-quantum state, degenerate weights included), rotation
    grids inside degenerate marginal eigenspaces, and the measurement
    grid.  Returns the first basis passing the fixed-point check, or
    None when the budget is exhausted.  The two grids are built only
    when the first four candidates fail, and only their bases that pass
    an exact Frobenius-norm filter get the full check.
    """
    cfg = config or DEFAULT_CONFIG
    da, db = _require_quantum_bipartite(rho)
    rho_mat = rho.matrix()
    rr = rho_mat.reshape(da, db, da, db)

    w, u = np.linalg.eigh(_marginal_a_matrix(rho_mat, da, db))
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

    # The rotation and measurement grids are built only once those fail.
    # ``herm_basis`` is orthonormal, so the coordinates of ``rho`` minus its
    # pinching have Euclidean norm ``||delta||_F`` and the largest is at
    # least ``||delta||_F / (da*db)``: a basis whose off-diagonal blocks
    # are larger than that allows (twice, for rounding) cannot pass, and
    # only the others get the exact check.
    stack = np.concatenate([_degenerate_rotation_bases(w, u), _grid_bases(da, cfg)])
    norms = _off_diagonal_norms(_block_rows(rho_mat, da, db), stack)
    near = np.flatnonzero(norms <= 2.0 * da * db * FIXED_POINT_TOL)
    residuals = _pinch_residuals(rho_mat, stack[near], da, db, rho.system.herm_basis)
    passing = near[residuals <= FIXED_POINT_TOL]
    return stack[passing[0]].copy() if passing.size else None


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
    th_a, th_b = ab.factors
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
    family_out, weights, conditionals = [], [], []
    for idx in range(k):
        q = float(np.sum(coeff[idx]))
        if q <= ZERO_WEIGHT_TOL:
            continue
        family_out.append(family[idx])
        weights.append(q)
        conditionals.append(th_b.state(coeff[idx] @ b_vertices / q))
    weights = np.array(weights)
    weights = weights / np.sum(weights)
    decomp = NullDiscordDecomposition(tuple(family_out), weights, tuple(conditionals))
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
    fa, fb = _require_bipartite(rho)
    family = tuple(family)
    if len(family) == 0:
        raise InvalidStateError("family must be non-empty")
    for psi in family:
        if not psi.system.is_same(fa):
            raise InvalidStateError("family members must live on the first factor")
        if not is_pure(psi, 1e-8):
            raise InvalidStateError("family members must be pure")
    if not rho.normalized:
        raise InvalidStateError("distance is defined for normalized states")

    if rho.system.backend == POLYTOPE:
        cert = are_perfectly_distinguishable(list(family))
        if not cert.distinguishable:
            raise InvalidStateError("family is not jointly perfectly distinguishable")
        value, decomp, _ = _polytope_distance_to_family(rho, family)
        return value, decomp

    da, db = _require_quantum_state(rho)
    kets = _kets_from_family(family)
    rho_mat = rho.matrix()
    solution = solve_fixed_basis(rho_mat, kets[None], db)
    return float(solution.value[0]), _quantum_decomposition(rho.system, kets, solution.taus[0])


# ---------------------------------------------------------------------------
# the discord functional


def _quantum_basis_search(
    r: np.ndarray,
    cfg: SearchConfig,
    grid_objective,
    point_objective,
    counter: list[int],
) -> tuple[np.ndarray, float]:
    """Grid plus Nelder-Mead refinement over measurement bases, for the
    state whose blocks are ``r = _block_rows(rho)``.

    ``grid_objective`` maps a ``(G, da, da)`` stack of bases (rows are
    kets) to ``G`` scores; the whole grid is scored in one call,
    and ties resolve to the lowest grid index.  The best ``cfg.restarts``
    points then seed one Nelder-Mead run each, over the Bloch angles of
    the first ket for a qubit and over a Hermitian generator ``H``
    rotating the start basis by ``exp(iH)`` otherwise.  Each of its points
    is scored by ``point_objective``: from the angles ``(theta, phi)`` of
    ``_basis_from_angles`` for a qubit, else from that one basis.  Both equal
    ``grid_objective`` up to rounding.
    """
    da = len(r)
    grid = _grid_bases(da, cfg)
    counter[0] += len(grid)
    scores = grid_objective(grid)
    order = np.argsort(scores, kind="stable")
    best_idx = int(order[0])
    best_basis, best_val = grid[best_idx].copy(), float(scores[best_idx])

    hb = herm.hermitian_basis(da).reshape(da * da, da * da) if da > 2 else None
    for idx in order[: cfg.restarts]:
        start_basis = grid[int(idx)]
        if da == 2:
            ket0 = start_basis[0]
            theta = 2.0 * np.arccos(np.clip(np.abs(ket0[0]), 0.0, 1.0))
            phi = float(np.angle(ket0[1])) if abs(ket0[1]) > 1e-12 else 0.0
            x0 = np.array([theta, phi])

            def basis_of(x):
                return _basis_from_angles(*x.tolist())

            def value_at(x):
                return point_objective(*x.tolist())
        else:
            u0 = start_basis.T
            x0 = np.zeros(da * da)

            def basis_of(x):
                return (_expi((x @ hb).reshape(da, da)) @ u0).T

            def value_at(x):
                return point_objective(basis_of(x))

        def score(x):
            counter[0] += 1
            return value_at(x)

        res = minimize(
            score,
            x0,
            method="Nelder-Mead",
            options={"maxiter": cfg.refine_iters, "xatol": 1e-10, "fatol": 1e-12},
        )
        val = score(res.x)
        if val < best_val:
            best_val, best_basis = val, basis_of(res.x)
    return best_basis, best_val


def _quantum_discord(rho: StateVec, cfg: SearchConfig) -> DiscordResult:
    """The pinching of a fixed-point basis, else the fixed-basis solution
    at the searched basis; the value and certificate are the Helstrom
    step of ``rho`` minus that cq state."""
    da, db = _require_quantum_state(rho)
    ab = rho.system
    rho_mat = rho.matrix()
    counter = [0]

    basis = find_fixed_point_basis(rho, cfg)
    if basis is not None:
        taus = _blocks(rho_mat, basis[None], da, db)[0]
        counter[0] += 1
        converged = True
    else:
        r = _block_rows(rho_mat, da, db)
        if da == 2:
            point = _qubit_pinch_distance(r)
        else:

            def point(b: np.ndarray) -> float:
                return float(_block_pinch_distances(r, b[None])[0])

        basis, _ = _quantum_basis_search(r, cfg, functools.partial(_block_pinch_distances, r), point, counter)
        # the exact optimum over weights and conditionals at the winning
        # basis, started from its pinching
        solution = solve_fixed_basis(rho_mat, basis[None], db)
        counter[0] += int(solution.iterations[0])
        taus = solution.taus[0]
        converged = bool(solution.value[0] - solution.lower[0] <= gap_tolerance(da))

    value, effect = _helstrom(ab, rho_mat - _cq_matrix(basis[None], taus[None])[0])
    return DiscordResult(
        value=value,
        optimizer=_quantum_decomposition(ab, basis, taus),
        certificate_effect=effect,
        outer_evaluations=counter[0],
        converged=converged,
    )


def discord(rho: StateVec, config: SearchConfig | None = None) -> DiscordResult:
    """Minimum operational distance from ``rho`` to the null-discord set.

    Exact on the polytope backend (finite family enumeration, exact
    inner LPs); a flagged upper bound on the quantum backend.
    """
    cfg = config or DEFAULT_CONFIG
    fa, fb = _require_bipartite(rho)
    if not rho.normalized:
        raise InvalidStateError("discord is defined for normalized states")

    if rho.system.backend == POLYTOPE:
        families = maximal_distinguishable_pure_families(fa)
        best = None
        for fam in families:
            value, decomp, effect = _polytope_distance_to_family(rho, fam)
            if best is None or value < best[0] - 1e-12:
                best = (value, decomp, effect)
        value, decomp, effect = best
        return DiscordResult(
            value=value,
            optimizer=decomp,
            certificate_effect=effect,
            outer_evaluations=len(families),
            converged=True,
        )
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
    da, db = _require_quantum_state(rho)
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
    da, db = _require_quantum_state(rho)
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
    else:

        def measured(b: np.ndarray) -> float:
            return _point_measured_J(_block_between(r, b, b).tolist(), s_b)

    def point_objective(*x) -> float:
        return info - measured(*x)

    basis, best = _quantum_basis_search(r, cfg, grid_objective, point_objective, [0])
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
