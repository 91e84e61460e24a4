"""Independent oracles used to derive and verify expected values.

Everything here is deliberately written against a different code path
than the package: brute-force enumeration, direct index summation,
scipy's LP solver, and a scalar-loop form of the package's simplex.
Values frozen into the tests were computed with these oracles first.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

# ---------------------------------------------------------------------------
# elementary oracles


def tv_distance(p, q) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def partial_trace(mat: np.ndarray, da: int, db: int, keep: str) -> np.ndarray:
    """Direct index-summation partial trace of a (da*db) x (da*db) matrix."""
    out_dim = da if keep == "A" else db
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    if keep == "A" and j == l:
                        out[i, k] += mat[i * db + j, k * db + l]
                    if keep == "B" and i == k:
                        out[j, l] += mat[i * db + j, k * db + l]
    return out


def affine_rank(points: np.ndarray) -> int:
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        return 0
    return int(np.linalg.matrix_rank(points[1:] - points[0], tol=1e-9))


def helstrom_value(m0: np.ndarray, m1: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m0 - m1))))


# ---------------------------------------------------------------------------
# polytope geometry oracles


def dual_polytope_extreme_points(vertices: np.ndarray) -> list[np.ndarray]:
    """Extreme points of ``{a : 0 <= a.v <= 1 for all v}`` by brute-force
    intersection of constraint hyperplanes (dimension-many at a time)."""
    vertices = np.asarray(vertices, dtype=float)
    dim = vertices.shape[1]
    planes = [(v, 0.0) for v in vertices] + [(v, 1.0) for v in vertices]
    found: list[np.ndarray] = []
    for combo in itertools.combinations(range(len(planes)), dim):
        normals = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(normals)) < 1e-9:
            continue
        a = np.linalg.solve(normals, rhs)
        vals = vertices @ a
        if np.all(vals >= -1e-9) and np.all(vals <= 1.0 + 1e-9):
            if not any(np.allclose(a, b, atol=1e-8) for b in found):
                found.append(a)
    return found


def distinguishability_lp_rows(pure: np.ndarray, state_coords: np.ndarray, det: np.ndarray):
    """``(A, b)`` of the perfect-distinguishability LP, one row at a time:
    for each effect block the rows ``a_k . v - slack = 0`` over the pure
    states ``v``, then ``a_k . rho_i = delta_ki``, then ``sum_k a_k = e``
    per axis.  The free columns are ``(k, pos/neg, axis)``, the slacks follow."""
    m, dim = pure.shape
    k = len(state_coords)
    n_free = 2 * k * dim
    n_slack = k * m
    rows = []
    rhs = []

    def coef_row(block, vec, slack_index):
        row = np.zeros(n_free + n_slack)
        row[2 * block * dim : (2 * block + 1) * dim] = vec
        row[(2 * block + 1) * dim : (2 * block + 2) * dim] = -vec
        if slack_index is not None:
            row[n_free + slack_index] = -1.0
        return row

    for block in range(k):
        for i in range(m):
            rows.append(coef_row(block, pure[i], block * m + i))
            rhs.append(0.0)
    for block in range(k):
        for i, rho in enumerate(state_coords):
            rows.append(coef_row(block, rho, None))
            rhs.append(1.0 if block == i else 0.0)
    for axis in range(dim):
        row = np.zeros(n_free + n_slack)
        for block in range(k):
            row[2 * block * dim + axis] = 1.0
            row[(2 * block + 1) * dim + axis] = -1.0
        rows.append(row)
        rhs.append(det[axis])
    return np.array(rows), np.array(rhs)


def distinguishability_effects_loop(x: np.ndarray, k: int, dim: int) -> list[np.ndarray]:
    """The effects ``pos - neg`` read block by block from the LP solution."""
    effects = []
    for block in range(k):
        pos = x[2 * block * dim : (2 * block + 1) * dim]
        neg = x[(2 * block + 1) * dim : (2 * block + 2) * dim]
        effects.append(pos - neg)
    return effects


def scipy_effect_maximum(pure_states: np.ndarray, delta: np.ndarray) -> float:
    """``max a.delta`` over ``{a : 0 <= a.v <= 1}`` via scipy's LP."""
    m = pure_states.shape[0]
    res = linprog(
        -delta,
        A_ub=np.vstack([pure_states, -pure_states]),
        b_ub=np.concatenate([np.ones(m), np.zeros(m)]),
        bounds=[(None, None)] * delta.shape[0],
        method="highs",
    )
    assert res.status == 0
    return -float(res.fun)


def scipy_distance_to_family(
    rho_coords: np.ndarray,
    composite_pure: np.ndarray,
    family_coords: np.ndarray,
    b_vertices: np.ndarray,
) -> float:
    """The joint inner LP solved with scipy instead of the package solver."""
    m = composite_pure.shape[0]
    cols = [np.kron(psi, w) for psi in family_coords for w in b_vertices]
    W = np.array(cols).T
    nk = W.shape[1]
    A_eq = np.hstack([composite_pure.T, -composite_pure.T, W])
    A_eq = np.vstack([A_eq, np.concatenate([np.zeros(2 * m), np.ones(nk)])])
    b_eq = np.concatenate([rho_coords, [1.0]])
    cost = np.concatenate([np.ones(m), np.zeros(m + nk)])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * (2 * m + nk), method="highs")
    assert res.status == 0
    return float(res.fun)


def row_loop_simplex(c, A, b, tol: float = 1e-9):
    """Two-phase dense simplex with Bland's rule, one tableau row at a time.

    The same arithmetic as ``opdiscord.lp.solve_lp`` written as scalar
    loops: every row update, entering column and ratio test is taken in
    index order.  Returns ``(status, objective, x, dual_eq, iterations)``
    so the vectorized solver can be compared with it bit for bit.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    max_iter = 200 * (m + n + 10)
    row_sign = np.where(b < 0.0, -1.0, 1.0)
    T = np.hstack([A * row_sign[:, None], np.eye(m)])
    rhs = b * row_sign
    basis = list(range(n, n + m))
    iterations = 0

    def pivot(row, col):
        piv = T[row, col]
        T[row] /= piv
        rhs[row] /= piv
        for i in range(m):
            if i != row and abs(T[i, col]) > 0.0:
                f = T[i, col]
                T[i] -= f * T[row]
                rhs[i] -= f * rhs[row]
        basis[row] = col

    def run(cost, allowed):
        nonlocal iterations
        while True:
            if iterations >= max_iter:
                raise RuntimeError("simplex iteration limit exceeded")
            r = cost - cost[basis] @ T
            entering = -1
            for j in range(T.shape[1]):
                if allowed[j] and r[j] < -tol:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            col = T[:, entering]
            best_ratio, leaving = None, -1
            for i in range(m):
                if col[i] > tol:
                    ratio = rhs[i] / col[i]
                    if (
                        best_ratio is None
                        or ratio < best_ratio - tol
                        or (abs(ratio - best_ratio) <= tol and basis[i] < basis[leaving])
                    ):
                        best_ratio, leaving = ratio, i
            if leaving < 0:
                return "unbounded"
            pivot(leaving, entering)
            iterations += 1

    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    assert run(cost1, np.ones(n + m, dtype=bool)) == "optimal"
    if float(cost1[basis] @ rhs) > 1e-7:
        return "infeasible", np.inf, np.zeros(n), np.zeros(m), iterations
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if abs(T[i, j]) > tol:
                    pivot(i, j)
                    break
    c_ext = np.concatenate([c, np.zeros(m)])
    allowed = np.concatenate([np.ones(n, dtype=bool), np.zeros(m, dtype=bool)])
    if run(c_ext, allowed) == "unbounded":
        return "unbounded", -np.inf, np.zeros(n), np.zeros(m), iterations
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rhs[i]
    y = (c_ext[basis] @ T[:, n:]) * row_sign
    return "optimal", float(c @ x), x, y, iterations


def simplex_lattice(cells: int, denominator: int) -> np.ndarray:
    """All probability vectors over ``cells`` with entries k/denominator."""
    rows = []
    for cuts in itertools.combinations(range(denominator + cells - 1), cells - 1):
        prev = -1
        counts = []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(denominator + cells - 2 - prev)
        rows.append(counts)
    return np.asarray(rows, dtype=float) / denominator


def polytope_discord_grid(
    rho_coords: np.ndarray,
    composite_pure: np.ndarray,
    families: list[np.ndarray],
    b_vertices: np.ndarray,
    denominator: int,
) -> float:
    """Brute-force discord: discretize the decomposable set (coefficient
    lattice with the given denominator) and take the best exact
    operational distance, evaluated with scipy's LP."""
    best = np.inf
    for fam in families:
        cols = np.array([np.kron(psi, w) for psi in fam for w in b_vertices])
        grid = simplex_lattice(cols.shape[0], denominator)
        sigmas = grid @ cols
        for sigma in sigmas:
            val = scipy_effect_maximum(composite_pure, rho_coords - sigma)
            best = min(best, val)
    return best


def classical_pair_discord_grid(rho_coords: np.ndarray, n: int, denominator: int) -> float:
    """Specialized fast grid for classical(n) x classical(n): the
    decomposable set is the whole simplex and the distance is total
    variation, so the oracle is a vectorized sweep of the lattice."""
    grid = simplex_lattice(n * n, denominator)
    dists = 0.5 * np.sum(np.abs(grid - rho_coords[None, :]), axis=1)
    return float(np.min(dists))


# ---------------------------------------------------------------------------
# quantum oracles


_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _qubit_from_bloch(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    norm = np.linalg.norm(b)
    if norm > 1.0:
        b = b / norm
    return (np.eye(2, dtype=complex) + b[0] * _SX + b[1] * _SY + b[2] * _SZ) / 2.0


def _batch_cq_sigma(params: np.ndarray) -> np.ndarray:
    """params rows: (theta, phi, q, bloch0[3], bloch1[3]) -> CQ matrices."""
    th, ph = params[:, 0], params[:, 1]
    q = np.clip(params[:, 2], 0.0, 1.0)
    nvec = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
    p0 = (
        np.eye(2, dtype=complex)[None]
        + nvec[:, 0, None, None] * _SX
        + nvec[:, 1, None, None] * _SY
        + nvec[:, 2, None, None] * _SZ
    ) / 2.0
    p1 = np.eye(2, dtype=complex)[None] - p0

    def qubits(blochs):
        b = blochs.copy()
        norms = np.linalg.norm(b, axis=1)
        b = b / np.where(norms > 1.0, norms, 1.0)[:, None]
        return (
            np.eye(2, dtype=complex)[None]
            + b[:, 0, None, None] * _SX
            + b[:, 1, None, None] * _SY
            + b[:, 2, None, None] * _SZ
        ) / 2.0

    s0 = qubits(params[:, 3:6])
    s1 = qubits(params[:, 6:9])
    kron0 = np.einsum("nij,nkl->nikjl", p0, s0).reshape(-1, 4, 4)
    kron1 = np.einsum("nij,nkl->nikjl", p1, s1).reshape(-1, 4, 4)
    return q[:, None, None] * kron0 + (1.0 - q)[:, None, None] * kron1


def zoom_discord_oracle(rho_mat: np.ndarray, levels: int = 6, keep: int = 8) -> float:
    """Brute-force two-qubit discord: a dense grid over antipodal
    measurement families and discretized conditionals, refined by
    deterministic zooming around the best boxes, every candidate scored
    by the exact trace-norm distance."""
    lo = np.array([0.0, -np.pi, 0.0, -1, -1, -1, -1, -1, -1], dtype=float)
    hi = np.array([np.pi, np.pi, 1.0, 1, 1, 1, 1, 1, 1], dtype=float)

    def score(points: np.ndarray) -> np.ndarray:
        sig = _batch_cq_sigma(points)
        w = np.linalg.eigvalsh(rho_mat[None] - sig)
        return np.abs(w).sum(axis=1) / 2.0

    axes = [
        np.linspace(lo[0], hi[0], 5),
        np.linspace(lo[1], hi[1], 7),
        np.linspace(0.0, 1.0, 3),
    ] + [np.linspace(-1.0, 1.0, 3)] * 6
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = score(pts)
    order = np.argsort(vals, kind="stable")
    best = float(vals[order[0]])
    centers = pts[order[:keep]]
    widths = (hi - lo) / np.array([4, 6, 2, 2, 2, 2, 2, 2, 2], dtype=float)
    for _ in range(levels):
        widths = widths / 2.0
        chunks = []
        for c in centers:
            ax = [
                np.clip(np.linspace(c[k] - widths[k], c[k] + widths[k], 3), lo[k], hi[k])
                for k in range(9)
            ]
            mesh = np.meshgrid(*ax, indexing="ij")
            chunks.append(np.stack([m.ravel() for m in mesh], axis=1))
        pts = np.concatenate(chunks)
        vals = score(pts)
        order = np.argsort(vals, kind="stable")
        best = min(best, float(vals[order[0]]))
        centers = pts[order[:keep]]
    return best


def entropy_bits_oracle(mat: np.ndarray) -> float:
    w = np.linalg.eigvalsh(mat)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w))) if w.size else 0.0


def entropic_discord_grid_oracle(rho_mat: np.ndarray, n_theta: int = 80, n_phi: int = 160) -> float:
    """Entropic discord of a two-qubit state over a dense measurement
    grid (no local refinement; pure dense enumeration)."""
    s_a = entropy_bits_oracle(partial_trace(rho_mat, 2, 2, "A"))
    s_b = entropy_bits_oracle(partial_trace(rho_mat, 2, 2, "B"))
    s_ab = entropy_bits_oracle(rho_mat)
    info = s_a + s_b - s_ab
    best_j = -np.inf
    rr = rho_mat.reshape(2, 2, 2, 2)
    for theta in np.linspace(0.0, np.pi, n_theta):
        for phi in np.linspace(-np.pi, np.pi, n_phi, endpoint=False):
            k0 = np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])
            k1 = np.array([np.sin(theta / 2), -np.cos(theta / 2) * np.exp(1j * phi)])
            j = s_b
            for ket in (k0, k1):
                tau = np.einsum("a,abcd,c->bd", ket.conj(), rr, ket)
                p = float(np.trace(tau).real)
                if p > 1e-12:
                    j -= p * entropy_bits_oracle(tau / p)
            best_j = max(best_j, j)
    return info - best_j


# ---------------------------------------------------------------------------
# one-basis-at-a-time forms of the stacked quantum kernel
#
# The package scores whole stacks of measurement bases at once.  These are
# the scalar loops it replaced, kept so the stacked kernel can be compared
# with them bit for bit.  ``kets`` holds one basis, rows are kets.


def kron_cq_matrix(kets: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``sum_k |k><k| (x) tau_k`` as a running sum of ``np.kron`` terms."""
    out = None
    for ket, tau in zip(kets, taus):
        term = np.kron(np.outer(ket, ket.conj()), tau)
        out = term if out is None else out + term
    return out


def basis_blocks(rho_mat: np.ndarray, kets: np.ndarray, da: int, db: int) -> np.ndarray:
    """Diagonal blocks ``(<k| (x) I) rho (|k> (x) I)`` of one basis, (K, db, db)."""
    return np.einsum("ka,abcd,kc->kbd", kets.conj(), rho_mat.reshape(da, db, da, db), kets)


def pinch_distance(rho_mat: np.ndarray, kets: np.ndarray, da: int, db: int) -> float:
    """Half the trace norm of ``rho`` minus its pinching in one basis."""
    delta = rho_mat - kron_cq_matrix(kets, basis_blocks(rho_mat, kets, da, db))
    return float(np.sum(np.abs(np.linalg.eigvalsh(delta))) / 2.0)


def pinch_residual(rho_mat: np.ndarray, kets: np.ndarray, da: int, db: int, herm_basis) -> float:
    """Largest Hermitian-basis coordinate of ``rho`` minus its pinching."""
    diff = rho_mat - kron_cq_matrix(kets, basis_blocks(rho_mat, kets, da, db))
    return float(np.max(np.abs(np.einsum("ij,kji->k", diff, herm_basis).real)))


def measured_J(rho_mat: np.ndarray, kets: np.ndarray, da: int, db: int, s_b: float) -> float:
    """``S(B) - sum_k p_k S(tau_k / p_k)`` outcome by outcome."""
    out = s_b
    for tau in basis_blocks(rho_mat, kets, da, db):
        p = float(np.trace(tau).real)
        if p > 1e-12:
            out -= p * entropy_bits_oracle(tau / p)
    return out


def fixed_point_candidates_loop(rho_mat, da, db, seed):
    """The fixed-point search's four candidates, in order: the marginal
    eigenbasis and three conditional-compression eigenbases at probe
    vectors drawn from ``default_rng(seed)``."""
    rr = rho_mat.reshape(da, db, da, db)
    candidates = [np.linalg.eigh(np.einsum("abcb->ac", rr))[1].T.copy()]
    rng = np.random.default_rng(seed)
    for _ in range(3):
        phi = rng.normal(size=db) + 1j * rng.normal(size=db)
        phi /= np.linalg.norm(phi)
        candidates.append(np.linalg.eigh(np.einsum("abcd,b,d->ac", rr, phi.conj(), phi))[1].T.copy())
    return candidates


def fixed_point_basis_loop(rho_mat, da, db, herm_basis, seed, tol=1e-9):
    """The first of the four candidates that passes the full
    ``pinch_residual`` check, or None."""
    for basis in fixed_point_candidates_loop(rho_mat, da, db, seed):
        if pinch_residual(rho_mat, basis, da, db, herm_basis) <= tol:
            return basis
    return None


def quantum_basis_search_loop(objective, grid, herm_basis, restarts, refine_iters):
    """The basis search as it was before its refinement scored points in
    closed form: the grid scored basis by basis, then one Nelder-Mead run
    from each of the best ``restarts`` points, each point a full basis
    (Bloch angles for a qubit, ``expm(iH) u0`` otherwise) scored by
    ``objective(kets)``.  Returns ``(basis, value)``."""
    from scipy.linalg import expm
    from scipy.optimize import minimize

    scores = np.array([objective(b) for b in grid])
    order = np.argsort(scores, kind="stable")
    best_basis, best_val = grid[order[0]].copy(), float(scores[order[0]])
    da = grid.shape[1]
    for idx in order[:restarts]:
        start = grid[idx]
        if da == 2:
            theta = 2.0 * np.arccos(np.clip(np.abs(start[0, 0]), 0.0, 1.0))
            phi = float(np.angle(start[0, 1])) if abs(start[0, 1]) > 1e-12 else 0.0
            x0 = np.array([theta, phi])

            def basis_of(x):
                return _basis_from_angles(x[0], x[1])
        else:
            u0 = start.T
            x0 = np.zeros(da * da)

            def basis_of(x):
                return (expm(1j * np.einsum("k,kij->ij", x, herm_basis)) @ u0).T

        res = minimize(
            lambda x: objective(basis_of(x)),
            x0,
            method="Nelder-Mead",
            options={"maxiter": refine_iters, "xatol": 1e-10, "fatol": 1e-12},
        )
        cand = basis_of(res.x)
        val = objective(cand)
        if val < best_val:
            best_val, best_basis = val, cand
    return best_basis, best_val


def qutrit_search_sequential(r, cfg, grid_objective, point_objective, counter):
    """The qutrit-first basis search with its refinement one point at a
    time, as the library ran it before its restarts went in lockstep: the
    same grid, then one ``neldermead.minimize`` run per restart, each point's
    basis ``(_expi(x @ hb) @ u0).T`` built alone and scored alone by
    ``point_objective(basis)`` (see ``one_basis_pinch`` and
    ``one_basis_entropic``).  Arguments and result as
    ``opdiscord.discord._quantum_basis_search``, whose evaluation count it
    adds to ``counter[0]`` the same way."""
    from opdiscord.herm import hermitian_basis
    from opdiscord.neldermead import minimize

    kernel = _kernel()
    da = len(r)
    grid = kernel._grid_bases(da, cfg)
    counter[0] += len(grid)
    scores = grid_objective(grid)
    order = np.argsort(scores, kind="stable")
    best_basis, best_val = grid[order[0]].copy(), float(scores[order[0]])
    hb = hermitian_basis(da).reshape(da * da, da * da)
    for idx in order[: cfg.restarts]:
        u0 = grid[int(idx)].T

        def basis_of(x):
            return (kernel._expi((np.array(x) @ hb).reshape(da, da)) @ u0).T

        def score(x):
            counter[0] += 1
            return point_objective(basis_of(x))

        res = minimize(score, [0.0] * (da * da), cfg.refine_iters, xatol=1e-10, fatol=1e-12)
        val = score(res.x)
        if val < best_val:
            best_val, best_basis = val, basis_of(res.x)
    return best_basis, best_val


def one_basis_pinch(r):
    """The pinching distance of one basis, as a stack of one."""
    kernel = _kernel()
    return lambda basis: float(kernel._block_pinch_distances(r, basis[None])[0])


def one_basis_entropic(r, info, s_b):
    """The entropic objective ``I - J`` of one basis, its diagonal blocks
    read as lists."""
    kernel = _kernel()
    return lambda basis: info - kernel._point_measured_J(kernel._block_between(r, basis, basis).tolist(), s_b)


def _kernel():
    """``opdiscord.discord`` the module (the package binds the name
    ``discord`` to the function)."""
    import importlib

    return importlib.import_module("opdiscord.discord")


def per_basis_dual_loop(rho_mat, kets, db, a0, iters):
    """The certified bound's projected supergradient ascent at one basis,
    one block at a time: ``(best gain, best effect)``."""
    da = rho_mat.shape[0] // db
    a = a0.copy()
    best, best_a = -np.inf, a0
    for it in range(iters):
        aa = a.reshape(da, db, da, db)
        top_val, top_k, top_phi = -np.inf, 0, None
        for k in range(da):
            w, u = np.linalg.eigh(np.einsum("a,abcd,c->bd", kets[k].conj(), aa, kets[k]))
            if w[-1] > top_val:
                top_val, top_k, top_phi = float(w[-1]), k, u[:, -1]
        gain = float(np.real(np.trace(a @ rho_mat))) - top_val
        if gain > best:
            best, best_a = gain, a.copy()
        witness = np.kron(
            np.outer(kets[top_k], kets[top_k].conj()), np.outer(top_phi, top_phi.conj())
        )
        w, u = np.linalg.eigh(a + 0.3 / np.sqrt(it + 1.0) * (rho_mat - witness))
        a = (u * np.clip(w, 0.0, 1.0)) @ u.conj().T
    return best, best_a


def certified_bound_loop(rho_mat, db, n_theta, n_phi, iters=40):
    """The certified lower bound as it was computed before the fixed-basis
    solver: ``per_basis_dual_loop`` over the latitude-longitude grid, one
    basis at a time, each warm-started from the last basis's effect, minus
    the grid's covering slack."""
    a = rho_mat.copy()
    worst = np.inf
    for theta in np.linspace(0.0, np.pi, n_theta):
        for phi in np.linspace(-np.pi, np.pi, n_phi, endpoint=False):
            val, a = per_basis_dual_loop(rho_mat, _basis_from_angles(theta, phi), db, a, iters)
            worst = min(worst, val)
    cover = (np.pi / (n_theta - 1)) / 2.0 + (2.0 * np.pi / n_phi) / 2.0
    return worst - np.sin(cover / 2.0)


# ---------------------------------------------------------------------------
# the conditional polish and the Haar grid
#
# The package once polished the conditionals with 16 Nelder-Mead starts;
# the fixed-basis solver replaced that polish, which is kept here as the
# reference its values are compared with.


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z)
    e = np.exp(z)
    return e / np.sum(e)


def taus_from_params_row(params: np.ndarray, k: int, db: int) -> np.ndarray:
    """Blocks ``q_k sigma_k`` of one parameter row, conditional by conditional."""
    qs = softmax(params[:k])
    taus = []
    offset = k
    per = 3 if db == 2 else 2 * db * db
    for idx in range(k):
        chunk = params[offset : offset + per]
        offset += per
        if db == 2:
            sigma = _qubit_from_bloch(chunk)
        else:
            g = chunk[: db * db].reshape(db, db) + 1j * chunk[db * db :].reshape(db, db)
            gram = g @ g.conj().T
            tr = float(np.trace(gram).real)
            sigma = gram / tr if tr > 1e-14 else np.eye(db, dtype=complex) / db
        taus.append(qs[idx] * sigma)
    return np.array(taus)


def conditional_params_init(taus: np.ndarray, db: int) -> np.ndarray:
    """The polish's start: log weights, then a Bloch vector (``db == 2``)
    or a real-and-imaginary Gram factor per conditional."""
    qs = np.maximum(np.real(np.einsum("kii->k", taus)), 1e-12)
    parts = [np.log(qs)]
    for tau, q in zip(taus, qs):
        sigma = tau / q if q > 1e-12 else np.eye(db, dtype=complex) / db
        if db == 2:
            parts.append(np.real([sigma[0, 1] + sigma[1, 0], 1j * (sigma[0, 1] - sigma[1, 0]),
                                  sigma[0, 0] - sigma[1, 1]]))
        else:
            w, u = np.linalg.eigh(sigma)
            g = u @ np.diag(np.sqrt(np.maximum(w, 0.0)))
            parts.append(np.concatenate([g.real.ravel(), g.imag.ravel()]))
    return np.concatenate(parts)


def polish_conditionals_scipy(rho_mat, kets, x0, db, seed, refine_iters, n_starts=16):
    """The multi-start polish as sequential ``scipy.optimize.minimize``
    runs scoring one row per call: ``(value, blocks, evaluations)``."""
    from scipy.optimize import minimize

    k = len(kets)
    count = [0]

    def objective(params):
        count[0] += 1
        delta = rho_mat - kron_cq_matrix(kets, taus_from_params_row(params, k, db))
        return float(np.sum(np.abs(np.linalg.eigvalsh(delta))) / 2.0)

    best_val = objective(x0)
    best_taus = taus_from_params_row(x0, k, db)
    rng = np.random.default_rng(seed ^ 0xC0FFEE)
    starts = [x0] + [x0 + rng.normal(scale=0.3, size=x0.shape) for _ in range(n_starts - 1)]
    for start in starts:
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"maxiter": refine_iters, "xatol": 1e-9, "fatol": 1e-11},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_taus = taus_from_params_row(res.x, k, db)
    return best_val, best_taus, count[0]


def _basis_from_angles(theta, phi):
    half = theta / 2.0
    k0 = np.array([np.cos(half), np.sin(half) * np.exp(1j * phi)])
    k1 = np.array([np.sin(half), -np.cos(half) * np.exp(1j * phi)])
    return np.stack([k0, k1])


def haar_basis_loop(d: int, n: int, seed: int) -> list[np.ndarray]:
    """``n`` Haar-random bases (rows are kets) drawn one QR at a time from
    one ``default_rng(seed)``: the qutrit measurement grid's source."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
        out.append(q.T.copy())
    return out


# ---------------------------------------------------------------------------
# closed forms for Bell-diagonal two-qubit states


_BELL_KETS = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
) / np.sqrt(2.0)  # Phi+, Phi-, Psi+, Psi-


def bell_diagonal(weights) -> tuple[np.ndarray, np.ndarray]:
    """The mixture of Phi+, Phi-, Psi+ and Psi- with ``weights``, and its
    correlation vector ``c_i = Tr[rho sigma_i (x) sigma_i]``."""
    mat = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, _BELL_KETS))
    c = np.array([np.trace(mat @ np.kron(s, s)).real for s in (_SX, _SY, _SZ)])
    return mat, c


def bell_diagonal_discord(c) -> float:
    """Operational discord ``1/2 median(|c_1|, |c_2|, |c_3|)``: the trace-norm
    discord of Paula, de Oliveira & Sarandy, PRA 87, 064101 (2013), with
    the Helstrom 1/2 of the operational distance."""
    return 0.5 * float(np.median(np.abs(c)))


def bell_diagonal_entropic_discord(mat, c) -> float:
    """Luo, PRA 77, 042303 (2008): the mutual information
    ``2 + sum_i lambda_i log2 lambda_i`` minus the classical correlation
    ``((1 - c) log2(1 - c) + (1 + c) log2(1 + c)) / 2`` with ``c = max |c_i|``."""
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > 1e-15]
    info = 2.0 + float(np.sum(lam * np.log2(lam)))
    cmax = float(np.max(np.abs(c)))
    classical = sum(0.5 * x * np.log2(x) for x in (1.0 - cmax, 1.0 + cmax) if x > 0.0)
    return info - classical


def x_state_discord(mat) -> float:
    """Operational discord of a two-qubit X state (nonzero entries only on
    the diagonal and anti-diagonal): half the trace-norm discord of
    Ciccarello, Tufarelli & Giovannetti, NJP 16, 013038 (2014), in their parameters ``gamma_1..3`` and the first factor's Bloch ``z``."""
    r14, r23 = abs(mat[0, 3]), abs(mat[1, 2])
    g1, g2 = 2.0 * (r14 + r23), 2.0 * abs(r14 - r23)
    g3 = 1.0 - 2.0 * (mat[1, 1].real + mat[2, 2].real)
    z = 2.0 * (mat[0, 0].real + mat[1, 1].real) - 1.0
    a, b = max(g3**2, g2**2 + z**2), min(g3**2, g1**2)
    den = a - b + g1**2 - g2**2
    if den == 0.0:
        return g1 / 2.0
    return 0.5 * float(np.sqrt((g1**2 * a - g2**2 * b) / den))
