"""Dense two-phase simplex solver with Bland's rule.

Solves ``min c.x  s.t.  A x = b, x >= 0`` and reports the dual
multipliers of the equality constraints alongside the primal solution.
Bland's pivoting rule makes the method anti-cycling and fully
deterministic, which the search layers above rely on for reproducible
certificates.  Problem sizes here are small (tens to a few hundred
columns), so a dense tableau is the simplest robust choice.

``solve_lps`` solves a stack of same-shape LPs that share ``c`` and
``b`` in lockstep: each round makes one Bland step for every live LP
with one set of numpy calls, while each LP keeps its own basis, phase
and pivot count, so each follows its own Bland path.  Every result is
bit-identical to ``solve_lp`` on that LP alone.  Polytope ``discord``
solves its family LPs as one stack per family size, and the tests check
each result against the row-by-row oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_FLOAT_MAX = np.finfo(float).max
SHAPE_ERROR = "LP shapes must agree: A is (m, n), or (F, m, n) for a stack, c has length n and b length m"


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: float
    x: np.ndarray
    dual_eq: np.ndarray
    iterations: int


def _pivot(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """One pivot on one LP's tableau, right-hand side and basis (views)."""
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    # Only rows with a nonzero pivot-column entry are updated: a full
    # rank-1 update would also rewrite untouched rows (-0.0 -> 0.0).
    f = T[:, col].copy()
    f[row] = 0.0
    rows = f.nonzero()[0]
    T[rows] -= f[rows, None] * T[row]
    rhs[rows] -= f[rows] * rhs[row]
    basis[row] = col


def _leaving_row(col: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> int:
    """Bland's ratio test on one LP's entering column; -1 when unbounded."""
    rows = (col > FEASIBILITY_TOL).nonzero()[0]
    ratios = rhs[rows] / col[rows]
    # sequential Bland tie-break; a tolerance argmin is not equivalent
    best_ratio, leaving = None, -1
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if (
            best_ratio is None
            or ratio < best_ratio - FEASIBILITY_TOL
            or (abs(ratio - best_ratio) <= FEASIBILITY_TOL and basis[i] < basis[leaving])
        ):
            best_ratio, leaving = ratio, i
    return leaving


class _Tableau:
    """A stack of F LPs ``min c.x  s.t.  A_f x = b, x >= 0``, each with its
    own basis, phase (0 or 1), phase costs and pivot count.  The stacked
    arrays hold the live LPs only; ``ids`` maps a stack position to the
    LP's index."""

    STACKED = ("T", "rhs", "basis", "iterations", "phase", "cost", "allowed", "ids")

    def __init__(self, c: np.ndarray, As: np.ndarray, b: np.ndarray):
        F, m, n = As.shape
        self.m, self.n = m, n
        self.max_iter = 200 * (m + n + 10)
        self.row_sign = np.where(b < 0.0, -1.0, 1.0)
        # columns: n structural + m artificial, rhs kept separately
        self.T = np.concatenate([As * self.row_sign[:, None], np.broadcast_to(np.eye(m), (F, m, m))], axis=2)
        self.rhs = np.tile(b * self.row_sign, (F, 1))
        self.basis = np.tile(np.arange(n, n + m), (F, 1))
        self.iterations = np.zeros(F, dtype=int)
        self.phase = np.zeros(F, dtype=int)
        # phase 0 minimizes the sum of artificials; in phase 1 they may not re-enter
        self.costs = np.array([np.concatenate([np.zeros(n), np.ones(m)]), np.concatenate([c, np.zeros(m)])])
        self.allowances = np.array([np.ones(n + m, dtype=bool), np.arange(n + m) < n])
        self.cost = self.costs[self.phase]
        self.allowed = self.allowances[self.phase]
        self.ids = self.pos = np.arange(F)
        self.rounds = 0
        self.c = c
        self.results: list[LPResult | None] = [None] * F

    def pivot_stack(self, rows: np.ndarray, cols: np.ndarray, active: np.ndarray | None = None) -> None:
        """``_pivot`` on every live LP, or on the ``active`` ones, as one set
        of numpy calls."""
        T, rhs, pos = self.T, self.rhs, self.pos
        piv = T[pos, rows, cols]
        f = T[pos, :, cols]
        f[pos, rows] = 0.0
        if active is not None:
            # an idle LP divides a row by 1 and updates no other row
            piv = np.where(active, piv, 1.0)
            f[~active] = 0.0
        prow = T[pos, rows] / piv[:, None]
        T[pos, rows] = prow
        prhs = rhs[pos, rows] / piv
        rhs[pos, rows] = prhs
        # as in ``_pivot``, only rows with a nonzero factor are updated
        nonzero = f != 0.0
        np.subtract(T, f[:, :, None] * prow[:, None, :], out=T, where=nonzero[:, :, None])
        np.subtract(rhs, f * prhs[:, None], out=rhs, where=nonzero)
        ps = pos if active is None else active.nonzero()[0]
        self.basis[ps, rows[ps]] = cols[ps]
        self.iterations[ps] += 1

    def end_phase(self, p: int) -> bool:
        """LP ``p``'s phase is optimal: record its result after phase 1, or
        test feasibility and move to phase 1.  True when ``p`` is done."""
        if self.phase[p]:
            return self.record(p, OPTIMAL)
        if float(self.costs[0][self.basis[p]] @ self.rhs[p]) > 1e-7:
            return self.record(p, INFEASIBLE)
        # drive remaining artificials out of the basis where possible
        for i in range(self.m):
            if self.basis[p, i] >= self.n:
                candidates = (np.abs(self.T[p, i, : self.n]) > FEASIBILITY_TOL).nonzero()[0]
                if candidates.size:
                    _pivot(self.T[p], self.rhs[p], self.basis[p], i, int(candidates[0]))
        self.phase[p] = 1
        self.cost[p], self.allowed[p] = self.costs[1], self.allowances[1]
        return False

    def unbounded(self, p: int) -> bool:
        if not self.phase[p]:
            raise RuntimeError("phase-1 simplex terminated abnormally")
        return self.record(p, UNBOUNDED)

    def record(self, p: int, status: str) -> bool:
        n, m = self.n, self.m
        iterations = int(self.iterations[p])
        if status == INFEASIBLE:
            result = LPResult(INFEASIBLE, np.inf, np.zeros(n), np.zeros(m), iterations)
        elif status == UNBOUNDED:
            result = LPResult(UNBOUNDED, -np.inf, np.zeros(n), np.zeros(m), iterations)
        else:
            x = np.zeros(n)
            for i, j in enumerate(self.basis[p].tolist()):
                if j < n:
                    x[j] = self.rhs[p, i]
            # duals from the artificial (identity) columns, undoing row sign flips
            cb = self.costs[1][self.basis[p]]
            y = (cb @ self.T[p][:, n:]) * self.row_sign
            result = LPResult(OPTIMAL, float(self.c @ x), x, y, iterations)
        self.results[self.ids[p]] = result
        return True

    def step(self) -> None:
        """One Bland step for every live LP, then drop the finished ones."""
        # no LP pivots more than once a round
        if self.rounds >= self.max_iter and (self.iterations >= self.max_iter).any():
            raise RuntimeError("simplex iteration limit exceeded")
        self.rounds += 1
        T, rhs, basis, cost, pos = self.T, self.rhs, self.basis, self.cost, self.pos
        # one vector-matrix product per LP, the same call as ``cb @ T``
        r = cost - (cost[pos[:, None], basis][:, None, :] @ T)[:, 0, :]
        improving = self.allowed & (r < -FEASIBILITY_TOL)
        entering = improving.argmax(1)
        col = T[pos, :, entering]
        ratios = np.full(col.shape, np.inf)
        np.divide(rhs, col, out=ratios, where=col > FEASIBILITY_TOL)
        # clamped, so that ``ratios - low`` never meets inf - inf; a minimum
        # that is not below _FLOAT_MAX sends the LP to the sequential fold
        low = np.minimum(ratios.min(1, keepdims=True), _FLOAT_MAX)
        tie = ratios == low
        # When every other ratio clears the minimum by more than the
        # tolerance, the sequential Bland fold ends on the tied row of least
        # basis index; otherwise the fold itself runs.
        clear = tie | ((ratios - low > FEASIBILITY_TOL) & (ratios - FEASIBILITY_TOL > low))
        leaving = np.where(tie, basis, self.n + self.m).argmin(1)
        moving = improving[pos, entering]
        regular = moving & clear.all(1) & (low[:, 0] < _FLOAT_MAX)
        if regular.all():
            self.pivot_stack(leaving, entering)
            return
        done = np.zeros(len(pos), dtype=bool)
        for p in (~regular).nonzero()[0].tolist():
            if not moving[p]:
                done[p] = self.end_phase(p)
            else:
                leaving[p] = _leaving_row(T[p, :, entering[p]], rhs[p], basis[p])
                if leaving[p] < 0:
                    done[p] = self.unbounded(p)
        self.pivot_stack(leaving, entering, moving & (leaving >= 0))
        if done.any():
            keep = ~done
            for name in self.STACKED:
                setattr(self, name, getattr(self, name)[keep])
            self.pos = pos[: len(self.ids)]

    def run(self, p: int) -> None:
        """Finish LP ``p`` on its own, one Bland step per loop."""
        T, rhs, basis = self.T[p], self.rhs[p], self.basis[p]
        cost, allowed = self.cost[p], self.allowed[p]
        iterations = int(self.iterations[p])
        while True:
            if iterations >= self.max_iter:
                raise RuntimeError("simplex iteration limit exceeded")
            r = cost - cost[basis] @ T
            candidates = (allowed & (r < -FEASIBILITY_TOL)).nonzero()[0]
            if candidates.size == 0:
                self.iterations[p] = iterations
                if self.end_phase(p):
                    return
                continue
            entering = int(candidates[0])
            leaving = _leaving_row(T[:, entering], rhs, basis)
            if leaving < 0:
                self.iterations[p] = iterations
                self.unbounded(p)
                return
            _pivot(T, rhs, basis, leaving, entering)
            iterations += 1


def _lp_data(c, A, b, ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        A = np.asarray(A, dtype=float)
    except ValueError:  # a ragged stack
        raise ValueError(SHAPE_ERROR) from None
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != ndim or c.shape != A.shape[-1:] or b.shape != A.shape[-2:-1]:
        raise ValueError(SHAPE_ERROR)
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("LP data must be finite")
    return c, A, b


def _solve(c: np.ndarray, As: np.ndarray, b: np.ndarray) -> list[LPResult]:
    tab = _Tableau(c, As, b)
    while len(tab.ids) > 1 and tab.m:
        tab.step()
    # the last live LP (or each LP with no rows) finishes on its own
    for p in range(len(tab.ids)):
        tab.run(p)
    return tab.results


def solve_lp(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
) -> LPResult:
    """Solve ``min c.x  s.t.  A x = b, x >= 0``.

    ``dual_eq`` holds the equality multipliers y with ``A.T y <= c`` and
    ``y.b`` equal to the optimum at feasible termination.  Raises
    ``ValueError`` when ``c``, ``A`` or ``b`` holds a NaN or an infinity,
    or when their shapes disagree.
    """
    c, A, b = _lp_data(c, A, b, 2)
    return _solve(c, A[None], b)[0]


def solve_lps(c: np.ndarray, As: np.ndarray, b: np.ndarray) -> list[LPResult]:
    """``[solve_lp(c, A, b) for A in As]``, bit for bit, solved in lockstep.

    ``As`` is a stack of same-shape constraint matrices; a stack of one
    is handed to ``solve_lp``.  Raises ``ValueError`` as ``solve_lp`` does.
    """
    c, As, b = _lp_data(c, As, b, 3)
    if len(As) == 1:
        return [solve_lp(c, As[0], b)]
    return _solve(c, As, b)


def lp_feasible(A: np.ndarray, b: np.ndarray) -> tuple[bool, np.ndarray | None]:
    """Feasibility of ``A x = b, x >= 0``; returns a witness when feasible."""
    res = solve_lp(np.zeros(A.shape[1]), A, b)
    if res.status != OPTIMAL:
        return False, None
    return True, res.x
