"""Dense two-phase simplex solver with Bland's rule.

Solves ``min c.x  s.t.  A x = b, x >= 0`` and reports the dual
multipliers of the equality constraints alongside the primal solution.
Bland's pivoting rule makes the method anti-cycling and fully
deterministic, which the search layers above rely on for reproducible
certificates.  Problem sizes here are small (tens to a few hundred
columns), so a dense tableau is the simplest robust choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: float
    x: np.ndarray
    dual_eq: np.ndarray
    iterations: int


class _Tableau:
    def __init__(self, A: np.ndarray, b: np.ndarray):
        m, n = A.shape
        self.m, self.n = m, n
        self.row_sign = np.where(b < 0.0, -1.0, 1.0)
        # columns: n structural + m artificial, rhs kept separately
        self.T = np.hstack([A * self.row_sign[:, None], np.eye(m)])
        self.rhs = b * self.row_sign
        self.basis = list(range(n, n + m))
        self.iterations = 0

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        cb = cost[self.basis]
        return cost - cb @ self.T

    def pivot(self, row: int, col: int) -> None:
        piv = self.T[row, col]
        self.T[row] /= piv
        self.rhs[row] /= piv
        # Only rows with a nonzero pivot-column entry are updated: a full
        # rank-1 update would also rewrite untouched rows (-0.0 -> 0.0).
        f = self.T[:, col].copy()
        f[row] = 0.0
        rows = f.nonzero()[0]
        self.T[rows] -= f[rows, None] * self.T[row]
        self.rhs[rows] -= f[rows] * self.rhs[row]
        self.basis[row] = col

    def run(self, cost: np.ndarray, allowed: np.ndarray, max_iter: int) -> str:
        """Minimize cost over the current basis; Bland's rule throughout."""
        while True:
            if self.iterations >= max_iter:
                raise RuntimeError("simplex iteration limit exceeded")
            r = self.reduced_costs(cost)
            candidates = (allowed & (r < -FEASIBILITY_TOL)).nonzero()[0]
            if candidates.size == 0:
                return OPTIMAL
            entering = int(candidates[0])
            col = self.T[:, entering]
            rows = (col > FEASIBILITY_TOL).nonzero()[0]
            ratios = self.rhs[rows] / col[rows]
            # sequential Bland tie-break; a tolerance argmin is not equivalent
            best_ratio, leaving = None, -1
            for i, ratio in zip(rows.tolist(), ratios.tolist()):
                if (
                    best_ratio is None
                    or ratio < best_ratio - FEASIBILITY_TOL
                    or (abs(ratio - best_ratio) <= FEASIBILITY_TOL and self.basis[i] < self.basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)
            self.iterations += 1


def solve_lp(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
) -> LPResult:
    """Solve ``min c.x  s.t.  A x = b, x >= 0``.

    ``dual_eq`` holds the equality multipliers y with ``A.T y <= c`` and
    ``y.b`` equal to the optimum at feasible termination.  Raises
    ``ValueError`` when ``c``, ``A`` or ``b`` holds a NaN or an infinity.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("LP data must be finite")
    m, n = A.shape
    max_iter = 200 * (m + n + 10)

    tab = _Tableau(A, b)
    n_total = n + m

    # phase 1: minimize the sum of artificials
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    allowed = np.ones(n_total, dtype=bool)
    status = tab.run(cost1, allowed, max_iter)
    if status != OPTIMAL:
        raise RuntimeError("phase-1 simplex terminated abnormally")
    if float(cost1[tab.basis] @ tab.rhs) > 1e-7:
        return LPResult(INFEASIBLE, np.inf, np.zeros(n), np.zeros(m), tab.iterations)

    # drive remaining artificials out of the basis where possible
    for i in range(tab.m):
        if tab.basis[i] >= n:
            candidates = (np.abs(tab.T[i, :n]) > FEASIBILITY_TOL).nonzero()[0]
            if candidates.size:
                tab.pivot(i, int(candidates[0]))

    # phase 2: artificials may not re-enter
    allowed = np.concatenate([np.ones(n, dtype=bool), np.zeros(m, dtype=bool)])
    status = tab.run(c_extended := np.concatenate([c, np.zeros(m)]), allowed, max_iter)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, -np.inf, np.zeros(n), np.zeros(m), tab.iterations)

    x = np.zeros(n)
    for i, j in enumerate(tab.basis):
        if j < n:
            x[j] = tab.rhs[i]
    # duals from the artificial (identity) columns, undoing row sign flips
    cb = c_extended[tab.basis]
    y = (cb @ tab.T[:, n:]) * tab.row_sign
    return LPResult(OPTIMAL, float(c @ x), x, y, tab.iterations)


def lp_feasible(A: np.ndarray, b: np.ndarray) -> tuple[bool, np.ndarray | None]:
    """Feasibility of ``A x = b, x >= 0``; returns a witness when feasible."""
    res = solve_lp(np.zeros(A.shape[1]), A, b)
    if res.status != OPTIMAL:
        return False, None
    return True, res.x
