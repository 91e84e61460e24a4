"""Reference values computed without opdiscord's own solvers.

* Bell-diagonal two-qubit states: operational discord
  ``1/2 * median(|c1|, |c2|, |c3|)`` (the trace-norm discord of Paula,
  de Oliveira & Sarandy, arXiv:1302.7034, with the Helstrom 1/2) and the
  entropic discord of Luo, PRA 77, 042303 (2008).
* Polytope theories: the discord LP and the effect-polytope LP solved
  with ``scipy.optimize.linprog`` (HiGHS) instead of the package's
  simplex.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# correlation vectors (c1, c2, c3) of the Bell states Phi+, Phi-, Psi+, Psi-
_BELL_C = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])


def bell_diagonal_matrix(weights) -> tuple[np.ndarray, np.ndarray]:
    """The mixture of the four Bell states with ``weights``, and its c."""
    c = np.asarray(weights, dtype=float) @ _BELL_C
    mat = (
        np.eye(4, dtype=complex)
        + c[0] * np.kron(_SX, _SX)
        + c[1] * np.kron(_SY, _SY)
        + c[2] * np.kron(_SZ, _SZ)
    ) / 4.0
    return mat, c


def bell_diagonal_discord(c) -> float:
    return 0.5 * float(np.median(np.abs(c)))


def bell_diagonal_entropic_discord(weights, c) -> float:
    """Luo's closed form: mutual information minus classical correlation."""
    w = np.asarray(weights, dtype=float)
    w = w[w > 1e-15]
    info = 2.0 + float(np.sum(w * np.log2(w)))
    cmax = float(np.max(np.abs(c)))
    classical = 0.0
    for x in (1.0 - cmax, 1.0 + cmax):
        if x > 0.0:
            classical += 0.5 * x * np.log2(x)
    return info - classical


def helstrom(m0: np.ndarray, m1: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m0 - m1))))


def effect_maximum(pure: np.ndarray, delta: np.ndarray) -> float:
    """``max a.delta`` over ``{a : 0 <= a.v <= 1}`` for every pure ``v``."""
    m = pure.shape[0]
    res = linprog(
        -delta,
        A_ub=np.vstack([pure, -pure]),
        b_ub=np.concatenate([np.ones(m), np.zeros(m)]),
        bounds=[(None, None)] * delta.shape[0],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference effect LP failed: {res.message}")
    return -float(res.fun)


def distance_to_family(rho: np.ndarray, pure: np.ndarray, family: np.ndarray, b_vertices: np.ndarray) -> float:
    """Least operational distance from ``rho`` to ``sum_kj c_kj psi_k (x) w_j``."""
    m = pure.shape[0]
    w = np.array([np.kron(psi, v) for psi in family for v in b_vertices]).T
    a_eq = np.vstack([
        np.hstack([pure.T, -pure.T, w]),
        np.concatenate([np.zeros(2 * m), np.ones(w.shape[1])]),
    ])
    b_eq = np.concatenate([rho, [1.0]])
    cost = np.concatenate([np.ones(m), np.zeros(m + w.shape[1])])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * a_eq.shape[1], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference family LP failed: {res.message}")
    return float(res.fun)


def polytope_discord(rho: np.ndarray, pure: np.ndarray, families: list[np.ndarray], b_vertices: np.ndarray) -> float:
    """Discord as the least family distance over the given families."""
    return min(distance_to_family(rho, pure, fam, b_vertices) for fam in families)
