"""Exact distance from a state to the cq states of fixed measurement bases.

At a fixed basis ``{|k>}`` the inner problem of the quantum discord,
``min 1/2 ||rho - sum_k |k><k| (x) tau_k||_1`` over positive blocks
``tau_k`` of total trace one, is convex.  Douglas-Rachford splitting
(Lions & Mercier, SIAM J. Numer. Anal. 16, 964 (1979); Eckstein &
Bertsekas, Math. Prog. 55, 293 (1992)) solves it with two closed-form
steps in the measurement frame ``rho' = (W (x) I) rho (W (x) I)^+``,
where the rows of ``W`` are the bras ``<k|``:

* the projection onto the feasible set zeroes the off-diagonal blocks,
  diagonalizes each diagonal block and projects all their eigenvalues
  jointly onto the probability simplex (Condat, Math. Prog. 158, 575
  (2016));
* the prox of ``gamma/2 ||rho' - .||_1`` soft-thresholds the eigenvalues
  of ``rho' - v`` by ``gamma/2``.

The iteration is over-relaxed by ``RELAX`` (Eckstein & Bertsekas), which
took about half the steps of the plain iteration on random states.

Every step yields a feasible point, whose distance is an exact upper
value, and the effect ``A = I/2 + clip(w, +-gamma/2)/gamma`` built in the
eigenbasis of the prox argument.  ``0 <= A <= I``, so for every feasible
``X`` weak duality gives
``Tr A rho' - max_k lambda_max(A_kk) <= Tr A (rho' - X) <= 1/2 ||rho' - X||_1``.
A basis stops once the best of each meet within ``gap_tolerance``, or
after ``MAX_ITERS`` steps; the cap changes how tight the pair is, never
whether it is valid.

For a qubit first factor and a complete basis no iteration is needed:
the pinching is optimal.  With ``B = rho'_01`` the off-diagonal block and
``V`` its polar factor, ``A = 1/2 [[I, V], [V^+, I]]`` has eigenvalues 0
and 1 and diagonal blocks ``I/2``, so its bound is ``Re Tr V B^+ = ||B||_1``,
which is the pinching's distance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .herm import half_trace_norm

GAMMA = 0.25
RELAX = 1.8
MAX_ITERS = 30000


class FixedBasisSolution(NamedTuple):
    value: np.ndarray  # (G,) distance to the best feasible point
    lower: np.ndarray  # (G,) the best weak-duality lower bound
    taus: np.ndarray  # (G, K, db, db) blocks of the best feasible point
    effect: np.ndarray  # (G, n, n) the effect A of the best bound, in the original frame
    iterations: np.ndarray  # (G,) steps taken per basis


def gap_tolerance(da: int) -> float:
    return 1e-12 if da == 2 else 1e-9


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    u = -np.sort(-v, axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    count = np.count_nonzero(u * np.arange(1, v.shape[-1] + 1) > css, axis=-1)
    theta = np.take_along_axis(css, count[:, None] - 1, axis=-1) / count[:, None]
    return np.maximum(v - theta, 0.0)


def solve_fixed_basis(rho_mat: np.ndarray, kets: np.ndarray, db: int) -> FixedBasisSolution:
    """Solve the inner problem at each basis of the stack ``kets``
    ``(G, K, da)`` (rows are kets).  A family with ``K < da`` members is
    completed to a basis whose added blocks stay empty.  The frame change
    is unitary, so ``value`` is also the distance from ``rho`` to
    ``sum_k |k><k| (x) tau_k`` in the original frame."""
    g, k, da = kets.shape
    n = da * db
    if k < da:
        kets = np.concatenate([kets, np.linalg.svd(kets)[2][:, k:]], axis=1)
    frame = (kets.conj()[:, :, None, :, None] * np.eye(db)[:, None, :]).reshape(g, n, n)
    frame_h = frame.conj().swapaxes(-1, -2)
    rho_f = frame @ rho_mat @ frame_h
    half = np.eye(n) / 2.0

    def blocks(m):  # the diagonal blocks of a stack, (L, da, db, db)
        return np.einsum("gkbkd->gkbd", m.reshape(-1, da, db, da, db))

    def block_diag(taus):
        out = np.zeros((len(taus), da, db, da, db), dtype=complex)
        out[:, range(k), :, range(k)] = taus.swapaxes(0, 1)
        return out.reshape(-1, n, n)

    def lower_bound(a, r):
        top = np.linalg.eigvalsh(blocks(a)[:, :k])[..., -1].max(axis=-1)
        return np.einsum("gij,gji->g", a, r).real - top

    pinching = blocks(rho_f)[:, :k].copy()
    if k == da == 2:
        u, _, vh = np.linalg.svd(rho_f[:, :db, db:])
        polar, zero = u @ vh, np.zeros((g, db, db))
        effect = half + np.block([[zero, polar], [polar.conj().swapaxes(-1, -2), zero]]) / 2.0
        value = half_trace_norm(rho_f - block_diag(pinching))
        return FixedBasisSolution(
            value, lower_bound(effect, rho_f), pinching, frame_h @ effect @ frame, np.ones(g, dtype=int)
        )

    z = block_diag(pinching)
    value, lower = np.full(g, np.inf), np.full(g, -np.inf)
    taus_best = np.zeros_like(pinching)
    a_best = np.zeros((g, n, n), dtype=complex)
    steps = np.zeros(g, dtype=int)
    live = np.arange(g)
    tol = gap_tolerance(da)
    for _ in range(MAX_ITERS):
        zl, rl = z[live], rho_f[live]
        w, u = np.linalg.eigh(blocks(zl)[:, :k])
        lam = _project_simplex(w.reshape(len(live), -1)).reshape(w.shape)
        taus = (u * lam[..., None, :]) @ u.conj().swapaxes(-1, -2)
        x = block_diag(taus)
        val = half_trace_norm(rl - x)
        w, u = np.linalg.eigh(rl - 2.0 * x + zl)
        u_h = u.conj().swapaxes(-1, -2)
        a = half + (u * (np.clip(w, -GAMMA / 2, GAMMA / 2) / GAMMA)[:, None, :]) @ u_h
        low = lower_bound(a, rl)
        soft = np.sign(w) * np.maximum(np.abs(w) - GAMMA / 2, 0.0)
        z[live] = zl + RELAX * (rl - (u * soft[:, None, :]) @ u_h - x)
        better, up = val < value[live], low > lower[live]
        value[live[better]], taus_best[live[better]] = val[better], taus[better]
        lower[live[up]], a_best[live[up]] = low[up], a[up]
        steps[live] += 1
        live = live[value[live] - lower[live] > tol]
        if not live.size:
            break
    return FixedBasisSolution(value, lower, taus_best, frame_h @ a_best @ frame, steps)
