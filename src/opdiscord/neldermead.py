"""Nelder-Mead as a generator, so many runs can share one stacked objective.

``nelder_mead`` performs exactly the steps of scipy's
``minimize(method="Nelder-Mead")`` with ``adaptive=False``, no bounds, the
default initial simplex and no cap on evaluations: the same simplex
updates, the same ``np.argsort``/``np.take`` sorts and the same
``xatol``/``fatol`` test.  Instead of calling the objective it yields
each point it needs scored and receives that point's value, so
``lockstep`` can drive several runs at once and score one pending point
of each in a single call.  Results are bit-identical to scipy's.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Sequence

import numpy as np

RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
NONZDELT, ZDELT = 0.05, 0.00025


def nelder_mead(
    x0: np.ndarray, maxiter: int, xatol: float, fatol: float
) -> Generator[np.ndarray, float, tuple[np.ndarray, float]]:
    """Yield points to score; return ``(x, fun)`` of the best vertex."""
    x0 = np.asarray(np.atleast_1d(x0).flatten(), dtype=float)
    n = len(x0)
    sim = np.empty((n + 1, n), dtype=x0.dtype)
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + NONZDELT) * y[k] if y[k] != 0 else ZDELT
        sim[k + 1] = y

    fsim = np.full((n + 1,), np.inf, dtype=float)
    for k in range(n + 1):
        fsim[k] = yield sim[k]
    for _ in range(2):  # scipy sorts once after the first evaluations, then again
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)

    iterations = 1
    while iterations < maxiter:
        if abs(sim[1:] - sim[0]).max() <= xatol and abs(fsim[0] - fsim[1:]).max() <= fatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + RHO) * xbar - RHO * sim[-1]
        fxr = yield xr
        if fxr < fsim[0]:
            xe = (1 + RHO * CHI) * xbar - RHO * CHI * sim[-1]
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + PSI * RHO) * xbar - PSI * RHO * sim[-1]
                fxc = yield xc
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = (1 - PSI) * xbar + PSI * sim[-1]
                fxc = yield xc
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + SIGMA * (sim[j] - sim[0])
                    fsim[j] = yield sim[j]
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    return sim[0], fsim.min()


def lockstep(
    starts: Sequence[np.ndarray],
    score: Callable[[np.ndarray], np.ndarray],
    maxiter: int,
    xatol: float,
    fatol: float,
) -> list[tuple[np.ndarray, float]]:
    """Run ``nelder_mead`` from every start; each round scores the pending
    point of every live run with one ``score`` call on an ``(S, P)`` stack.
    Returns each run's ``(x, fun)``, in start order."""
    runs = [nelder_mead(x0, maxiter, xatol, fatol) for x0 in starts]
    pending = [next(run) for run in runs]
    results: list = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        values = score(np.array([pending[i] for i in live]))
        still = []
        for i, value in zip(live, values):
            try:
                pending[i] = runs[i].send(value)
                still.append(i)
            except StopIteration as done:
                results[i] = done.value
        live = still
    return results
