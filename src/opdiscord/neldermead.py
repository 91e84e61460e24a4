"""Nelder–Mead simplex minimization (Nelder & Mead, Comput. J. 7, 308
(1965)) on lists of floats.

A port of scipy's ``_minimize_neldermead`` with its default coefficients
(non-adaptive, no bounds, no evaluation cap).  It makes the same
floating-point operations in the same order, so it visits the same points
and returns the same ``x`` and ``nfev`` as
``scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options=...)``,
without scipy's import (0.7 s) or its per-evaluation bookkeeping.

One run is the generator ``_nelder_mead``, which asks for the values of
the points it needs and is sent them back.  ``minimize`` drives one run.
``minimize_stack`` drives several in lockstep and scores every point the
live runs ask for in a round with one call, so an objective that scores a
stack of points at once pays its per-call cost once per round instead of
once per point.  Each run still sees the values of its own points in its
own order, so it visits the points ``minimize`` would.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import add, lt
from typing import NamedTuple

import numpy as np


class Result(NamedTuple):
    x: list[float]
    nfev: int


def _sort(sim: list, fsim: list) -> tuple[list, list]:
    """Reorder the simplex as ``np.argsort(fsim)`` does.  When all values
    differ that order is the unique sorted one, so first try moving the
    last vertex (the only new one after most steps) into place and keep
    the result if its values strictly increase.  On a tie or a NaN the
    order is numpy's own, which is not stable on every CPU (its SIMD
    argsort), so numpy is asked."""
    f = fsim[:-1]
    k = bisect_left(f, fsim[-1])
    f.insert(k, fsim[-1])
    if all(map(lt, f, f[1:])):
        return sim[:k] + sim[-1:] + sim[k:-1], f
    ind = np.argsort(fsim).tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def _nelder_mead(x0, maxiter: int, xatol: float, fatol: float):
    """One run from ``x0`` for at most ``maxiter`` iterations (counted from
    1, as scipy does), stopping once every vertex is within ``fatol`` in
    value and ``xatol`` in each coordinate of the best one.  It yields a
    point (a list of floats) for a reflect, expand or contract step and is
    sent its value, and yields a tuple of points for the start simplex and
    a shrink and is sent their values in order.  It returns the
    ``Result``."""
    n = len(x0)
    x0 = [float(v) for v in x0]
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1 :] for k, v in enumerate(x0)]
    fsim = list((yield tuple(sim)))
    nfev = n + 1
    # scipy sorts the start simplex twice; with ties the second argsort
    # may reorder tied vertices again
    sim, fsim = _sort(*_sort(sim, fsim))
    for _ in range(1, maxiter):
        s0, f0 = sim[0], fsim[0]
        # the value spread first: it fails sooner, and both tests are pure
        if all(abs(f0 - f) <= fatol for f in fsim[1:]) and all(
            abs(a - b) <= xatol for s in sim[1:] for a, b in zip(s, s0)
        ):
            break
        # the centroid of all but the worst vertex, its rows added in
        # order as ``np.add.reduce(sim[:-1], 0)`` adds them
        xbar = [reduce(add, c) / n for c in zip(*sim[:-1])]
        worst = sim[-1]
        xr = [2 * a - b for a, b in zip(xbar, worst)]
        fxr = yield xr
        nfev += 1
        if fxr < f0:
            xe = [3 * a - 2 * b for a, b in zip(xbar, worst)]
            fxe = yield xe
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]
                fxc = yield xc
                shrink = not fxc <= fxr
            else:
                xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]
                fxc = yield xc
                shrink = not fxc < fsim[-1]
            nfev += 1
            if shrink:
                sim[1:] = [[a + 0.5 * (b - a) for a, b in zip(s0, s)] for s in sim[1:]]
                fsim[1:] = yield tuple(sim[1:])
                nfev += n
            else:
                sim[-1], fsim[-1] = xc, fxc
        sim, fsim = _sort(sim, fsim)
    return Result(sim[0], nfev)


def minimize(fun, x0, maxiter: int, xatol: float, fatol: float) -> Result:
    """Minimize ``fun``, which maps a list of floats to a float, from
    ``x0``: one ``_nelder_mead`` run, each point scored by its own call."""
    run = _nelder_mead(x0, maxiter, xatol, fatol)
    ask = next(run)
    while True:
        values = [fun(x) for x in ask] if isinstance(ask, tuple) else fun(ask)
        try:
            ask = run.send(values)
        except StopIteration as stop:
            return stop.value


def minimize_stack(fun, starts, maxiter: int, xatol: float, fatol: float) -> list[Result]:
    """One ``_nelder_mead`` run from each of ``starts``, in lockstep.  Each
    round, ``fun(points, owners)`` scores every point the live runs ask for,
    run by run and in each run's order, where ``owners[i]`` is the index in
    ``starts`` of the run that asked for ``points[i]``; it returns their
    values in that order.  Returns each run's ``Result``, in the order of
    ``starts``; each equals ``minimize``'s with ``lambda x: fun([x], [k])[0]``."""
    results: list = [None] * len(starts)
    live = {}
    for k, x0 in enumerate(starts):
        run = _nelder_mead(x0, maxiter, xatol, fatol)
        live[k] = (run, next(run))
    while live:
        points, owners = [], []
        for k, (_, ask) in live.items():
            batch = ask if isinstance(ask, tuple) else (ask,)
            points += batch
            owners += [k] * len(batch)
        values = fun(points, owners)
        at = 0
        for k, (run, ask) in list(live.items()):
            if isinstance(ask, tuple):
                sent, at = values[at : at + len(ask)], at + len(ask)
            else:
                sent, at = values[at], at + 1
            try:
                live[k] = (run, run.send(sent))
            except StopIteration as stop:
                results[k] = stop.value
                del live[k]
    return results
