import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize, rosen

from opdiscord.neldermead import lockstep, nelder_mead


def _objective(kind, target):
    if kind == "quadratic":
        weights = 1.0 + np.arange(len(target))
        return lambda x: float(np.sum(weights * (x - target) ** 2))
    if kind == "l1":
        return lambda x: float(np.sum(np.abs(x - target)))
    if kind == "steps":  # plateaus, so values tie and the tie-breaks matter
        return lambda x: float(np.sum(np.floor(4.0 * np.abs(x - target))))
    return lambda x: float(rosen(x))


def _drive(run, f):
    """Run a ``nelder_mead`` generator to completion: ``(x, fun, nfev)``."""
    nfev = 0
    point = next(run)
    while True:
        nfev += 1
        try:
            point = run.send(f(np.copy(point)))
        except StopIteration as done:
            return (*done.value, nfev)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=n)
    x0[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0  # the zdelt step
    kind = draw(st.sampled_from(["quadratic", "l1", "steps", "rosenbrock"]))
    maxiter = draw(st.sampled_from([1, 3, 30, 200]))
    xatol, fatol = draw(st.sampled_from([(1e-9, 1e-11), (1e-4, 1e-4), (1e-4, 0.0), (0.5, 0.5)]))
    return x0, _objective(kind, rng.normal(size=n)), maxiter, xatol, fatol


class TestNelderMead:
    @settings(max_examples=300)
    @given(problems())
    def test_matches_scipy_bit_for_bit(self, problem):
        x0, f, maxiter, xatol, fatol = problem
        res = minimize(f, x0, method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
        x, fun, nfev = _drive(nelder_mead(x0, maxiter, xatol, fatol), f)
        assert np.array_equal(x, res.x)
        assert fun == res.fun
        assert nfev == res.nfev

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9),
           st.sampled_from([1, 3, 30, 200]))
    def test_lockstep_matches_one_scipy_run_per_start(self, seed, n, starts, maxiter):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=n)
        f = _objective("l1", target)
        x0s = [rng.normal(size=n) for _ in range(starts)]
        calls = []

        def score(stack):
            calls.append(len(stack))
            return np.array([f(row) for row in stack])

        got = lockstep(x0s, score, maxiter, xatol=1e-9, fatol=1e-11)
        expect = [minimize(f, x, method="Nelder-Mead",
                           options={"maxiter": maxiter, "xatol": 1e-9, "fatol": 1e-11}) for x in x0s]
        for (x, fun), res in zip(got, expect):
            assert np.array_equal(x, res.x) and fun == res.fun
        assert sum(calls) == sum(res.nfev for res in expect)
        assert len(calls) == max(res.nfev for res in expect)
