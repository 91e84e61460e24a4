import importlib

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import opdiscord as od
from opdiscord.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_feasible, solve_lp

import oracles


def test_known_small_lp():
    # min x0 + 2 x1  s.t.  x0 + x1 = 1, x >= 0  ->  x = (1, 0)
    res = solve_lp(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    assert res.status == OPTIMAL
    assert_allclose(res.objective, 1.0, atol=1e-12)
    assert_allclose(res.x, [1.0, 0.0], atol=1e-12)


def test_degenerate_rhs_and_duals():
    # min x0  s.t.  x0 - x1 = 0, x0 + x1 = 2
    A = np.array([[1.0, -1.0], [1.0, 1.0]])
    res = solve_lp(np.array([1.0, 0.0]), A, np.array([0.0, 2.0]))
    assert res.status == OPTIMAL
    assert_allclose(res.x, [1.0, 1.0], atol=1e-12)
    # dual feasibility and strong duality
    assert np.all(A.T @ res.dual_eq <= np.array([1.0, 0.0]) + 1e-9)
    assert_allclose(res.dual_eq @ np.array([0.0, 2.0]), res.objective, atol=1e-9)


def test_infeasible_detected():
    # x0 = 1 and x0 = 2 cannot both hold
    A = np.array([[1.0], [1.0]])
    res = solve_lp(np.zeros(1), A, np.array([1.0, 2.0]))
    assert res.status == INFEASIBLE
    ok, _ = lp_feasible(A, np.array([1.0, 2.0]))
    assert not ok


def test_negative_rhs_rows_handled():
    # equality with negative right-hand side must flip cleanly
    A = np.array([[-1.0, 0.0], [0.0, 1.0]])
    res = solve_lp(np.array([1.0, 1.0]), A, np.array([-2.0, 1.0]))
    assert res.status == OPTIMAL
    assert_allclose(res.x, [2.0, 1.0], atol=1e-12)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=8), st.integers())
def test_matches_scipy_on_random_instances(m, n, seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    A = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.1, 1.0, size=n)
    b = A @ x_feas  # feasible by construction
    c = rng.normal(size=n)
    mine = solve_lp(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
    if ref.status == 3:
        assert mine.status == "unbounded"
    else:
        assert ref.status == 0
        assert mine.status == OPTIMAL
        assert_allclose(mine.objective, ref.fun, atol=1e-7)
        # primal feasibility of the returned point
        assert_allclose(A @ mine.x, b, atol=1e-7)
        assert np.min(mine.x) >= -1e-9


@given(st.integers())
def test_duals_certify_optimum(seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    m, n = 4, 9
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.1, 1.0, size=n)
    c = rng.uniform(0.0, 2.0, size=n)  # bounded below on the feasible set
    res = solve_lp(c, A, b)
    assert res.status == OPTIMAL
    assert np.all(A.T @ res.dual_eq <= c + 1e-7)
    assert_allclose(res.dual_eq @ b, res.objective, atol=1e-7)


def test_determinism():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 12))
    b = A @ rng.uniform(0.1, 1.0, size=12)
    c = rng.normal(size=12)
    r1 = solve_lp(c, A, b)
    r2 = solve_lp(c, A, b)
    assert r1.objective == r2.objective
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(r1.dual_eq, r2.dual_eq)


def _bits(status, objective, x, dual_eq, iterations):
    return status, np.float64(objective).tobytes(), x.tobytes(), dual_eq.tobytes(), iterations


def _lp_instance(kind, m, n, rng):
    if kind == "degenerate":
        # small integers give exact ratio ties; a repeated row and zeros in
        # the feasible point make the right-hand side degenerate
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        A[-1] = A[0]
        x = rng.integers(0, 2, size=n).astype(float)
        return rng.integers(-2, 3, size=n).astype(float), A, A @ x
    A = rng.normal(size=(m, n))
    x = rng.uniform(0.1, 1.0, size=n)
    c = rng.normal(size=n)
    if kind == "negative_rhs":
        A[A @ x > 0.0] *= -1.0
    elif kind == "infeasible":
        A = np.abs(A)  # A x >= 0 on x >= 0, so a negative entry of b is unreachable
        b = A @ x
        b[0] = -1.0
        return c, A, b
    elif kind == "unbounded":
        d = rng.uniform(0.1, 1.0, size=n)  # a ray with A d = 0 along which c falls
        A -= np.outer(A @ d, d) / (d @ d)
        c -= (c @ d + 1.0) * d / (d @ d)
    return c, A, A @ x


@given(
    st.sampled_from(["random", "degenerate", "negative_rhs", "infeasible", "unbounded"]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=10),
    st.integers(),
)
def test_bit_identical_to_row_loop_oracle(kind, m, n, seed):
    c, A, b = _lp_instance(kind, m, n, np.random.default_rng(abs(seed) % 2**32))
    res = solve_lp(c, A, b)
    assert _bits(res.status, res.objective, res.x, res.dual_eq, res.iterations) == _bits(
        *oracles.row_loop_simplex(c, A, b)
    )
    if kind == "infeasible":
        assert res.status == INFEASIBLE
    if kind == "unbounded":
        assert res.status == UNBOUNDED


def test_polytope_discord_lps_bit_identical_to_row_loop_oracle(monkeypatch):
    # the distance LPs of polytope discord are larger and far more
    # degenerate than random instances
    checked = []

    def compared(c, A, b):
        res = solve_lp(c, A, b)
        assert _bits(res.status, res.objective, res.x, res.dual_eq, res.iterations) == _bits(
            *oracles.row_loop_simplex(c, A, b)
        )
        checked.append(res.iterations)
        return res

    monkeypatch.setattr(importlib.import_module("opdiscord.discord"), "solve_lp", compared)
    rng = np.random.default_rng(11)
    for theory in (od.make_gbit(), od.make_polygon(5)):
        ab = od.compose_theories(theory, theory)
        pure = ab.pure_state_coords
        for _ in range(2):
            od.discord(ab.state(rng.dirichlet(np.full(pure.shape[0], 0.3)) @ pure))
    assert len(checked) == 2 * (6 + 5) and min(checked) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["c", "A", "b"])
def test_non_finite_data_rejected(which, bad):
    data = {"c": np.ones(2), "A": np.eye(2), "b": np.array([1.0, 0.5])}
    data[which].flat[0] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_lp(data["c"], data["A"], data["b"])
