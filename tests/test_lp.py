import importlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import opdiscord as od
from opdiscord.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_feasible, solve_lp, solve_lps

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


def _stack_instance(kinds, m, n, rng):
    """LPs of one shape sharing ``c`` and ``b``, each ``feasible``,
    ``degenerate``, ``infeasible`` or ``unbounded`` by construction."""
    integer = rng.random() < 0.5
    b = rng.integers(-2, 3, size=m).astype(float) if integer else rng.normal(size=m)
    # b[0] != 0 makes a sign-opposed row 0 infeasible; b[-1] == b[0] lets a
    # repeated last row stay feasible
    b[0] = b[-1] = rng.choice([-2.0, -1.0, 1.0, 2.0])
    c = rng.integers(-2, 3, size=n).astype(float) if integer else rng.normal(size=n)
    c[0] = -2.0  # a ray along column 0 lowers the cost
    As = []
    for kind in kinds:
        if kind == "degenerate":
            # small integers give exact ratio ties, and zeros in the
            # feasible point make it degenerate
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            A[-1] = A[0]
            x = rng.integers(0, 2, size=n).astype(float)
        else:
            A = rng.normal(size=(m, n))
            x = rng.uniform(0.1, 1.0, size=n)
        if kind == "infeasible":
            A[0] = -np.sign(b[0]) * np.abs(A[0])
        else:
            if kind == "unbounded":
                A[:, 0] = 0.0  # A e_0 = 0 and c[0] < 0
            x[-1] = 1.0
            A[:, -1] += (b - A @ x) / x[-1]  # A x = b
        As.append(A)
    return c, np.array(As), b


@given(
    st.lists(st.sampled_from(["feasible", "degenerate", "infeasible", "unbounded"]), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=10),
    st.integers(),
)
# members whose x holds a -0.0 that a rank-1 update of every row would flip
@example(["degenerate", "infeasible", "unbounded", "feasible"], 6, 8, 152)
@example(["infeasible", "degenerate", "feasible"], 6, 7, 164)
def test_stack_bit_identical_to_solve_lp(kinds, m, n, seed):
    c, As, b = _stack_instance(kinds, m, n, np.random.default_rng(abs(seed) % 2**32))
    stacked = solve_lps(c, As, b)
    assert len(stacked) == len(kinds)
    for kind, A, res in zip(kinds, As, stacked):
        alone = solve_lp(c, A, b)
        assert _bits(res.status, res.objective, res.x, res.dual_eq, res.iterations) == _bits(
            alone.status, alone.objective, alone.x, alone.dual_eq, alone.iterations
        )
        if kind == "infeasible":
            assert res.status == INFEASIBLE
        if kind == "unbounded":
            assert res.status == UNBOUNDED


def _discord_lps_against_oracle(monkeypatch, theories, states):
    # the distance LPs of polytope discord are larger and far more
    # degenerate than random instances; each stacked result must equal the
    # row-by-row oracle on its own (c, A, b)
    checked = []

    def compared(c, As, b):
        results = solve_lps(c, As, b)
        for A, res in zip(As, results):
            assert _bits(res.status, res.objective, res.x, res.dual_eq, res.iterations) == _bits(
                *oracles.row_loop_simplex(c, A, b)
            )
            checked.append(res.iterations)
        return results

    monkeypatch.setattr(importlib.import_module("opdiscord.discord"), "solve_lps", compared)
    rng = np.random.default_rng(11)
    for theory in theories:
        ab = od.compose_theories(theory, theory)
        pure = ab.pure_state_coords
        for _ in range(states):
            od.discord(ab.state(rng.dirichlet(np.full(pure.shape[0], 0.3)) @ pure))
    return checked


def test_polytope_discord_lps_bit_identical_to_row_loop_oracle(monkeypatch):
    checked = _discord_lps_against_oracle(monkeypatch, (od.make_gbit(), od.make_polygon(5)), 2)
    assert len(checked) == 2 * (6 + 5) and min(checked) > 0


def test_largest_polytope_discord_lps_bit_identical_to_row_loop_oracle(monkeypatch):
    # polygon(6)^2 and polygon(8)^2 give the largest stacks: 9 and 12 families
    checked = _discord_lps_against_oracle(monkeypatch, (od.make_polygon(6), od.make_polygon(8)), 1)
    assert len(checked) == 9 + 12 and min(checked) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["c", "A", "b"])
def test_non_finite_data_rejected(which, bad):
    data = {"c": np.ones(2), "A": np.eye(2), "b": np.array([1.0, 0.5])}
    data[which].flat[0] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_lp(data["c"], data["A"], data["b"])


@pytest.mark.parametrize(
    "c, A, b",
    [
        (np.ones(3), np.eye(2), np.ones(2)),  # len(c) != n
        (np.ones(2), np.eye(2), np.ones(3)),  # len(b) != m
        (np.ones(2), np.ones(2), np.ones(1)),  # A is 1-D
        (np.ones((1, 2)), np.eye(2), np.ones(2)),  # c is 2-D
    ],
)
def test_shape_mismatch_rejected(c, A, b):
    with pytest.raises(ValueError, match="LP shapes must agree"):
        solve_lp(c, A, b)


@pytest.mark.parametrize(
    "c, As, b",
    [
        (np.ones(2), np.eye(2), np.ones(2)),  # one A, not a stack
        (np.ones(3), np.array([np.eye(2)] * 2), np.ones(2)),  # len(c) != n
        (np.ones(2), np.array([np.eye(2)] * 2), np.ones(3)),  # len(b) != m
        (np.ones(2), [np.eye(2), np.ones((3, 2))], np.ones(2)),  # ragged stack
    ],
)
def test_stack_shape_mismatch_rejected(c, As, b):
    with pytest.raises(ValueError, match="LP shapes must agree"):
        solve_lps(c, As, b)
