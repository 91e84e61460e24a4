"""The library's Nelder-Mead drivers against scipy's, and the import they
spare: each run must visit the same points as
``scipy.optimize.minimize(method="Nelder-Mead")``, whether ``minimize``
drives it alone or ``minimize_stack`` drives it in lockstep with others,
so every search value stays what it was when scipy ran the refinement."""

import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize as scipy_minimize

import opdiscord as od
from opdiscord.neldermead import minimize, minimize_stack
from opdiscord.sampling import random_density_matrix

import oracles

kernel = importlib.import_module("opdiscord.discord")

XATOL, FATOL = 1e-10, 1e-12
MAXITERS = st.sampled_from([1, 2, 5, 200])


def assert_same_run(fun, x0, maxiter, xatol=XATOL, fatol=FATOL):
    """The driver and scipy from ``x0``: equal final points and counts."""
    ours = minimize(fun, x0, maxiter, xatol, fatol)
    ref = scipy_minimize(
        lambda x: fun(x.tolist()),
        np.array(x0, dtype=float),
        method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol},
    )
    assert np.array_equal(np.array(ours.x), ref.x)
    assert ours.nfev == ref.nfev
    return ours


OBJECTIVES = {
    "bowl": lambda x: sum((i + 1) * (v - 0.1 * i) ** 2 for i, v in enumerate(x)),
    "rosenbrock": lambda x: sum(
        100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x, x[1:])
    ) + 0.1 * x[0] ** 2,
    # flat in every coordinate but the first, and stepped in that one:
    # most simplices hold ties
    "ties": lambda x: round(x[0], 2) ** 2,
    "nan": lambda x: math.nan if x[0] > 1.0 else (x[0] - 0.5) ** 2 + x[-1] ** 2,
}


class TestAgainstScipy:
    @given(
        n=st.sampled_from([2, 3, 9]),
        name=st.sampled_from(sorted(OBJECTIVES)),
        maxiter=MAXITERS,
        data=st.data(),
    )
    def test_same_points_and_counts(self, n, name, maxiter, data):
        coord = st.floats(-3.0, 3.0, allow_nan=False)
        x0 = data.draw(st.one_of(st.just([0.0] * n), st.lists(coord, min_size=n, max_size=n)))
        assert_same_run(OBJECTIVES[name], x0, maxiter)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_constant_objective(self, n):
        # every value ties at every step
        res = assert_same_run(lambda x: 1.0, [0.5] * n, 200)
        assert res.nfev > n + 1

    def test_stops_at_tolerance_before_maxiter(self):
        res = assert_same_run(OBJECTIVES["bowl"], [1.0, -2.0], 10_000, xatol=1e-6, fatol=1e-8)
        assert res.nfev < 1000
        assert res.x == pytest.approx([0.0, 0.1], abs=1e-5)


class TestLockstep:
    """``minimize_stack`` runs each start as ``minimize`` would run it alone."""

    @given(
        n=st.sampled_from([2, 3, 9]),
        name=st.sampled_from(sorted(OBJECTIVES)),
        maxiter=MAXITERS,
        data=st.data(),
    )
    def test_each_run_is_its_own_minimize(self, n, name, maxiter, data):
        coord = st.floats(-3.0, 3.0, allow_nan=False)
        start = st.one_of(st.just([0.0] * n), st.lists(coord, min_size=n, max_size=n))
        starts = data.draw(st.lists(start, min_size=1, max_size=5))
        # run k minimizes a k-dependent objective, so runs tell ties apart
        # differently and stop at different rounds
        base = OBJECTIVES[name]

        def one(k, x):
            return base(x) * (1.0 + k) + 0.01 * k * x[-1]

        rounds = []

        def stacked(points, owners):
            rounds.append(list(owners))
            return [one(k, x) for x, k in zip(points, owners)]

        got = minimize_stack(stacked, starts, maxiter, XATOL, FATOL)
        assert len(got) == len(starts)
        for k, (x0, res) in enumerate(zip(starts, got)):
            alone = minimize(lambda x, k=k: one(k, x), x0, maxiter, XATOL, FATOL)
            assert res.x == alone.x
            assert res.nfev == alone.nfev
        # one call per round, the live runs' points grouped run by run
        assert all(owners == sorted(owners) for owners in rounds)
        assert sum(map(len, rounds)) == sum(res.nfev for res in got)

    def test_no_starts(self):
        calls = []
        assert minimize_stack(lambda p, o: calls.append(p) or [], [], 200, XATOL, FATOL) == []
        assert calls == []


def _library_state(kind, seed):
    rng = np.random.default_rng([0x4E4D, seed])
    if kind == "bell-diagonal":
        return od.compose_theories(od.make_quantum(2), od.make_quantum(2)).state_from_matrix(
            oracles.bell_diagonal(rng.dirichlet(np.ones(4)))[0]
        )
    da = 2 if kind == "ginibre-2x2" else 3
    ab = od.compose_theories(od.make_quantum(da), od.make_quantum(2))
    return ab.state_from_matrix(random_density_matrix(2 * da, rng))


class TestLibraryObjectives:
    """Every refinement run of a ``discord`` and an entropic search, with
    the objectives the search builds (qubit pinching and entropic from the
    angles, qutrit ones from the rotated basis), repeated under scipy.  A
    qutrit run, driven in lockstep, is repeated on its own objective: its
    points scored as a stack of one."""

    @settings(max_examples=20)
    @given(
        kind=st.sampled_from(["ginibre-2x2", "bell-diagonal", "ginibre-3x2"]),
        seed=st.integers(0, 2**16),
        maxiter=MAXITERS,
    )
    def test_search_runs_match_scipy(self, kind, seed, maxiter):
        rho = _library_state(kind, seed)
        cfg = od.SearchConfig(grid_points=24, restarts=2, refine_iters=maxiter)
        runs = []

        def checked(fun, x0, maxiter, **tols):
            # compared while the search's closures are bound to this run
            runs.append(assert_same_run(fun, x0, maxiter, **tols))
            return runs[-1]

        def checked_stack(fun, starts, maxiter, **tols):
            got = minimize_stack(fun, starts, maxiter, **tols)
            for k, (x0, res) in enumerate(zip(starts, got)):
                ref = assert_same_run(lambda x, k=k: fun([x], [k])[0], x0, maxiter, **tols)
                assert res.x == ref.x and res.nfev == ref.nfev
                runs.append(res)
            return got

        with mock.patch.object(kernel, "minimize", checked), mock.patch.object(
            kernel, "minimize_stack", checked_stack
        ):
            od.discord(rho, cfg)
            od.quantum_discord_entropy(rho, cfg)
        assert len(runs) >= 2


def _imported_modules(args):
    """Modules a fresh ``python -X importtime ARGS`` imports."""
    src = str(Path(od.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return re.findall(r"^import time:.*\|\s*(\S+)$", proc.stderr, flags=re.M)


@pytest.mark.parametrize("args", [["-c", "import opdiscord"], ["-m", "opdiscord", "--help"]])
def test_no_scipy_at_import(args):
    modules = _imported_modules(args)
    assert "opdiscord.discord" in modules
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


# Run with scipy blocked: ``sys.modules["scipy"] = None`` makes every
# ``import scipy`` (and of its submodules) raise ImportError.
NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None
import numpy as np
import opdiscord as od
from opdiscord.cli import main
from opdiscord.sampling import random_density_matrix
from opdiscord.simpliciality import certified_discord_lower_bound

q2, q3 = od.make_quantum(2), od.make_quantum(3)
ket = np.array([1, 0, 0, 1]) / np.sqrt(2)
bell = od.compose_theories(q2, q2).state_from_matrix(np.outer(ket, ket).astype(complex))
tq = od.compose_theories(q3, q2).state_from_matrix(random_density_matrix(6, np.random.default_rng(11)))
for rho in (bell, tq):
    assert od.discord(rho).value > 0.1
    assert od.quantum_discord_entropy(rho).discord_value > 0.0
    assert od.is_null_discord(rho) == (False, None)
assert certified_discord_lower_bound(bell) > 0.4
rows = od.theorem3_report([od.make_classical(2), od.make_gbit(), q2])
assert [r.consistent for r in rows] == [True, True, True]
with open(sys.argv[1], "w") as fh:
    json.dump({"systems": ["qubit", "qubit"], "coords": bell.coords.tolist()}, fh)
for command in ("discord", "null-check"):
    assert main([command, sys.argv[1], "--out", sys.argv[1] + ".out"]) == 0
assert "scipy" not in [m.split(".")[0] for m, mod in sys.modules.items() if mod is not None]
print("ok")
"""


def test_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: the searches, the certified
    bound, the Theorem 3 report and the CLI run with scipy unimportable."""
    src = str(Path(od.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path / "bell.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
