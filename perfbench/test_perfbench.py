"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib
import json
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

import checkout
import references as ref
import run
import theories
import tracer as tr
import workloads as wl

od = checkout.load_opdiscord()


def _mod(name):
    return importlib.import_module(name)


@pytest.fixture()
def tracer():
    t = tr.Tracer()
    with t.installed():
        yield t


def _calls(t, name, parent=None):
    return sum(
        1 for s in t.spans
        if s[0] == name and (parent is None or (s[3] >= 0 and t.spans[s[3]][0] == parent))
    )


def test_every_required_binding_is_wrapped(tracer):
    for name, modules in tr.REQUIRED_BINDINGS.items():
        for module in modules:
            assert module in tracer.bindings(name)
            assert getattr(_mod(module), name).__wrapped__ is not None


def test_uninstall_restores_originals():
    originals = {(m, n): getattr(_mod(m), n) for n, ms in tr.REQUIRED_BINDINGS.items() for m in ms}
    with tr.Tracer().installed():
        assert all(getattr(_mod(m), n) is not f for (m, n), f in originals.items())
    assert all(getattr(_mod(m), n) is f for (m, n), f in originals.items())


def test_solve_lp_counted_in_lp_module(tracer):
    lp = _mod("opdiscord.lp")
    lp.lp_feasible(np.eye(2), np.array([0.5, 0.5]))
    assert _calls(tracer, "solve_lp") == 1
    assert tracer.spans[0][5][0] >= 1  # pivots recorded


def test_polytope_discord_counts_lps_in_discord_and_discrimination(tracer):
    bit = od.make_classical(2)
    ab = od.compose_theories(bit, bit)
    result = od.discord(ab.state(np.full(4, 0.25)))
    # one family {0, 1}: one distinguishability LP, then one distance LP
    assert _calls(tracer, "are_perfectly_distinguishable", "maximal_distinguishable_pure_families") == 1
    assert _calls(tracer, "solve_lp", "are_perfectly_distinguishable") == 1
    assert _calls(tracer, "solve_lp", "discord") == 1
    assert tr.item_counts(tracer.spans)[None][3] == result.outer_evaluations == 1


def test_are_perfectly_distinguishable_counted_in_discord_module(tracer):
    bit = od.make_classical(2)
    ab = od.compose_theories(bit, bit)
    decomp = od.discord(ab.state(np.full(4, 0.25))).optimizer
    before = _calls(tracer, "are_perfectly_distinguishable")
    decomp.validate()
    assert _calls(tracer, "are_perfectly_distinguishable") == before + 1


def test_discord_counted_in_simpliciality(tracer):
    od.theorem3_report([od.make_classical(2)], n_random=2)
    assert _calls(tracer, "find_witness", "theorem3_report") == 1
    assert _calls(tracer, "discord", "find_witness") >= 1


def test_fixed_point_and_minimize_counted_in_discord(tracer):
    qq = od.compose_theories(od.make_quantum(2), od.make_quantum(2))
    rho = qq.state_from_matrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
    verdict, _ = od.is_null_discord(rho)
    assert verdict
    assert _calls(tracer, "find_fixed_point_basis", "discord") == 1
    assert _calls(tracer, "find_fixed_point_basis", "is_null_discord") == 1
    assert _calls(tracer, "check_vonneumann_fixed_point", "find_fixed_point_basis") == 2
    cfg = od.SearchConfig(grid_points=8, refine_iters=5, restarts=2)
    od.quantum_discord_entropy(rho, cfg)
    assert _calls(tracer, "minimize", "quantum_discord_entropy") == 2
    assert tr.item_counts(tracer.spans)[None][2] > 0  # Nelder-Mead evaluations


def test_discord_and_fixed_point_counted_in_cli(tracer, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({
        "systems": ["quantum(2)", "quantum(2)"],
        "coords": od.compose_theories(od.make_quantum(2), od.make_quantum(2))
        .state_from_matrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)).coords.tolist(),
    }))
    cli = _mod("opdiscord.cli")
    assert cli.main(["null-check", str(path), "--out", str(tmp_path / "a.json")]) == 0
    assert _calls(tracer, "find_fixed_point_basis", "main") == 1
    assert _calls(tracer, "is_null_discord", "main") == 1
    assert cli.main(["discord", str(path), "--out", str(tmp_path / "b.json")]) == 0
    assert _calls(tracer, "discord", "main") == 1
    assert _calls(tracer, "state_from_obj", "main") == 2
    assert _calls(tracer, "dumps", "main") == 2


def test_layer_metrics_account_for_wall_time():
    t = tr.Tracer()
    bit = od.make_classical(2)
    ab = od.compose_theories(bit, bit)
    with t.installed():
        t0 = perf_counter()
        for i in range(3):
            with t.item_span(i):
                od.discord(ab.state(np.full(4, 0.25)))
        wall = perf_counter() - t0
    m = tr.layer_metrics(t.spans, [], wall, wall, set())
    assert set(m) == set(tr.LAYER_METRICS)
    assert m["lp.calls"] == 6
    assert m["discord.evaluations"] == 3
    assert 0.9 < m["trace.accounted_share"] <= 1.0
    assert sum(m[f"self_s.{layer}"] for layer in tr.LAYERS) == pytest.approx(
        sum(s[2] - s[1] for s in t.spans if s[3] == -1))


def test_tail_has_ten_samples_beyond():
    lat = list(range(1, 101))
    value, pct = run.tail(lat)
    assert pct == 90 and value == 90 and sum(x > value for x in lat) == 10
    assert run.tail([3, 1, 2]) == (3, 100)


def test_run_items_stops_once_the_time_is_used():
    class Fake:
        def items(self, seed, index):
            return [wl.Item(f"b{index}-{i}", ()) for i in range(3)]

        def run(self, item):
            return item.kind

    records = run.run_items(Fake(), 1, 0.0)
    assert [r.result for r in records] == ["b0-0"]


def test_quantum_block_spreads_the_fast_items(tmp_path):
    w = wl.WORKLOADS["quantum"](od, theories.build(od, "quantum"), str(tmp_path))
    kinds = [item.kind for item in w.items(3, 0)]
    assert kinds[0] == "certify/witness" and len(kinds) == 12
    fast = {"cli-null-check/cq-2x2", "cli-null-check/cq-3x2", "cli-distance/ginibre"}
    assert {kinds[i] for i in (3, 6, 9)} == fast
    assert fast.isdisjoint(kinds[:3] + kinds[4:6] + kinds[7:9] + kinds[10:])


def test_bell_diagonal_references_match_the_library():
    qq = od.compose_theories(od.make_quantum(2), od.make_quantum(2))
    mat, c = ref.bell_diagonal_matrix([1.0, 0.0, 0.0, 0.0])
    assert ref.bell_diagonal_discord(c) == 0.5
    assert ref.bell_diagonal_entropic_discord([1.0, 0.0, 0.0, 0.0], c) == pytest.approx(1.0)
    weights = [0.1, 0.2, 0.3, 0.4]
    mat, c = ref.bell_diagonal_matrix(weights)
    rho = qq.state_from_matrix(mat)
    cfg = od.SearchConfig(grid_points=400)
    assert od.quantum_discord_entropy(rho, cfg).discord_value == pytest.approx(
        ref.bell_diagonal_entropic_discord(weights, c), abs=1e-8)


def test_polytope_reference_matches_the_library():
    gbit = od.make_gbit()
    ab = od.compose_theories(gbit, gbit)
    rng = np.random.default_rng(5)
    rho = ab.state(rng.dirichlet(np.ones(16)) @ ab.pure_state_coords)
    fams = [np.array([s.coords for s in f]) for f in od.maximal_distinguishable_pure_families(gbit)]
    expect = ref.polytope_discord(rho.coords, ab.pure_state_coords, fams, gbit.pure_state_coords)
    assert od.discord(rho).value == pytest.approx(expect, abs=1e-9)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(checkout.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "polytope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
