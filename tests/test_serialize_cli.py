import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opdiscord as od
from opdiscord.cli import main
from opdiscord.sampling import random_state
from opdiscord.serialize import (
    dumps,
    resolve_theory,
    state_from_obj,
    state_to_obj,
    test_from_obj as instrument_from_obj,
    test_to_obj as instrument_to_obj,
    theory_from_obj,
    theory_to_obj,
)
from opdiscord.config import SearchConfig
from opdiscord.objective import classical_partition_instrument

from conftest import BELL, KET0, KET1, KETP, dm


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj))
    return str(path)


class TestSerialization:
    def test_float_precision_roundtrip(self):
        values = [1.0 / 3.0, np.pi, 1e-17, 0.1 + 0.2, 2.0 ** -53]
        text = dumps({"v": values})
        back = json.loads(text)["v"]
        assert back == values

    def test_theory_roundtrip_polytope(self, gbit):
        obj = json.loads(dumps(theory_to_obj(gbit)))
        back = theory_from_obj(obj)
        assert back.is_same(gbit)
        assert_allclose(back.pure_state_coords, gbit.pure_state_coords, atol=0)
        assert_allclose(back.effect_vertex_coords, gbit.effect_vertex_coords, atol=0)

    def test_theory_roundtrip_quantum(self, qubit):
        back = theory_from_obj(json.loads(dumps(theory_to_obj(qubit))))
        assert back.is_same(qubit)

    def test_state_roundtrip_single_and_bipartite(self, gbit, rng):
        s = random_state(gbit, rng)
        back = state_from_obj(json.loads(dumps(state_to_obj(s))))
        assert np.array_equal(back.coords, s.coords)
        gg = od.compose_theories(gbit, gbit)
        ab = random_state(gg, rng)
        back = state_from_obj(json.loads(dumps(state_to_obj(ab))))
        assert np.array_equal(back.coords, ab.coords)
        assert back.system.is_composite

    def test_test_model_roundtrip(self, classical3):
        t = classical_partition_instrument(classical3, [[0, 1], [2]])
        back = instrument_from_obj(json.loads(dumps(instrument_to_obj(t))))
        for a, b in zip(t.events, back.events):
            assert np.array_equal(a.matrix, b.matrix)

    def test_config_roundtrip(self):
        cfg = SearchConfig(grid_points=123, refine_iters=55, restarts=2, seed=777, tol_zero=1e-8)
        back = SearchConfig.from_obj(json.loads(dumps(cfg.to_obj())))
        assert back == cfg

    def test_resolve_builtins(self):
        assert resolve_theory("classical(4)").dim == 4
        assert resolve_theory("gbit").name == "polygon(4)"
        assert resolve_theory("qubit").quantum_levels == 2
        with pytest.raises(od.InvalidStateError):
            resolve_theory("nonsense(3)")

    def test_builtin_theories_are_built_once(self):
        assert resolve_theory("qubit") is resolve_theory("quantum(2)")
        assert resolve_theory("gbit") is resolve_theory("polygon(4)")
        loaded = {"qubit": od.make_quantum(2)}
        assert resolve_theory("qubit", loaded) is loaded["qubit"]


@pytest.fixture()
def state_files(tmp_path, classical2, two_qubits):
    cc = od.compose_theories(classical2, classical2)
    files = {
        "s0": write(tmp_path, "s0.json", state_to_obj(classical2.state([1.0, 0.0]))),
        "s1": write(tmp_path, "s1.json", state_to_obj(classical2.state([0.5, 0.5]))),
        "corr": write(tmp_path, "corr.json", state_to_obj(cc.state([0.5, 0.0, 0.0, 0.5]))),
        "bell": write(tmp_path, "bell.json", state_to_obj(two_qubits.state_from_matrix(dm(BELL)))),
        "product": write(
            tmp_path,
            "product.json",
            state_to_obj(two_qubits.state_from_matrix(np.kron(dm(KET0), dm(KETP)))),
        ),
        "cq": write(
            tmp_path,
            "cq.json",
            state_to_obj(
                two_qubits.state_from_matrix(
                    0.3 * np.kron(dm(KET0), dm(KETP)) + 0.7 * np.kron(dm(KET1), dm(KET0))
                )
            ),
        ),
    }
    return files


class TestCLI:
    def test_distance_classical(self, state_files, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["distance", state_files["s0"], state_files["s1"], "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert_allclose(report["distance"], 0.5, atol=1e-12)
        assert_allclose(report["p_err"], 0.25, atol=1e-12)
        assert report["manifest"]["command"] == "distance"

    def test_distance_identical_files(self, state_files, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["distance", state_files["bell"], state_files["bell"], "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["distance"] <= 1e-12

    def test_discord_product_file(self, state_files, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["discord", state_files["product"], "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["value"] <= 1e-9
        assert report["converged"] is True

    def test_discord_classical_correlated(self, state_files, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["discord", state_files["corr"], "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["value"] <= 1e-7

    def test_discord_bell_positive(self, state_files, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["discord", state_files["bell"], "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert_allclose(report["value"], 0.5, atol=1e-5)
        decomp = report["optimizer"]
        recon = sum(
            w * np.kron(f, c)
            for w, f, c in zip(decomp["weights"], decomp["family"], decomp["conditionals"])
        )
        assert len(recon) == 16

    def test_null_check_cq_true_with_basis(self, state_files, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["null-check", state_files["cq"], "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["null_discord"] is True
        assert "decomposition" in report and "eq4_basis" in report

    def test_null_check_bell_false(self, state_files, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["null-check", state_files["bell"], "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["null_discord"] is False
        assert "decomposition" not in report

    def test_theorem3_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["theorem3", "classical(2)", "gbit", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("theory,dim,pure_count")
        assert lines[1].startswith("classical(2),2,2,true,false")
        assert lines[2].startswith("polygon(4),3,4,false,true")
        assert lines[-1].startswith("# manifest:")

    def test_theorem3_empty_is_header_only(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["theorem3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2  # header + manifest comment
        assert lines[0] == "theory,dim,pure_count,is_simplex,witness_found,discord_lower_bound"

    def test_custom_theory_file(self, tmp_path, pentagon, rng):
        tfile = write(tmp_path, "pent.json", theory_to_obj(pentagon))
        s = random_state(pentagon, rng)
        sfile = write(tmp_path, "s.json", state_to_obj(s))
        out = tmp_path / "r.json"
        rc = main(["distance", sfile, sfile, "--theory", tfile, "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["distance"] <= 1e-12

    def test_exit_code_on_missing_file(self, capsys):
        assert main(["distance", "/nonexistent/a.json", "/nonexistent/b.json"]) == 2

    def test_exit_code_on_invalid_state(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"theory": "classical(2)", "systems": ["classical(2)"], "coords": [1.0]}')
        assert main(["distance", str(bad), str(bad)]) == 2

    def test_nan_state_file_exits_2_naming_the_cause(self, tmp_path):
        path = tmp_path / "nan.json"
        coords = [float("nan")] + [0.1] * 8
        path.write_text(json.dumps({"theory": "gbit", "systems": ["gbit", "gbit"], "coords": coords}))
        src = str(Path(od.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "opdiscord", "discord", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "coordinates must be finite" in proc.stderr

    @pytest.mark.parametrize("command", ["discord", "null-check"])
    def test_non_psd_state_file_exits_2(self, two_qubits, tmp_path, capsys, command):
        rho = two_qubits.state_from_matrix(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
        path = write(tmp_path, "non_psd.json", state_to_obj(rho))
        assert main([command, path]) == 2
        assert "outside the state cone" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["discord", "null-check", "distance"])
    def test_polytope_point_outside_the_cone_exits_2(self, pentagon, tmp_path, capsys, command):
        # normalized, but an affine rather than convex mix of product vertices
        pp = od.compose_theories(pentagon, pentagon)
        vertices = pp.pure_state_coords
        path = write(tmp_path, "outside.json", {
            "systems": ["polygon(5)", "polygon(5)"],
            "coords": 2.5 * vertices[0] - 1.5 * vertices[7],
        })
        argv = [command, path, path] if command == "distance" else [command, path]
        assert main(argv) == 2
        assert "outside the state cone" in capsys.readouterr().err

    def test_repeated_runs_share_the_theory_and_its_families(self, pentagon, rng, tmp_path):
        from opdiscord.discrimination import _polytope_maximal_families

        pp = od.compose_theories(pentagon, pentagon)
        path = write(tmp_path, "p5.json", state_to_obj(random_state(pp, rng)))
        _polytope_maximal_families.cache_clear()
        for i in range(3):
            assert main(["null-check", path, "--out", str(tmp_path / f"r{i}.json")]) == 0
        assert _polytope_maximal_families.cache_info().misses == 1

    def test_exit_code_on_mismatched_systems(self, state_files, capsys):
        assert main(["distance", state_files["s0"], state_files["bell"]]) == 2

    def test_exit_code_on_budget_exhaustion(self, state_files, monkeypatch, capsys):
        import opdiscord.cli as cli_mod

        def blown(*args, **kwargs):
            raise od.ResourceBudgetError("family enumeration exceeded the check budget")

        monkeypatch.setattr(cli_mod, "discord", blown)
        assert main(["discord", state_files["corr"]]) == 3

    def test_exit_code_on_consistency_failure(self, state_files, monkeypatch, capsys):
        import opdiscord.cli as cli_mod

        def corrupt(*args, **kwargs):
            raise od.ConsistencyError("lemma assertion failed")

        monkeypatch.setattr(cli_mod, "discord", corrupt)
        assert main(["discord", state_files["corr"]]) == 4

    def test_determinism_modulo_timestamps(self, state_files, tmp_path):
        # the manifest's wall-clock fields are the only ones allowed to differ
        strip = lambda t: re.sub(r'"(started|finished)": "[^"]*"|"row_runtime_ms": \[[^\]]*\]', "", t)
        theorem3 = ["theorem3", "classical(2)", "gbit", "qubit", "--format"]
        for argv in (
            ["discord", state_files["corr"]],
            ["discord", state_files["bell"]],
            theorem3 + ["json"],
            theorem3 + ["csv"],
        ):
            out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
            assert main(argv + ["--seed", "42", "--out", str(out1)]) == 0
            assert main(argv + ["--seed", "42", "--out", str(out2)]) == 0
            text = out1.read_text()
            assert strip(text) == strip(out2.read_text())
            assert "runtime_ms" not in strip(text)
            assert ('"row_runtime_ms"' in text) == (argv[0] == "theorem3")

    def test_emitted_json_reparses_to_same_values(self, state_files, tmp_path):
        out = tmp_path / "r.json"
        main(["distance", state_files["s0"], state_files["s1"], "--out", str(out)])
        text = out.read_text()
        report = json.loads(text)
        assert dumps(report) == text.rstrip("\n") or json.loads(dumps(report)) == report
