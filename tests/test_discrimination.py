import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opdiscord as od
from opdiscord.discrimination import (
    FAMILY_CHECK_BUDGET,
    _polytope_max_pairing,
    _polytope_maximal_families,
)
from opdiscord.sampling import random_state

import oracles
from conftest import KET0, KET1, KETP, dm


class TestMinErrorDiscrimination:
    def test_identical_states(self, classical3, rng):
        s = random_state(classical3, rng)
        res = od.min_error_discrimination(s, s)
        assert_allclose(res.distance, 0.0, atol=1e-12)
        assert_allclose(res.p_err, 0.5, atol=1e-12)

    def test_orthogonal_qubit_states(self, qubit):
        s0 = qubit.state_from_matrix(dm(KET0))
        s1 = qubit.state_from_matrix(dm(KET1))
        res = od.min_error_discrimination(s0, s1)
        assert_allclose(res.distance, 1.0, atol=1e-12)
        assert_allclose(res.p_err, 0.0, atol=1e-12)

    def test_zero_vs_plus(self, qubit):
        # eigenvalue oracle on dm(|0>) - dm(|+>): eigenvalues +-1/sqrt(2)
        assert_allclose(
            sorted(np.linalg.eigvalsh(dm(KET0) - dm(KETP))),
            [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
            atol=1e-12,
        )
        s0 = qubit.state_from_matrix(dm(KET0))
        sp = qubit.state_from_matrix(dm(KETP))
        assert_allclose(od.operational_distance(s0, sp), 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_classical_point_vs_uniform(self, classical2):
        s0 = classical2.state([1.0, 0.0])
        s1 = classical2.state([0.5, 0.5])
        assert_allclose(od.operational_distance(s0, s1), 0.5, atol=1e-12)
        assert_allclose(od.operational_distance(s0, s1), oracles.tv_distance([1, 0], [0.5, 0.5]))

    def test_optimal_effect_is_valid_and_attains(self, gbit, rng):
        for _ in range(20):
            s0, s1 = random_state(gbit, rng), random_state(gbit, rng)
            res = od.min_error_discrimination(s0, s1)
            od.validate_effect(res.optimal_effect, 1e-9)
            attained = od.evaluate(res.optimal_effect, s0) - od.evaluate(res.optimal_effect, s1)
            assert_allclose(attained, res.distance, atol=1e-9)
            assert_allclose(res.p_err + res.distance / 2.0, 0.5, atol=1e-12)

    def test_subnormalized_rejected(self, classical2):
        sub = classical2.state([0.4, 0.4])
        with pytest.raises(od.InvalidStateError):
            od.min_error_discrimination(sub, classical2.state([1.0, 0.0]))

    def test_gbit_distinct_vertices_have_distance_one(self, gbit):
        # every pair of gbit vertices differs deterministically in a
        # fiducial measurement (verified against the dual-polytope LP)
        pure = gbit.pure_states
        for a, b in itertools.combinations(pure, 2):
            assert_allclose(od.operational_distance(a, b), 1.0, atol=1e-12)

    def test_gbit_interior_pair_in_unit_interval(self, gbit):
        v = gbit.pure_state_coords
        s0 = gbit.state(0.75 * v[0] + 0.25 * v[2])
        s1 = gbit.state(0.25 * v[0] + 0.75 * v[2])
        d = od.operational_distance(s0, s1)
        assert 0.0 < d < 1.0
        assert_allclose(d, 0.5, atol=1e-12)


class TestLPvsVertexEnumeration:
    @pytest.mark.parametrize("maker", [od.make_classical, None])
    def test_vertex_enumeration_equals_lp(self, maker, rng):
        theory = od.make_classical(4) if maker else od.make_gbit()
        for _ in range(25):
            delta = random_state(theory, rng).coords - random_state(theory, rng).coords
            by_vertex, _ = _polytope_max_pairing(theory, delta)
            by_lp = oracles.scipy_effect_maximum(theory.pure_state_coords, delta)
            assert_allclose(by_vertex, by_lp, atol=1e-9)

    def test_composite_lp_against_scipy(self, classical3, rng):
        cc = od.compose_theories(classical3, classical3)
        for _ in range(15):
            delta = random_state(cc, rng).coords - random_state(cc, rng).coords
            mine, effect = _polytope_max_pairing(cc, delta)
            ref = oracles.scipy_effect_maximum(cc.pure_state_coords, delta)
            assert_allclose(mine, ref, atol=1e-9)
            vals = cc.pure_state_coords @ effect
            assert vals.min() >= -1e-9 and vals.max() <= 1.0 + 1e-9


class TestMetricProperties:
    @pytest.mark.parametrize("setup", ["gbit", "qubit", "classical"])
    def test_metric_axioms_on_random_triples(self, setup, rng):
        if setup == "gbit":
            theory = od.make_gbit()
        elif setup == "classical":
            theory = od.make_classical(3)
        else:
            theory = od.make_quantum(2)
        for _ in range(60):
            a, b, c = (random_state(theory, rng) for _ in range(3))
            dab = od.operational_distance(a, b)
            dba = od.operational_distance(b, a)
            dac = od.operational_distance(a, c)
            dcb = od.operational_distance(c, b)
            assert abs(dab - dba) <= 1e-9
            assert dab <= dac + dcb + 1e-9
            assert dab >= -1e-12

    def test_identity_of_indiscernibles(self, gbit, rng):
        s = random_state(gbit, rng)
        assert od.operational_distance(s, s) < 1e-9
        t = random_state(gbit, rng)
        if np.max(np.abs(s.coords - t.coords)) >= 1e-7:
            assert od.operational_distance(s, t) >= 1e-9

    def test_classical_distance_is_total_variation(self, rng):
        theory = od.make_classical(5)
        for _ in range(50):
            p, q = random_state(theory, rng), random_state(theory, rng)
            assert_allclose(
                od.operational_distance(p, q),
                oracles.tv_distance(p.coords, q.coords),
                atol=1e-10,
            )

    def test_diagonal_quantum_agrees_with_classical_embedding(self, rng):
        qt = od.make_quantum(3)
        ct = od.make_classical(3)
        for _ in range(25):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            dq = od.operational_distance(
                qt.state_from_matrix(np.diag(p).astype(complex)),
                qt.state_from_matrix(np.diag(q).astype(complex)),
            )
            dc = od.operational_distance(ct.state(p), ct.state(q))
            assert abs(dq - dc) <= 1e-9


class TestPerfectDistinguishability:
    def test_classical_basis_states(self, classical3):
        cert = od.are_perfectly_distinguishable(classical3.pure_states)
        assert cert.distinguishable
        for i, a in enumerate(cert.discriminating_effects):
            for j, s in enumerate(classical3.pure_states):
                assert abs(od.evaluate(a, s) - (1.0 if i == j else 0.0)) <= 1e-8

    def test_effects_sum_to_unit(self, classical3):
        cert = od.are_perfectly_distinguishable(classical3.pure_states)
        total = sum(a.coords for a in cert.discriminating_effects)
        assert_allclose(total, classical3.det_effect_coords, atol=1e-9)

    def test_nonorthogonal_qubit_states(self, qubit):
        s0 = qubit.state_from_matrix(dm(KET0))
        sp = qubit.state_from_matrix(dm(KETP))
        assert not od.are_perfectly_distinguishable([s0, sp]).distinguishable

    def test_orthogonal_qubit_states_certificate(self, qubit):
        s0 = qubit.state_from_matrix(dm(KET0))
        s1 = qubit.state_from_matrix(dm(KET1))
        cert = od.are_perfectly_distinguishable([s0, s1])
        assert cert.distinguishable
        for i, a in enumerate(cert.discriminating_effects):
            assert abs(od.evaluate(a, [s0, s1][i]) - 1.0) <= 1e-8

    def test_empty_list_rejected(self):
        with pytest.raises(od.InvalidStateError):
            od.are_perfectly_distinguishable([])

    def test_gbit_all_pairs_distinguishable(self, gbit):
        # derived with the LP feasibility oracle over all 6 pairs: every
        # pair of distinct square vertices is perfectly distinguishable
        for a, b in itertools.combinations(gbit.pure_states, 2):
            cert = od.are_perfectly_distinguishable([a, b])
            assert cert.distinguishable
            assert abs(od.evaluate(cert.discriminating_effects[0], a) - 1.0) <= 1e-8
            assert abs(od.evaluate(cert.discriminating_effects[0], b)) <= 1e-8

    def test_gbit_triples_not_distinguishable(self, gbit):
        for trio in itertools.combinations(gbit.pure_states, 3):
            assert not od.are_perfectly_distinguishable(list(trio)).distinguishable

    def test_distance_one_iff_distinguishable(self, gbit, qubit):
        pairs = [
            (gbit.pure_states[0], gbit.pure_states[2], True),
            (
                gbit.state(0.75 * gbit.pure_state_coords[0] + 0.25 * gbit.pure_state_coords[2]),
                gbit.pure_states[2],
                False,
            ),
            (qubit.state_from_matrix(dm(KET0)), qubit.state_from_matrix(dm(KET1)), True),
            (qubit.state_from_matrix(dm(KET0)), qubit.state_from_matrix(dm(KETP)), False),
        ]
        for a, b, expect in pairs:
            assert (od.operational_distance(a, b) > 1.0 - 1e-9) == expect
            assert od.are_perfectly_distinguishable([a, b]).distinguishable == expect


class TestMaximalFamilies:
    def test_classical_unique_family(self, classical3):
        fams = od.maximal_distinguishable_pure_families(classical3)
        assert len(fams) == 1
        assert len(fams[0]) == 3

    def test_gbit_six_pair_families(self, gbit):
        # frozen from the LP feasibility oracle: all six vertex pairs,
        # no triples
        fams = od.maximal_distinguishable_pure_families(gbit)
        assert len(fams) == 6
        assert all(len(f) == 2 for f in fams)

    def test_pentagon_five_diagonals(self, pentagon):
        fams = od.maximal_distinguishable_pure_families(pentagon)
        assert len(fams) == 5
        assert all(len(f) == 2 for f in fams)
        # the distinguishable pairs are exactly the non-adjacent ones
        coords = pentagon.pure_state_coords
        for fam in fams:
            i = np.argmin(np.linalg.norm(coords - fam[0].coords, axis=1))
            j = np.argmin(np.linalg.norm(coords - fam[1].coords, axis=1))
            assert min((i - j) % 5, (j - i) % 5) == 2

    def test_qubit_grid_families(self, qubit):
        fams = od.maximal_distinguishable_pure_families(qubit, grid_points=50)
        assert len(fams) == 50
        for fam in fams[::10]:
            cert = od.are_perfectly_distinguishable(list(fam))
            assert cert.distinguishable

    def test_qubit_default_grid_size(self, qubit):
        fams = od.maximal_distinguishable_pure_families(qubit)
        assert len(fams) == 2000
        assert all(len(f) == 2 for f in fams)

    def test_budget_error(self, pentagon):
        with pytest.raises(od.ResourceBudgetError):
            od.maximal_distinguishable_pure_families(pentagon, budget=2)

    def test_families_cached_per_theory_object(self):
        def coords(fams):
            return [[s.coords.tobytes() for s in fam] for fam in fams]

        # fresh objects: the cache is keyed by theory identity
        pentagon = od.make_polygon(5)
        for _ in range(2):
            with pytest.raises(od.ResourceBudgetError):
                od.maximal_distinguishable_pure_families(pentagon, budget=2)
        first = od.maximal_distinguishable_pure_families(pentagon)
        assert od.maximal_distinguishable_pure_families(pentagon) is first
        uncached = _polytope_maximal_families.__wrapped__(pentagon, FAMILY_CHECK_BUDGET)
        assert coords(first) == coords(uncached)
        with pytest.raises(od.ResourceBudgetError):
            od.maximal_distinguishable_pure_families(pentagon, budget=2)
        other = od.maximal_distinguishable_pure_families(od.make_polygon(5))
        assert other is not first and coords(other) == coords(first)
