import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import opdiscord as od
from opdiscord.lp import lp_feasible
from opdiscord.sampling import random_density_matrix, random_separable_state
from opdiscord.simpliciality import certified_discord_lower_bound

import oracles
from conftest import KET0, KET1, KETP, dm


class TestIsSimplicial:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_classical_systems_are_simplicial(self, n):
        rep = od.is_simplicial(od.make_classical(n))
        assert rep.is_simplex
        assert rep.pure_count == n
        assert rep.dim == n
        assert rep.affine_rank == n - 1

    def test_gbit_is_not_simplicial(self, gbit):
        rep = od.is_simplicial(gbit)
        assert not rep.is_simplex
        assert rep.pure_count == 4 and rep.dim == 3
        assert rep.affine_rank == oracles.affine_rank(gbit.pure_state_coords)

    def test_triangle_is_simplicial(self):
        rep = od.is_simplicial(od.make_polygon(3))
        assert rep.is_simplex
        assert rep.affine_rank == 2

    def test_pentagon_is_not_simplicial(self, pentagon):
        assert not od.is_simplicial(pentagon).is_simplex

    def test_quantum_never_simplicial(self, qubit):
        rep = od.is_simplicial(qubit)
        assert not rep.is_simplex
        assert math.isinf(rep.pure_count)

    def test_simplicial_decomposition_unique(self, rng):
        # simplex: every state has a unique pure decomposition
        theory = od.make_classical(4)
        weights = rng.dirichlet(np.ones(4))
        state = theory.state(weights @ theory.pure_state_coords)
        ok, coeff = lp_feasible(theory.pure_state_coords.T, state.coords)
        assert ok
        assert_allclose(coeff, weights, atol=1e-9)
        assert np.linalg.matrix_rank(theory.pure_state_coords, tol=1e-9) == 4


class TestFindWitness:
    def test_gbit_witness(self, gbit):
        rep = od.find_witness(gbit)
        assert rep.found
        assert_allclose(rep.discord_lower_bound, 1.0 / 6.0, atol=1e-9)
        assert rep.state is not None
        od.validate_state(rep.state)

    def test_pentagon_witness(self, pentagon):
        rep = od.find_witness(pentagon)
        assert rep.found
        # frozen after cross-checking the exact LP against scipy's LP
        assert_allclose(rep.discord_lower_bound, 0.127322003750035, atol=1e-9)

    def test_classical_witnesses_absent(self):
        for n in (2, 3):
            rep = od.find_witness(od.make_classical(n), n_random=40)
            assert not rep.found
            assert rep.discord_lower_bound == 0.0

    def test_triangle_witness_absent(self):
        rep = od.find_witness(od.make_polygon(3), n_random=20)
        assert not rep.found

    @pytest.mark.slow
    def test_qubit_witness_certified(self, qubit):
        rep = od.find_witness(qubit)
        assert rep.found
        assert rep.discord_lower_bound >= 0.15
        assert rep.discord_lower_bound <= od.discord(rep.state).value
        assert "certified" in rep.construction

    def test_witness_states_are_separable_by_construction(self, gbit, rng):
        rep = od.find_witness(gbit)
        # the witness is built as a mixture of products over the theory
        # and a copy of itself; membership in the product-vertex cone is
        # separability here
        assert od.state_in_cone(rep.state)

    def test_classical_random_candidates_all_null(self, rng):
        cc = od.compose_theories(od.make_classical(3), od.make_classical(3))
        for _ in range(50):
            rho = random_separable_state(cc, rng)
            assert od.discord(rho).value <= 1e-7


class TestCertifiedLowerBound:
    @pytest.mark.slow
    def test_bell_bound_is_tight(self, bell_state):
        lower = certified_discord_lower_bound(bell_state, n_theta=24, n_phi=48, iters=40)
        value = od.discord(bell_state).value
        assert lower <= value + 1e-9
        assert lower > 0.35

    @pytest.mark.slow
    def test_bound_below_search_value(self, two_qubits):
        mat = 0.5 * np.kron(dm(KET0), dm(KET0)) + 0.5 * np.kron(dm(KETP), dm(KET1))
        rho = two_qubits.state_from_matrix(mat)
        lower = certified_discord_lower_bound(rho, n_theta=24, n_phi=48, iters=40)
        upper = od.discord(rho).value
        assert 0.0 < lower <= upper + 1e-9

    @settings(max_examples=8)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ginibre", "separable"]), st.sampled_from([2, 3]))
    def test_bound_at_least_the_supergradient_bound_and_below_discord(self, seed, kind, db):
        rng = np.random.default_rng(seed)
        ab = od.compose_theories(od.make_quantum(2), od.make_quantum(db))
        if kind == "ginibre":
            rho = ab.state_from_matrix(random_density_matrix(2 * db, rng))
        else:
            rho = random_separable_state(ab, rng)
        lower = certified_discord_lower_bound(rho, n_theta=6, n_phi=12)
        assert lower >= oracles.certified_bound_loop(rho.matrix(), db, 6, 12) - 1e-12
        assert lower <= od.discord(rho).value

    def test_cq_state_bound_nonpositive_message(self, two_qubits):
        mat = 0.5 * np.kron(dm(KET0), dm(KET0)) + 0.5 * np.kron(dm(KET1), dm(KET1))
        rho = two_qubits.state_from_matrix(mat)
        lower = certified_discord_lower_bound(rho, n_theta=12, n_phi=24, iters=25)
        assert lower <= 1e-9


class TestCertifiedBoundRejectsBadInput:
    def test_single_polar_row(self, bell_state):
        with pytest.raises(ValueError, match="n_theta"):
            certified_discord_lower_bound(bell_state, n_theta=1)

    def test_no_azimuths(self, bell_state):
        with pytest.raises(ValueError, match="n_phi"):
            certified_discord_lower_bound(bell_state, n_phi=0)

    def test_no_iterations(self, bell_state):
        with pytest.raises(ValueError, match="iters"):
            certified_discord_lower_bound(bell_state, iters=0)

    def test_non_state(self, two_qubits):
        non_psd = two_qubits.state_from_matrix(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
        with pytest.raises(od.InvalidStateError, match="outside the state cone"):
            certified_discord_lower_bound(non_psd)

    def test_subnormalized_state(self, two_qubits):
        # I/8 has trace 1/2; the parent returned a "bound" of -0.285 for it
        half = two_qubits.state_from_matrix(np.eye(4, dtype=complex) / 8.0)
        with pytest.raises(od.InvalidStateError, match="normalized states"):
            certified_discord_lower_bound(half)

    def test_single_system_state(self, qubit):
        with pytest.raises(od.SystemMismatchError, match="bipartite"):
            certified_discord_lower_bound(qubit.state_from_matrix(np.eye(2, dtype=complex) / 2.0))

    def test_polytope_state(self, gbit):
        gg = od.compose_theories(gbit, gbit)
        with pytest.raises(od.UnsupportedBackendError):
            certified_discord_lower_bound(gg.state(np.kron(gbit.pure_state_coords[0], gbit.pure_state_coords[0])))

    def test_qutrit_first_factor(self):
        ab = od.compose_theories(od.make_quantum(3), od.make_quantum(2))
        with pytest.raises(ValueError, match="qubit first factor"):
            certified_discord_lower_bound(ab.state_from_matrix(np.eye(6, dtype=complex) / 6.0))


class TestTheorem3Report:
    def test_rows_and_consistency(self):
        theories = [od.make_classical(2), od.make_gbit()]
        rows = od.theorem3_report(theories, n_random=4)
        assert [r.theory for r in rows] == ["classical(2)", "polygon(4)"]
        for row in rows:
            assert row.consistent
            assert row.is_simplex != row.witness_found
            assert row.runtime_ms > 0.0

    def test_csv_format(self):
        rows = od.theorem3_report([od.make_classical(2)], n_random=2)
        csv_text = od.theorem3_rows_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "theory,dim,pure_count,is_simplex,witness_found,discord_lower_bound"
        assert lines[1] == "classical(2),2,2,true,false,0"

    def test_empty_list_gives_header_only(self):
        assert od.theorem3_rows_to_csv([]).strip().split("\n") == [
            "theory,dim,pure_count,is_simplex,witness_found,discord_lower_bound"
        ]
