import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import opdiscord as od
from opdiscord.discrimination import basis_family
from opdiscord.herm import hermitian_basis
from opdiscord.sampling import (
    random_cq_state,
    random_haar_basis,
    random_pure_ket,
    random_density_matrix,
    random_entangled_pure,
    random_state,
)

import oracles
from conftest import BELL, KET0, KET1, KETP, dm


def swap_sides(state):
    """The same bipartite state with the two factors exchanged."""
    ab = state.system
    fa, fb = ab.factors
    ba = od.compose_theories(fb, fa)
    table = state.coords.reshape(fa.dim, fb.dim)
    return ba.state(table.T.reshape(-1))


@pytest.fixture(scope="module")
def witness_state(two_qubits):
    mat = 0.5 * np.kron(dm(KET0), dm(KET0)) + 0.5 * np.kron(dm(KETP), dm(KET1))
    return two_qubits.state_from_matrix(mat)


class TestNullDiscordConstruction:
    def test_classical_correlated(self, classical2):
        fam = classical2.pure_states
        decomp = od.NullDiscordDecomposition(
            family=tuple(fam),
            weights=np.array([0.5, 0.5]),
            conditionals=tuple(fam),
        )
        state = od.make_null_discord_state(decomp)
        assert_allclose(state.coords, [0.5, 0.0, 0.0, 0.5], atol=1e-15)

    def test_quantum_cq_construction(self, qubit):
        sig0 = qubit.state_from_matrix(random_density_matrix(2, np.random.default_rng(1)))
        sig1 = qubit.state_from_matrix(random_density_matrix(2, np.random.default_rng(2)))
        decomp = od.NullDiscordDecomposition(
            family=(qubit.state_from_matrix(dm(KET0)), qubit.state_from_matrix(dm(KET1))),
            weights=np.array([0.5, 0.5]),
            conditionals=(sig0, sig1),
        )
        state = od.make_null_discord_state(decomp)
        expected = 0.5 * np.kron(dm(KET0), sig0.matrix()) + 0.5 * np.kron(dm(KET1), sig1.matrix())
        assert_allclose(state.matrix(), expected, atol=1e-12)

    def test_single_term_product(self, gbit, rng):
        psi = gbit.pure_states[0]
        sigma = random_state(gbit, rng)
        decomp = od.NullDiscordDecomposition((psi,), np.array([1.0]), (sigma,))
        state = od.make_null_discord_state(decomp)
        assert_allclose(state.coords, np.kron(psi.coords, sigma.coords), atol=1e-15)
        assert od.discord(state).value <= 1e-9

    def test_bad_weights_rejected(self, classical2):
        fam = classical2.pure_states
        with pytest.raises(od.InvalidStateError, match="sum to 1"):
            od.make_null_discord_state(
                od.NullDiscordDecomposition(tuple(fam), np.array([0.7, 0.7]), tuple(fam))
            )

    def test_non_distinguishable_family_rejected(self, qubit):
        fam = (qubit.state_from_matrix(dm(KET0)), qubit.state_from_matrix(dm(KETP)))
        cond = (qubit.state_from_matrix(dm(KET0)), qubit.state_from_matrix(dm(KET1)))
        with pytest.raises(od.InvalidStateError, match="distinguishable"):
            od.make_null_discord_state(
                od.NullDiscordDecomposition(fam, np.array([0.5, 0.5]), cond)
            )

    def test_mixed_family_member_rejected(self, classical2):
        mixed = classical2.state([0.5, 0.5])
        with pytest.raises(od.InvalidStateError, match="pure"):
            od.make_null_discord_state(
                od.NullDiscordDecomposition(
                    (classical2.pure_states[0], mixed),
                    np.array([0.5, 0.5]),
                    tuple(classical2.pure_states),
                )
            )

    def test_construction_provides_complete_objective_information(self, gbit):
        from opdiscord.objective import family_readout_instrument

        fam = list(od.maximal_distinguishable_pure_families(gbit)[0])
        cert = od.are_perfectly_distinguishable(fam)
        decomp = od.NullDiscordDecomposition(
            tuple(fam), np.array([0.3, 0.7]), (gbit.pure_states[1], gbit.pure_states[3])
        )
        state = od.make_null_discord_state(decomp)
        marginal = od.marginalize(state, "B")
        test = family_readout_instrument(fam, list(cert.discriminating_effects))
        rep = od.objective_info_report(test, marginal)
        assert rep.provides and rep.complete


class TestDistanceToFamily:
    def test_decomposable_state_has_zero_distance(self, classical2):
        cc = od.compose_theories(classical2, classical2)
        rho = cc.state([0.25, 0.25, 0.25, 0.25])
        value, decomp = od.distance_to_family(rho, classical2.pure_states)
        assert value <= 1e-9
        assert_allclose(decomp.reconstruction_coords(), rho.coords, atol=1e-9)

    def test_gbit_adjacent_correlation_vs_opposite_family(self, gbit):
        # exact LP value, frozen after verification against scipy's LP
        gg = od.compose_theories(gbit, gbit)
        v = gbit.pure_state_coords
        rho = gg.state((np.kron(v[1], v[1]) + np.kron(v[2], v[2])) / 2.0)
        opposite = (gbit.pure_states[0], gbit.pure_states[2])
        value, _ = od.distance_to_family(rho, list(opposite))
        assert_allclose(value, 0.25, atol=1e-9)
        ref = oracles.scipy_distance_to_family(
            rho.coords,
            gg.pure_state_coords,
            np.array([s.coords for s in opposite]),
            gbit.pure_state_coords,
        )
        assert_allclose(value, ref, atol=1e-9)

    def test_matches_scipy_on_random_instances(self, gbit, rng):
        gg = od.compose_theories(gbit, gbit)
        fams = od.maximal_distinguishable_pure_families(gbit)
        for _ in range(10):
            rho = random_state(gg, rng)
            fam = fams[int(rng.integers(len(fams)))]
            value, decomp = od.distance_to_family(rho, list(fam))
            ref = oracles.scipy_distance_to_family(
                rho.coords,
                gg.pure_state_coords,
                np.array([s.coords for s in fam]),
                gbit.pure_state_coords,
            )
            assert_allclose(value, ref, atol=1e-9)
            # reported value is the exact distance of the reported optimizer
            recon = decomp.reconstruction_coords()
            direct = od.operational_distance(rho, gg.state(recon))
            assert_allclose(value, direct, atol=1e-9)

    def test_invalid_family_rejected(self, gbit):
        gg = od.compose_theories(gbit, gbit)
        rho = random_state(gg, np.random.default_rng(0))
        adjacent_mix = gbit.state(0.5 * gbit.pure_state_coords[0] + 0.5 * gbit.pure_state_coords[1])
        with pytest.raises(od.InvalidStateError):
            od.distance_to_family(rho, [gbit.pure_states[0], adjacent_mix])

    def test_quantum_family_distance_is_exact_at_reported_point(self, two_qubits, bell_state, qubit):
        fam = [qubit.state_from_matrix(dm(KET0)), qubit.state_from_matrix(dm(KET1))]
        value, decomp = od.distance_to_family(bell_state, fam)
        recon = two_qubits.state(decomp.reconstruction_coords())
        assert_allclose(value, od.operational_distance(bell_state, recon), atol=1e-9)
        assert value <= 0.5 + 1e-9

    def test_overlapping_supports_rejected(self, two_qubits, qubit):
        # the second member overlaps |0> by 5e-8: within a Gram test at
        # 1e-7, but not perfectly distinguishable at 1e-9
        rho = two_qubits.state_from_matrix(random_density_matrix(4, np.random.default_rng(1)))
        ket = np.array([5e-8, 1.0]) / np.hypot(5e-8, 1.0)
        fam = [qubit.state_from_matrix(dm(KET0)), qubit.state_from_matrix(dm(ket))]
        with pytest.raises(od.InvalidStateError, match="distinguishable"):
            od.distance_to_family(rho, fam)

    @pytest.mark.parametrize("da", [2, 3])
    def test_quantum_decompositions_are_null_discord_states(self, da):
        fa = od.make_quantum(da)
        ab = od.compose_theories(fa, od.make_quantum(2))
        rng = np.random.default_rng([31, da])
        for _ in range(5):
            rho = ab.state_from_matrix(random_density_matrix(2 * da, rng))
            family = basis_family(fa, random_haar_basis(da, rng))
            value, decomp = od.distance_to_family(rho, list(family))
            recon = od.make_null_discord_state(decomp)
            assert_allclose(value, od.operational_distance(rho, recon), atol=1e-9)

    @pytest.mark.parametrize("name", ["gbit", "pentagon"])
    def test_polytope_decompositions_are_null_discord_states(self, name, request, rng):
        theory = request.getfixturevalue(name)
        ab = od.compose_theories(theory, theory)
        for family in od.maximal_distinguishable_pure_families(theory):
            rho = random_state(ab, rng)
            value, decomp = od.distance_to_family(rho, list(family))
            recon = od.make_null_discord_state(decomp)
            assert_allclose(value, od.operational_distance(rho, recon), atol=1e-9)


class TestDiscord:
    def test_product_states_have_zero_discord(self, gbit, qubit, rng):
        # single-term decompositions need a pure first factor; mixed first
        # factors decompose through a distinguishable family, which always
        # exists on the classical and quantum backends (spectral form)
        rho = od.compose(gbit.pure_states[1], random_state(gbit, rng))
        assert od.discord(rho).value <= 1e-9
        rho = od.compose(random_state(qubit, rng), random_state(qubit, rng))
        assert od.discord(rho).value <= 1e-9
        c3 = od.make_classical(3)
        rho = od.compose(random_state(c3, rng), random_state(c3, rng))
        assert od.discord(rho).value <= 1e-9

    def test_gbit_interior_marginal_product_is_discordant(self, gbit, rng):
        # a generic interior point of the square lies in no
        # distinguishable family's hull (the four edges and the two
        # diagonals), so even product states carry discord here
        # (verified against the scipy LP oracle)
        interior = gbit.state([0.3, 0.1, 1.0])
        rho = od.compose(interior, random_state(gbit, rng))
        gg = rho.system
        value = od.discord(rho).value
        assert value > 1e-3
        fams = od.maximal_distinguishable_pure_families(gbit)
        ref = min(
            oracles.scipy_distance_to_family(
                rho.coords,
                gg.pure_state_coords,
                np.array([s.coords for s in fam]),
                gbit.pure_state_coords,
            )
            for fam in fams
        )
        assert_allclose(value, ref, atol=1e-9)

    def test_prism_discord_bit_identical_to_a_per_family_loop(self):
        # the triangular prism's maximal families come in two sizes, so one
        # discord call solves two lockstep stacks
        from opdiscord.lp import solve_lp
        from opdiscord.theory import POLYTOPE, TheoryModel, _frozen

        kernel = importlib.import_module("opdiscord.discord")
        angles = 2.0 * np.pi * np.arange(3) / 3.0
        pure = [[np.cos(t), np.sin(t), z, 1.0] for t in angles for z in (-1.0, 1.0)]
        prism = TheoryModel(
            name="prism",
            backend=POLYTOPE,
            dim=4,
            pure_state_coords=_frozen(pure),
            effect_vertex_coords=None,
            det_effect_coords=_frozen([0.0, 0.0, 0.0, 1.0]),
        )
        families = od.maximal_distinguishable_pure_families(prism)
        assert sorted(len(fam) for fam in families) == [2] * 3 + [3] * 8
        ab = od.compose_theories(prism, prism)
        rng = np.random.default_rng(5)
        for _ in range(3):
            rho = ab.state(rng.dirichlet(np.full(36, 0.3)) @ ab.pure_state_coords)
            best = None
            for fam in families:
                value, decomp = od.distance_to_family(rho, list(fam))
                lp = kernel._polytope_family_lp(rho, fam)
                effect = kernel._polytope_family_result(rho, fam, solve_lp(*lp))[2]
                if best is None or value < best[0] - 1e-12:
                    best = (value, decomp, effect)
            res = od.discord(rho)
            value, decomp, effect = best
            assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
            assert res.certificate_effect.coords.tobytes() == effect.coords.tobytes()
            assert res.optimizer.weights.tobytes() == decomp.weights.tobytes()
            for got, want in zip(res.optimizer.family + res.optimizer.conditionals, decomp.family + decomp.conditionals):
                assert got.coords.tobytes() == want.coords.tobytes()
            assert len(res.optimizer.family) == len(decomp.family)
            assert len(res.optimizer.conditionals) == len(decomp.conditionals)
            assert res.outer_evaluations == len(families)

    def test_classical_states_have_zero_discord(self, classical2, rng):
        cc = od.compose_theories(classical2, classical2)
        for _ in range(25):
            assert od.discord(random_state(cc, rng)).value <= 1e-9

    def test_gbit_witness_fixture(self, gbit):
        # exact LP discord of the uniform correlated mixture over three
        # linearly independent vertices; equals 1/6 (frozen, verified
        # against scipy's LP on every family)
        gg = od.compose_theories(gbit, gbit)
        v = gbit.pure_state_coords
        rho = gg.state(sum(np.kron(v[i], v[i]) for i in range(3)) / 3.0)
        res = od.discord(rho)
        assert res.converged
        assert_allclose(res.value, 1.0 / 6.0, atol=1e-9)
        fams = od.maximal_distinguishable_pure_families(gbit)
        ref = min(
            oracles.scipy_distance_to_family(
                rho.coords,
                gg.pure_state_coords,
                np.array([s.coords for s in fam]),
                gbit.pure_state_coords,
            )
            for fam in fams
        )
        assert_allclose(res.value, ref, atol=1e-9)

    def test_discord_result_invariants(self, gbit, rng):
        gg = od.compose_theories(gbit, gbit)
        rho = random_state(gg, rng)
        res = od.discord(rho)
        assert res.value >= 0.0
        recon = gg.state(res.optimizer.reconstruction_coords())
        assert_allclose(res.value, od.operational_distance(rho, recon), atol=1e-9)
        od.validate_effect(res.certificate_effect, 1e-8)

    def test_bell_discord_is_half(self, bell_state):
        # every pinching of the Bell state sits at distance exactly 1/2,
        # and no block-diagonal state does better
        res = od.discord(bell_state)
        assert_allclose(res.value, 0.5, atol=1e-6)

    def test_bell_against_zoom_oracle(self, bell_state):
        oracle = oracles.zoom_discord_oracle(dm(BELL), levels=5)
        assert abs(od.discord(bell_state).value - oracle) <= 2e-2

    def test_separable_witness_positive_and_oracle_confirmed(self, witness_state):
        res = od.discord(witness_state)
        assert res.value > 0.1
        oracle = oracles.zoom_discord_oracle(witness_state.matrix(), levels=5)
        assert abs(res.value - oracle) <= 2e-2

    def test_asymmetry(self, two_qubits):
        # classical-quantum on the first side, discordant when swapped
        mat = 0.5 * np.kron(dm(KET0), dm(KET0)) + 0.5 * np.kron(dm(KET1), dm(KETP))
        rho = two_qubits.state_from_matrix(mat)
        a_side = od.discord(rho).value
        b_side = od.discord(swap_sides(rho)).value
        assert a_side <= 1e-9
        assert b_side > 1e-3
        assert abs(a_side - b_side) > 1e-3

    def test_b_relabel_invariance(self, gbit):
        from opdiscord.theory import TheoryModel, _frozen

        perm = [2, 0, 3, 1]
        relabeled = TheoryModel(
            name=gbit.name,
            backend=gbit.backend,
            dim=gbit.dim,
            pure_state_coords=_frozen(gbit.pure_state_coords[perm]),
            effect_vertex_coords=gbit.effect_vertex_coords,
            det_effect_coords=gbit.det_effect_coords,
        )
        left = od.compose_theories(gbit, gbit)
        right = od.compose_theories(gbit, relabeled)
        rng = np.random.default_rng(11)
        for _ in range(5):
            coords = random_state(left, rng).coords
            d1 = od.discord(left.state(coords)).value
            d2 = od.discord(right.state(coords)).value
            assert abs(d1 - d2) <= 1e-9

    def test_nonnegativity_random_states(self, gbit, two_qubits, rng):
        gg = od.compose_theories(gbit, gbit)
        for _ in range(200):
            assert od.discord(random_state(gg, rng)).value >= -1e-12
        quick = od.SearchConfig(grid_points=100, refine_iters=30, restarts=2)
        for _ in range(30):
            rho = two_qubits.state_from_matrix(random_density_matrix(4, rng))
            assert od.discord(rho, quick).value >= -1e-12

    def test_polytope_value_matches_brute_force_grid(self, classical2, gbit):
        # dense discretization of the decomposable set at step 1/64 for
        # the bit pair (where it is the whole simplex); the LP optimum
        # must sit below every grid point and within the lattice
        # covering bound of the best one
        cc = od.compose_theories(classical2, classical2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_state(cc, rng)
            lp_value = od.discord(rho).value
            grid_value = oracles.classical_pair_discord_grid(rho.coords, 2, 64)
            assert lp_value <= grid_value + 1e-9
            assert grid_value - lp_value <= 4 * (1.0 / 64.0) / 2.0
        # gbit pair at a coarser step (the 1/64 lattice over eight
        # coefficients is out of desk-scale reach); same two-sided bound
        gg = od.compose_theories(gbit, gbit)
        v = gbit.pure_state_coords
        rho = gg.state(sum(np.kron(v[i], v[i]) for i in range(3)) / 3.0)
        lp_value = od.discord(rho).value
        fams = od.maximal_distinguishable_pure_families(gbit)
        grid_value = oracles.polytope_discord_grid(
            rho.coords,
            gg.pure_state_coords,
            [np.array([s.coords for s in fam]) for fam in fams],
            gbit.pure_state_coords,
            denominator=6,
        )
        assert lp_value <= grid_value + 1e-9
        assert grid_value - lp_value <= 8 * (1.0 / 6.0) / 2.0


class TestBellDiagonalClosedForms:
    """Operational discord ``1/2 median |c_i|`` and Luo's entropic discord
    of Bell-diagonal states, derived in ``tests/oracles.py``.  The search
    value is the exact distance to a null-discord state, so it may not
    fall below the closed form."""

    @staticmethod
    def _check(two_qubits, weights):
        mat, c = oracles.bell_diagonal(weights)
        rho = two_qubits.state_from_matrix(mat)
        expect = oracles.bell_diagonal_discord(c)
        value = od.discord(rho).value
        assert expect - 1e-12 <= value <= expect + 1e-8
        entropic = od.quantum_discord_entropy(rho).discord_value
        assert abs(entropic - oracles.bell_diagonal_entropic_discord(mat, c)) <= 1e-8

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 50), min_size=4, max_size=4).filter(any))
    def test_random_bell_diagonal(self, two_qubits, counts):
        self._check(two_qubits, np.array(counts) / sum(counts))

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.95, 1.0])
    def test_werner_states(self, two_qubits, p):
        self._check(two_qubits, [(1 - p) / 4] * 3 + [(1 + 3 * p) / 4])

    @pytest.mark.parametrize("bell", range(4))
    def test_bell_states(self, two_qubits, bell):
        self._check(two_qubits, np.eye(4)[bell])


class TestXStateClosedForm:
    """Operational discord of two-qubit X states (Bloch vectors along z,
    complex coherences) against the closed form of Ciccarello, Tufarelli
    & Giovannetti, ``oracles.x_state_discord``.  Unlike a Bell-diagonal
    state, such a state's marginal is not maximally mixed, so the qubit
    refinement is gated on a landscape that is not flat."""

    @staticmethod
    def _check(two_qubits, mat):
        expect = oracles.x_state_discord(mat)
        value = od.discord(two_qubits.state_from_matrix(mat)).value
        assert expect - 1e-12 <= value <= expect + 1e-9

    @pytest.mark.parametrize("seed", range(16))
    def test_random_x_states(self, two_qubits, seed):
        rng = np.random.default_rng([0xC7, seed])
        p = rng.dirichlet(np.ones(4))
        mat = np.diag(p).astype(complex)
        # each coherence up to 0.999 of the largest that keeps rho PSD
        for i, j in ((0, 3), (1, 2)):
            c = rng.uniform(0.0, 0.999) * np.sqrt(p[i] * p[j]) * np.exp(2j * np.pi * rng.uniform())
            mat[i, j], mat[j, i] = c, np.conj(c)
        self._check(two_qubits, mat)

    @pytest.mark.parametrize("seed", range(4))
    def test_bell_diagonal_limit(self, two_qubits, seed):
        mat, c = oracles.bell_diagonal(np.random.default_rng([0xC7, 100 + seed]).dirichlet(np.ones(4)))
        assert oracles.x_state_discord(mat) == pytest.approx(oracles.bell_diagonal_discord(c), abs=1e-15)
        self._check(two_qubits, mat)


class TestIsNullDiscord:
    def test_constructions_are_null(self, classical2, gbit, qubit, rng):
        cases = []
        cc_fam = classical2.pure_states
        cases.append(
            od.NullDiscordDecomposition(
                tuple(cc_fam), np.array([0.4, 0.6]), (cc_fam[1], cc_fam[0])
            )
        )
        gb_fams = od.maximal_distinguishable_pure_families(gbit)
        cases.append(
            od.NullDiscordDecomposition(
                gb_fams[2],
                np.array([0.25, 0.75]),
                (random_state(gbit, rng), random_state(gbit, rng)),
            )
        )
        basis = random_haar_basis(2, rng)
        cases.append(
            od.NullDiscordDecomposition(
                tuple(qubit.state_from_matrix(dm(k)) for k in basis),
                np.array([0.35, 0.65]),
                tuple(
                    qubit.state_from_matrix(random_density_matrix(2, rng)) for _ in range(2)
                ),
            )
        )
        for decomp in cases:
            state = od.make_null_discord_state(decomp)
            verdict, found = od.is_null_discord(state, 1e-6)
            assert verdict
            assert found is not None
            assert_allclose(found.reconstruction_coords(), state.coords, atol=1e-7)

    def test_bell_not_null(self, bell_state):
        verdict, decomp = od.is_null_discord(bell_state, 1e-6)
        assert not verdict and decomp is None

    def test_gbit_witness_not_null(self, gbit):
        gg = od.compose_theories(gbit, gbit)
        v = gbit.pure_state_coords
        rho = gg.state(sum(np.kron(v[i], v[i]) for i in range(3)) / 3.0)
        assert not od.is_null_discord(rho, 1e-6)[0]

    def test_gbit_adjacent_correlation_is_null(self, gbit):
        # the adjacent vertices form a distinguishable family themselves
        # (LP oracle), so their uniform correlation is decomposable
        gg = od.compose_theories(gbit, gbit)
        v = gbit.pure_state_coords
        rho = gg.state((np.kron(v[1], v[1]) + np.kron(v[2], v[2])) / 2.0)
        verdict, decomp = od.is_null_discord(rho, 1e-9)
        assert verdict
        assert_allclose(decomp.reconstruction_coords(), rho.coords, atol=1e-9)

    def test_quantum_verdict_agrees_with_fixed_point_search(self, two_qubits, rng):
        # curated suite: null verdicts and fixed-point existence must
        # coincide on classical-quantum and on generic states
        quick = od.SearchConfig(grid_points=100, refine_iters=30, restarts=2)
        for _ in range(50):
            rho = random_cq_state(two_qubits, rng)
            verdict, _ = od.is_null_discord(rho, 1e-6, quick)
            assert verdict
            assert od.find_fixed_point_basis(rho, quick) is not None
        for _ in range(50):
            rho = two_qubits.state_from_matrix(random_density_matrix(4, rng))
            verdict, _ = od.is_null_discord(rho, 1e-6, quick)
            found = od.find_fixed_point_basis(rho, quick) is not None
            assert verdict == found
            assert not verdict  # Ginibre samples are discordant almost surely

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tol_rejected(self, two_qubits, tol):
        # a cq state: nan and -1 used to read False, inf True
        cq = two_qubits.state_from_matrix(0.3 * np.kron(dm(KET0), dm(KETP)) + 0.7 * np.kron(dm(KET1), dm(KET0)))
        with pytest.raises(ValueError, match="tol_zero"):
            od.is_null_discord(cq, tol)


class TestFixedPoint:
    def test_cq_state_fixed_in_computational_basis(self, two_qubits):
        mat = 0.3 * np.kron(dm(KET0), dm(KETP)) + 0.7 * np.kron(dm(KET1), dm(KET0))
        rho = two_qubits.state_from_matrix(mat)
        assert od.check_vonneumann_fixed_point(rho, np.stack([KET0, KET1]))

    def test_bell_fails_on_every_grid_basis(self, bell_state):
        for theta in np.linspace(0.0, np.pi, 20):
            for phi in np.linspace(-np.pi, np.pi, 20, endpoint=False):
                k0 = np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])
                k1 = np.array([np.sin(theta / 2), -np.cos(theta / 2) * np.exp(1j * phi)])
                assert not od.check_vonneumann_fixed_point(bell_state, np.stack([k0, k1]))

    def test_product_state_fixed_in_marginal_eigenbasis(self, two_qubits, rng):
        rho_a = random_density_matrix(2, rng)
        rho = two_qubits.state_from_matrix(np.kron(rho_a, random_density_matrix(2, rng)))
        _, u = np.linalg.eigh(rho_a)
        assert od.check_vonneumann_fixed_point(rho, u.T)

    def test_non_orthonormal_basis_rejected(self, bell_state):
        with pytest.raises(od.InvalidStateError):
            od.check_vonneumann_fixed_point(bell_state, np.stack([KET0, KETP]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["all", "one"])
    def test_non_finite_basis_rejected(self, bell_state, bad, where):
        # the orthonormality test alone reads False on NaN
        basis = np.full((2, 2), bad, dtype=complex) if where == "all" else np.stack([KET0, KET1])
        if where == "one":
            basis[1, 1] = bad
        for check in (od.check_vonneumann_fixed_point, od.conditional_J):
            with pytest.raises(od.InvalidStateError, match="finite"):
                check(bell_state, basis)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, True])
    def test_bad_tol_rejected(self, bell_state, tol):
        # inf and True used to say that pinching fixes a Bell state, nan and -1 read False
        with pytest.raises(ValueError, match="tol must be a finite number"):
            od.check_vonneumann_fixed_point(bell_state, np.stack([KET0, KET1]), tol)

    def test_find_basis_distinct_weights(self, two_qubits):
        mat = 0.3 * np.kron(dm(KET0), dm(KETP)) + 0.7 * np.kron(dm(KET1), dm(KET0))
        basis = od.find_fixed_point_basis(two_qubits.state_from_matrix(mat))
        assert basis is not None
        assert_allclose(np.abs(basis @ np.stack([KET0, KET1]).conj().T), np.eye(2), atol=1e-9)

    def test_find_basis_bell_absent(self, bell_state):
        assert od.find_fixed_point_basis(bell_state) is None

    def test_find_basis_degenerate_marginal(self, two_qubits, rng):
        rho = two_qubits.state_from_matrix(
            np.kron(np.eye(2, dtype=complex) / 2.0, random_density_matrix(2, rng))
        )
        assert od.find_fixed_point_basis(rho) is not None

    def test_find_basis_equal_weight_cq(self, two_qubits):
        # degenerate marginal but distinct conditionals: recovered by the
        # conditional-compression eigenbases
        mat = 0.5 * np.kron(dm(KETP), dm(KET0)) + 0.5 * np.kron(
            dm((KET0 - KET1) / np.sqrt(2)), dm(KET1)
        )
        rho = two_qubits.state_from_matrix(mat)
        basis = od.find_fixed_point_basis(rho)
        assert basis is not None
        assert od.check_vonneumann_fixed_point(rho, basis)

    def test_random_cq_states_found(self, two_qubits, rng):
        for _ in range(20):
            rho = random_cq_state(two_qubits, rng)
            assert od.find_fixed_point_basis(rho) is not None

    def test_random_entangled_pure_fail(self, two_qubits, rng):
        for _ in range(5):
            rho = random_entangled_pure(two_qubits, rng)
            assert od.find_fixed_point_basis(rho) is None


def _cq_panel_state(seed, da, db, basis, weights, conditionals):
    """``sum_k p_k |k><k| (x) tau_k`` on ``da (x) db``, in a Haar or the
    computational basis.  Weights: distinct, equal, or distinct with one
    outcome at zero.  Conditionals: mixed, pure, mixed with
    ``tau_1 = tau_0``, or all equal (with equal weights, ``I/da (x) tau``)."""
    rng = np.random.default_rng(seed)
    kets = random_haar_basis(da, rng) if basis == "haar" else np.eye(da, dtype=complex)
    p = np.full(da, 1.0 / da) if weights == "equal" else rng.dirichlet(np.ones(da))
    if weights == "zero":
        p[rng.integers(da)] = 0.0
        p /= p.sum()
    if conditionals == "pure":
        taus = [dm(random_pure_ket(db, rng)) for _ in range(da)]
    else:
        taus = [random_density_matrix(db, rng) for _ in range(da)]
    if conditionals == "shared pair":
        taus[1] = taus[0]
    elif conditionals == "all equal":
        taus = [taus[0]] * da
    mat = sum(w * np.kron(dm(k), t) for w, k, t in zip(p, kets, taus))
    return od.compose_theories(od.make_quantum(da), od.make_quantum(db)).state_from_matrix(mat)


class TestCqPanel:
    @settings(max_examples=100)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([2, 3]),
        st.sampled_from(["haar", "computational"]),
        st.sampled_from(["distinct", "equal", "zero"]),
        st.sampled_from(["mixed", "pure", "shared pair", "all equal"]),
    )
    def test_four_candidates_recognize_every_cq_state(self, seed, da, db, basis, weights, conditionals):
        rho = _cq_panel_state(seed, da, db, basis, weights, conditionals)
        for cfg in (od.SearchConfig(), od.SearchConfig(seed=7)):
            found = od.find_fixed_point_basis(rho, cfg)
            assert found is not None
            assert od.check_vonneumann_fixed_point(rho, found)


class TestEntropicDiscord:
    def test_product_state(self, two_qubits, rng):
        rho = two_qubits.state_from_matrix(
            np.kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
        )
        assert abs(od.mutual_information(rho)) <= 1e-9
        rep = od.quantum_discord_entropy(rho)
        assert rep.discord_value <= 1e-6

    def test_perfectly_correlated_classical_classical(self, two_qubits):
        mat = 0.5 * np.kron(dm(KET0), dm(KET0)) + 0.5 * np.kron(dm(KET1), dm(KET1))
        rho = two_qubits.state_from_matrix(mat)
        assert_allclose(od.mutual_information(rho), 1.0, atol=1e-9)
        assert_allclose(od.conditional_J(rho, np.stack([KET0, KET1])), 1.0, atol=1e-9)
        rep = od.quantum_discord_entropy(rho)
        assert rep.discord_value <= 1e-6

    def test_bell_state_values(self, bell_state):
        assert_allclose(od.mutual_information(bell_state), 2.0, atol=1e-9)
        assert_allclose(od.conditional_J(bell_state, np.stack([KET0, KET1])), 1.0, atol=1e-9)
        rep = od.quantum_discord_entropy(bell_state)
        assert_allclose(rep.mutual_information, 2.0, atol=1e-6)
        assert_allclose(rep.J_value, 1.0, atol=5e-3)
        assert_allclose(rep.discord_value, 1.0, atol=5e-3)

    def test_werner_state_fixture_and_oracle(self, two_qubits):
        # frozen from the dense-grid oracle: D = 0.2624831837637336
        mat = 0.5 * dm(BELL) + 0.5 * np.eye(4, dtype=complex) / 4.0
        rho = two_qubits.state_from_matrix(mat)
        rep = od.quantum_discord_entropy(rho)
        assert_allclose(rep.discord_value, 0.2624831837637336, atol=1e-6)
        oracle = oracles.entropic_discord_grid_oracle(mat, n_theta=40, n_phi=80)
        assert abs(rep.discord_value - oracle) <= 1e-3

    def test_mutual_information_nonnegative(self, two_qubits, rng):
        for _ in range(30):
            rho = two_qubits.state_from_matrix(random_density_matrix(4, rng))
            assert od.mutual_information(rho) >= -1e-9

    def test_entropic_discord_nonnegative(self, two_qubits, rng):
        for _ in range(8):
            rho = two_qubits.state_from_matrix(random_density_matrix(4, rng))
            rep = od.quantum_discord_entropy(rho)
            assert rep.discord_value >= 0.0
            assert rep.mutual_information - rep.J_value >= -1e-6

    def test_polytope_backend_rejected(self, gbit, rng):
        gg = od.compose_theories(gbit, gbit)
        with pytest.raises(od.UnsupportedBackendError):
            od.mutual_information(random_state(gg, rng))


class TestNonStatesRejected:
    """A normalized but non-positive "state" has no discord to report."""

    @pytest.fixture()
    def non_psd(self, two_qubits):
        rho = two_qubits.state_from_matrix(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
        assert rho.normalized
        return rho

    def test_discord(self, non_psd):
        with pytest.raises(od.InvalidStateError, match="outside the state cone"):
            od.discord(non_psd)

    def test_is_null_discord(self, non_psd):
        with pytest.raises(od.InvalidStateError):
            od.is_null_discord(non_psd)

    def test_distance_to_family(self, non_psd, qubit):
        family = [qubit.state_from_matrix(dm(KET0)), qubit.state_from_matrix(dm(KET1))]
        with pytest.raises(od.InvalidStateError):
            od.distance_to_family(non_psd, family)

    def test_entropic_discord(self, non_psd):
        with pytest.raises(od.InvalidStateError):
            od.quantum_discord_entropy(non_psd)

    def test_find_fixed_point_basis(self, non_psd):
        with pytest.raises(od.InvalidStateError, match="outside the state cone"):
            od.find_fixed_point_basis(non_psd)

    def test_check_vonneumann_fixed_point(self, non_psd):
        # the state is diagonal, so the computational basis would fix it
        with pytest.raises(od.InvalidStateError, match="outside the state cone"):
            od.check_vonneumann_fixed_point(non_psd, np.eye(2))


class TestSubnormalizedRejected:
    """``I/8`` on two qubits is positive but has trace 1/2: not a state."""

    @pytest.fixture()
    def half(self, two_qubits):
        rho = two_qubits.state_from_matrix(np.eye(4, dtype=complex) / 8.0)
        assert not rho.normalized
        return rho

    @pytest.mark.parametrize(
        "call",
        [
            od.discord,
            od.is_null_discord,
            od.mutual_information,
            od.quantum_discord_entropy,
            od.find_fixed_point_basis,
            lambda rho: od.conditional_J(rho, np.eye(2)),
            lambda rho: od.check_vonneumann_fixed_point(rho, np.eye(2)),
            lambda rho: od.distance_to_family(rho, list(basis_family(rho.system.factors[0], np.eye(2)))),
        ],
        ids=[
            "discord", "is_null_discord", "mutual_information", "quantum_discord_entropy",
            "find_fixed_point_basis", "conditional_J", "check_vonneumann_fixed_point", "distance_to_family",
        ],
    )
    def test_rejected(self, half, call):
        with pytest.raises(od.InvalidStateError, match="normalized states"):
            call(half)


# the stacked quantum kernel against its one-basis-at-a-time oracles

kernel = importlib.import_module("opdiscord.discord")
discrimination = importlib.import_module("opdiscord.discrimination")


def _kernel_case(seed, da, db, count, kind, transposed):
    """A state and ``count`` bases; the first basis is the computational
    one, so cq states give empty blocks and entropies with dropped
    eigenvalues there."""
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        rho = random_density_matrix(da * db, rng)
    elif kind == "maximally entangled":  # blocks tie in the first basis
        m = min(da, db)
        ket = sum(np.kron(np.eye(da)[i], np.eye(db)[i]) for i in range(m)) / np.sqrt(m)
        rho = np.outer(ket, ket).astype(complex)
    elif kind == "pure":
        ket = random_pure_ket(da * db, rng)
        rho = np.outer(ket, ket.conj())
    else:
        weights = rng.dirichlet(np.ones(da))
        weights[rng.integers(da)] = 0.0
        weights /= weights.sum()
        rho = sum(
            w * np.kron(np.diag(np.eye(da)[k]).astype(complex), dm(random_pure_ket(db, rng)))
            for k, w in enumerate(weights)
        )
    bases = np.stack([np.eye(da, dtype=complex)] + [random_haar_basis(da, rng) for _ in range(count - 1)])
    if transposed:  # same values, the strides of a basis built as ``(U @ u0).T``
        bases = np.ascontiguousarray(bases.transpose(0, 2, 1)).transpose(0, 2, 1)
    return rho, bases


kernel_cases = st.builds(
    _kernel_case,
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([2, 3]),
    st.sampled_from([1, 7, 300]),
    st.sampled_from(["ginibre", "pure", "cq", "maximally entangled"]),
    st.booleans(),
)


class TestStackedKernel:
    @settings(max_examples=30)
    @given(kernel_cases)
    def test_cq_matrix_and_blocks_match_kron_loop(self, case):
        rho, bases = case
        da = bases.shape[1]
        db = rho.shape[0] // da
        taus = kernel._blocks(rho, bases, da, db)
        assert np.array_equal(taus, np.stack([oracles.basis_blocks(rho, b, da, db) for b in bases]))
        assert np.array_equal(
            kernel._cq_matrix(bases, taus),
            np.stack([oracles.kron_cq_matrix(b, t) for b, t in zip(bases, taus)]),
        )

    @settings(max_examples=30)
    @given(kernel_cases)
    def test_pinch_distances_and_residuals_match_per_basis(self, case):
        # the frame-block distances equal the cq-matrix form to rounding;
        # the residuals keep that form and equal it bit for bit
        rho, bases = case
        da = bases.shape[1]
        db = rho.shape[0] // da
        r = kernel._block_rows(rho, da, db)
        want = [oracles.pinch_distance(rho, b, da, db) for b in bases]
        assert np.max(np.abs(kernel._block_pinch_distances(r, bases) - want)) <= 1e-13
        herm_basis = od.compose_theories(od.make_quantum(da), od.make_quantum(db)).herm_basis
        assert np.array_equal(
            kernel._pinch_residuals(rho, bases, da, db, herm_basis),
            [oracles.pinch_residual(rho, b, da, db, herm_basis) for b in bases],
        )

    @settings(max_examples=30)
    @given(kernel_cases)
    def test_measured_J_matches_outcome_loop(self, case):
        rho, bases = case
        da = bases.shape[1]
        db = rho.shape[0] // da
        s_b = oracles.entropy_bits_oracle(oracles.partial_trace(rho, da, db, "B"))
        got = kernel._block_measured_J(kernel._block_rows(rho, da, db), bases, s_b)
        want = [oracles.measured_J(rho, b, da, db, s_b) for b in bases]
        assert np.max(np.abs(got - want)) <= 1e-13


class TestMeasurementGrid:
    def _cq_qutrit_qubit(self, seed):
        return random_cq_state(od.compose_theories(od.make_quantum(3), od.make_quantum(2)),
                               np.random.default_rng(seed))

    @pytest.fixture()
    def unbuilt_grid(self, monkeypatch):
        def unbuilt(*args, **kwargs):
            raise AssertionError("the measurement grid was built")

        monkeypatch.setattr(kernel, "_grid_bases", unbuilt)

    def test_fixed_point_found_without_building_the_grid(self, unbuilt_grid):
        for seed in range(5):
            rho = self._cq_qutrit_qubit(seed)
            basis = od.find_fixed_point_basis(rho)
            assert basis is not None
            assert od.check_vonneumann_fixed_point(rho, basis)

    @pytest.mark.parametrize("kind", ["bell", "werner", "ginibre 2x2", "ginibre 3x2"])
    def test_discordant_state_rejected_without_building_the_grid(self, unbuilt_grid, kind):
        # the search ends after its four direct candidates
        rng = np.random.default_rng(5)
        da = 3 if kind == "ginibre 3x2" else 2
        if kind.startswith("ginibre"):
            mat = random_density_matrix(2 * da, rng)
        else:
            p = 1.0 if kind == "bell" else 0.5
            mat = p * dm(BELL) + (1.0 - p) * np.eye(4) / 4.0
        rho = od.compose_theories(od.make_quantum(da), od.make_quantum(2)).state_from_matrix(mat)
        assert od.find_fixed_point_basis(rho) is None

    def test_grid_is_cached_and_read_only(self):
        cfg = od.SearchConfig(grid_points=50)
        grid = kernel._grid_bases(3, cfg)
        assert grid.shape == (50, 3, 3) and not grid.flags.writeable
        assert kernel._grid_bases(3, od.SearchConfig(grid_points=50)) is grid
        assert kernel._grid_bases(3, cfg.with_seed(7)) is not grid
        qubit_grid = kernel._grid_bases(2, cfg)
        assert kernel._grid_bases(2, cfg.with_seed(7)) is qubit_grid

    @pytest.mark.parametrize("seed", [0x5EED, 7])
    def test_qutrit_grid_is_the_seeded_haar_loop(self, seed):
        grid = discrimination._grid_stack(3, 200, seed)
        assert np.array_equal(grid, np.array(oracles.haar_basis_loop(3, 200, seed)))

    def test_grid_basis_returned_by_search_is_a_fresh_copy(self, bell_state):
        cfg = od.SearchConfig(grid_points=40, restarts=0)
        grid = kernel._grid_bases(2, cfg)
        rep = od.quantum_discord_entropy(bell_state, cfg)
        basis = rep.optimal_measurement
        assert any(np.array_equal(basis, g) for g in grid)
        assert basis.flags.writeable and not np.shares_memory(basis, grid)


# the fixed-point search against its candidate-by-candidate oracle (kept
# in ``tests/oracles.py``), and with its four candidates made to fail


def _fixed_point_case(seed, da, kind, grid):
    """A state on ``da (x) 2``: cq in a grid basis (distinct or equal
    weights), the same mixed with a little noise, a product with the
    maximally mixed marginal, or a Ginibre state."""
    rng = np.random.default_rng([seed, da])
    kets = grid[rng.integers(len(grid))]
    weights = np.full(da, 1.0 / da) if kind == "degenerate cq" else rng.dirichlet(np.ones(da))
    cq = sum(w * np.kron(dm(k), random_density_matrix(2, rng)) for w, k in zip(weights, kets))
    if kind == "near cq":  # within a few times the check's tolerance: either verdict
        eps = (1e-9, 4e-9, 1e-8)[seed % 3]
        return (1.0 - eps) * cq + eps * random_density_matrix(2 * da, rng)
    if kind == "maximally mixed marginal":
        return np.kron(np.eye(da) / da, random_density_matrix(2, rng))
    if kind == "discordant":
        return random_density_matrix(2 * da, rng)
    return cq


class TestFixedPointFilter:
    @pytest.mark.parametrize("da", [2, 3])
    @pytest.mark.parametrize(
        "kind", ["cq", "degenerate cq", "near cq", "maximally mixed marginal", "discordant"]
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("direct", [True, False])
    def test_matches_the_unfiltered_search(self, da, kind, seed, direct, monkeypatch):
        cfg = od.SearchConfig(grid_points=40, seed=seed)
        mat = _fixed_point_case(seed, da, kind, kernel._grid_bases(da, cfg))
        rho = od.compose_theories(od.make_quantum(da), od.make_quantum(2)).state_from_matrix(mat)
        if not direct:  # every candidate fails: the four are checked in order, and nothing follows
            check = mock.Mock(return_value=False)
            monkeypatch.setattr(kernel, "check_vonneumann_fixed_point", check)
            assert od.find_fixed_point_basis(rho, cfg) is None
            checked = [call.args[1] for call in check.call_args_list]
            want = oracles.fixed_point_candidates_loop(rho.matrix(), da, 2, cfg.seed)
            assert len(checked) == len(want) == 4
            assert all(np.array_equal(got, basis) for got, basis in zip(checked, want))
            return
        got = od.find_fixed_point_basis(rho, cfg)
        want = oracles.fixed_point_basis_loop(rho.matrix(), da, 2, rho.system.herm_basis, cfg.seed)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
        if kind == "discordant":
            assert got is None
        elif kind in ("cq", "degenerate cq", "maximally mixed marginal"):
            assert got is not None


# the refinement's one-basis scores against the stacked kernel, and the
# search against the refinement it replaced (kept in ``tests/oracles.py``)

fixedbasis = importlib.import_module("opdiscord.fixedbasis")


def _qubit_first_state(seed, db, kind):
    rng = np.random.default_rng(seed)
    n = 2 * db
    if kind == "ginibre":
        return random_density_matrix(n, rng)
    if kind == "pure":
        ket = random_pure_ket(n, rng)
        return np.outer(ket, ket.conj())
    if kind == "rank two":
        kets = [random_pure_ket(n, rng) for _ in range(2)]
        w = rng.uniform(0.1, 0.9)
        return w * dm(kets[0]) + (1 - w) * dm(kets[1])
    if kind == "cq":
        basis = random_haar_basis(2, rng)
        w = rng.dirichlet(np.ones(2))
        return sum(w[k] * np.kron(dm(basis[k]), dm(random_pure_ket(db, rng))) for k in range(2))
    # Bell-diagonal; on 2 (x) 3 the Bell kets sit in the first two levels
    mat, _ = oracles.bell_diagonal(rng.dirichlet(np.ones(4)))
    if db == 2:
        return mat
    embed = np.kron(np.eye(2), np.eye(3)[:, :2])
    return embed @ mat @ embed.T


angles = st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, np.pi))


class TestRefinementScores:
    @settings(max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.sampled_from(["ginibre", "pure", "rank two", "cq", "bell-diagonal"]),
        angles,
        st.floats(-np.pi, np.pi),
    )
    def test_closed_forms_match_the_stacked_kernel(self, seed, db, kind, theta, phi):
        rho = _qubit_first_state(seed, db, kind)
        basis = kernel._basis_from_angles(theta, phi)
        assert_allclose(basis @ basis.conj().T, np.eye(2), atol=1e-15)
        r = kernel._block_rows(rho, 2, db)
        pinch = kernel._block_pinch_distances(r, basis[None])[0]
        assert abs(kernel._qubit_pinch_distance(r)(theta, phi) - pinch) <= 1e-13
        assert abs(pinch - oracles.pinch_distance(rho, basis, 2, db)) <= 1e-13
        s_b = oracles.entropy_bits_oracle(oracles.partial_trace(rho, 2, db, "B"))
        measured = kernel._block_measured_J(r, basis[None], s_b)[0]
        assert abs(kernel._qubit_measured_J(r, s_b)(theta, phi) - measured) <= 1e-13
        assert abs(measured - oracles.measured_J(rho, basis, 2, db, s_b)) <= 1e-13

    @settings(max_examples=30)
    @given(kernel_cases)
    def test_general_bases_match_the_stacked_kernel(self, case):
        rho, bases = case
        da = bases.shape[1]
        db = rho.shape[0] // da
        r = kernel._block_rows(rho, da, db)
        s_b = oracles.entropy_bits_oracle(oracles.partial_trace(rho, da, db, "B"))
        pinch = kernel._block_pinch_distances(r, bases)
        measured = kernel._block_measured_J(r, bases, s_b)
        for basis, want_pinch, want_j in zip(bases[:7], pinch, measured):
            if da == 2:  # the scalar form, at the angles of the first ket; ket phases do not matter
                theta = 2.0 * np.arccos(min(abs(basis[0, 0]), 1.0))
                phi = float(np.angle(basis[0, 1]) - np.angle(basis[0, 0]))
                assert abs(kernel._qubit_pinch_distance(r)(theta, phi) - want_pinch) <= 1e-13
                assert abs(kernel._qubit_measured_J(r, s_b)(theta, phi) - want_j) <= 1e-13
            else:  # one qutrit basis: its pinching as a stack of one, its J the list form
                assert abs(kernel._block_pinch_distances(r, basis[None])[0] - want_pinch) <= 1e-13
                taus = kernel._block_between(r, basis, basis).tolist()
                assert abs(kernel._point_measured_J(taus, s_b) - want_j) <= 1e-13

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.floats(0.0, 6.0), st.integers(1, 5))
    def test_eigh_exponential_matches_expm(self, seed, d, scale, stack):
        from scipy.linalg import expm

        rng = np.random.default_rng(seed)
        hs = np.einsum("gk,kij->gij", scale * rng.normal(size=(stack, d * d)), hermitian_basis(d))
        us = kernel._expi(hs)
        for h, u in zip(hs, us):
            # a stacked call makes each matrix's arithmetic of a call on it alone
            assert np.array_equal(u, kernel._expi(h))
            assert np.max(np.abs(u - expm(1j * h))) <= 1e-13
            assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-13


class TestSearchAgainstOldRefinement:
    @pytest.mark.parametrize("da", [2, 3])
    @pytest.mark.parametrize("kind", ["ginibre", "rank two"])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_values_match(self, da, kind, seed):
        rng = np.random.default_rng([seed, da])
        if kind == "ginibre":
            mat = random_density_matrix(2 * da, rng)
        else:
            kets = [random_pure_ket(2 * da, rng) for _ in range(2)]
            mat = 0.6 * dm(kets[0]) + 0.4 * dm(kets[1])
        rho = od.compose_theories(od.make_quantum(da), od.make_quantum(2)).state_from_matrix(mat)
        cfg = od.SearchConfig(grid_points=60)
        grid = kernel._grid_bases(da, cfg)
        hb = hermitian_basis(da)

        def search(objective):
            return oracles.quantum_basis_search_loop(objective, grid, hb, cfg.restarts, cfg.refine_iters)

        basis, _ = search(lambda b: oracles.pinch_distance(mat, b, da, 2))
        old_value = max(float(fixedbasis.solve_fixed_basis(mat, basis[None], 2).value[0]), 0.0)
        assert abs(od.discord(rho, cfg).value - old_value) <= 1e-12

        rep = od.quantum_discord_entropy(rho, cfg)
        info = rep.mutual_information
        _, old_best = search(lambda b: info - oracles.measured_J(mat, b, da, 2, rep.S_B))
        assert abs(rep.discord_value - max(old_best, 0.0)) <= 1e-12


class TestLockstepAgainstSequentialSearch:
    """The qutrit refinement runs its restarts in lockstep and scores each
    round as one stack; every stacked step makes the same per-basis
    arithmetic as one basis alone, so the search returns the sequential
    oracle's basis, value and evaluation count bit for bit."""

    CONFIGS = {
        "default": {"grid_points": 60},
        "no restarts": {"grid_points": 60, "restarts": 0},
        "more restarts than grid points": {"grid_points": 2, "restarts": 4},
        "one iteration": {"grid_points": 60, "refine_iters": 1},
    }

    @pytest.mark.parametrize(
        "db, kind, seed, config",
        [(db, kind, seed, "default") for db in (2, 3) for kind in ("ginibre", "rank two") for seed in (11, 12)]
        + [(2, "ginibre", 13, name) for name in ("no restarts", "more restarts than grid points", "one iteration")],
    )
    def test_bit_identical(self, db, kind, seed, config):
        rng = np.random.default_rng([seed, db])
        if kind == "ginibre":
            mat = random_density_matrix(3 * db, rng)
        else:
            kets = [random_pure_ket(3 * db, rng) for _ in range(2)]
            mat = 0.6 * dm(kets[0]) + 0.4 * dm(kets[1])
        rho = od.compose_theories(od.make_quantum(3), od.make_quantum(db)).state_from_matrix(mat)
        cfg = od.SearchConfig(**self.CONFIGS[config])
        s_a, s_b, s_ab, *_ = kernel._entropies(rho)
        searches = []
        lockstep = kernel._quantum_basis_search

        def compared(point_of):
            def search(r, cfg, grid_objective, point_objective):
                seq_counter = [0]
                want = oracles.qutrit_search_sequential(r, cfg, grid_objective, point_of(r), seq_counter)
                got = lockstep(r, cfg, grid_objective, point_objective)
                searches.append((got[:2], want, got[2], seq_counter[0]))
                return got

            return search

        with mock.patch.object(kernel, "_quantum_basis_search", compared(oracles.one_basis_pinch)):
            od.discord(rho, cfg)
        entropic = compared(lambda r: oracles.one_basis_entropic(r, s_a + s_b - s_ab, s_b))
        with mock.patch.object(kernel, "_quantum_basis_search", entropic):
            rep = od.quantum_discord_entropy(rho, cfg)
        assert len(searches) == 2
        for (basis, value), (want_basis, want_value), count, want_count in searches:
            assert np.array_equal(basis, want_basis)
            assert value == want_value
            assert count == want_count
        assert np.array_equal(rep.optimal_measurement, searches[1][1][0])


class TestOuterEvaluations:
    """``DiscordResult.outer_evaluations`` counts the inner problems."""

    def test_one_on_a_cq_state(self, two_qubits):
        rho = random_cq_state(two_qubits, np.random.default_rng(4))
        assert od.discord(rho).outer_evaluations == 1

    @pytest.mark.parametrize("name", ["gbit", "pentagon", "classical3"])
    def test_number_of_families_on_the_polytope_backend(self, name, request, rng):
        theory = request.getfixturevalue(name)
        rho = random_state(od.compose_theories(theory, theory), rng)
        families = od.maximal_distinguishable_pure_families(theory)
        assert od.discord(rho).outer_evaluations == len(families)

    @pytest.mark.parametrize("da", [2, 3])
    def test_grid_restarts_nelder_mead_points_and_solver_steps(self, da, monkeypatch):
        rho = od.compose_theories(od.make_quantum(da), od.make_quantum(2)).state_from_matrix(
            random_density_matrix(2 * da, np.random.default_rng([8, da]))
        )
        cfg = od.SearchConfig(grid_points=12, refine_iters=25, restarts=3)
        calls = {"minimize": [], "minimize_stack": [], "solve_fixed_basis": []}

        def recorded(fn, out):
            def wrapper(*args, **kwargs):
                out.append(fn(*args, **kwargs))
                return out[-1]

            return wrapper

        for name, out in calls.items():
            monkeypatch.setattr(kernel, name, recorded(getattr(kernel, name), out))
        result = od.discord(rho, cfg)
        assert od.find_fixed_point_basis(rho, cfg) is None
        runs = calls["minimize"] + [res for stack in calls["minimize_stack"] for res in stack]
        (solution,) = calls["solve_fixed_basis"]
        assert len(runs) == cfg.restarts
        grid = cfg.resolved_grid_points(da)
        want = grid + cfg.restarts + sum(res.nfev for res in runs) + int(solution.iterations[0])
        assert result.outer_evaluations == want


class TestConvergedFlag:
    def test_set_from_the_gap_at_the_reported_basis(self, bell_state, monkeypatch):
        rng = np.random.default_rng(5)
        rho = od.compose_theories(od.make_quantum(3), od.make_quantum(2)).state_from_matrix(
            random_density_matrix(6, rng)
        )
        cfg = od.SearchConfig(grid_points=60)
        assert od.discord(rho, cfg).converged
        monkeypatch.setattr(fixedbasis, "MAX_ITERS", 3)
        assert not od.discord(rho, cfg).converged
        assert od.discord(bell_state).converged
