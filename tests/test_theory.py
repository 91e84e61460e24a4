import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import opdiscord as od
from opdiscord.herm import hermitian_basis, mat_to_coords, coords_to_mat
from opdiscord.lp import lp_feasible

import oracles
from conftest import BELL, KET0, dm

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


class TestConstructors:
    def test_classical_trivial_system(self):
        t = od.make_classical(1)
        assert t.dim == 1
        assert len(t.pure_states) == 1
        assert od.evaluate(t.deterministic_effect, t.pure_states[0]) == 1.0

    def test_classical_bit(self, classical2):
        assert classical2.dim == 2
        assert len(classical2.pure_states) == 2
        assert len(classical2.effect_vertices) == 4

    def test_classical_trit_deterministic_effect(self, classical3):
        assert_allclose(classical3.det_effect_coords, [1.0, 1.0, 1.0])
        for v in classical3.pure_states:
            assert abs(od.evaluate(classical3.deterministic_effect, v) - 1.0) < 1e-12

    def test_invalid_dimensions(self):
        with pytest.raises(od.InvalidDimensionError):
            od.make_classical(0)
        with pytest.raises(od.InvalidPolygonError):
            od.make_polygon(2)
        with pytest.raises(od.InvalidDimensionError):
            od.make_quantum(1)

    def test_gbit_vertices(self, gbit):
        expected = {(1, 1), (-1, 1), (-1, -1), (1, -1)}
        got = {tuple(np.round(v[:2]).astype(int)) for v in gbit.pure_state_coords}
        assert got == expected
        assert_allclose(gbit.pure_state_coords[:, 2], 1.0, atol=1e-12)
        assert_allclose(np.abs(gbit.pure_state_coords[:, :2]), 1.0, atol=1e-12)

    def test_gbit_not_simplicial_by_affine_oracle(self, gbit):
        # 4 points in a 2-plane cannot be affinely independent
        assert oracles.affine_rank(gbit.pure_state_coords) == 2

    def test_triangle_is_simplex_by_affine_oracle(self):
        tri = od.make_polygon(3)
        assert oracles.affine_rank(tri.pure_state_coords) == 2
        assert tri.pure_state_coords.shape[0] == 3

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_polygon_effects_match_dual_polytope_oracle(self, n):
        theory = od.make_polygon(n)
        oracle = oracles.dual_polytope_extreme_points(theory.pure_state_coords)
        built = theory.effect_vertex_coords
        assert len(oracle) == built.shape[0]
        for a in oracle:
            assert any(np.allclose(a, b, atol=1e-8) for b in built)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_polygon_vertices_are_extreme(self, n):
        theory = od.make_polygon(n)
        coords = theory.pure_state_coords
        for i in range(coords.shape[0]):
            others = np.delete(coords, i, axis=0)
            ok, _ = lp_feasible(
                np.vstack([others.T, np.ones(others.shape[0])]),
                np.concatenate([coords[i], [1.0]]),
            )
            assert not ok, "vertex is a convex combination of the others"

    def test_quantum_dim_and_maximally_mixed(self, qubit):
        assert qubit.dim == 4
        assert qubit.quantum_levels == 2
        mixed = qubit.state_from_matrix(np.eye(2, dtype=complex) / 2.0)
        assert_allclose(mixed.coords, [1.0 / np.sqrt(2.0), 0.0, 0.0, 0.0], atol=1e-15)

    def test_effect_vertices_valid_on_pure_states(self):
        for theory in [od.make_classical(4), od.make_polygon(5), od.make_gbit()]:
            vals = theory.pure_state_coords @ theory.effect_vertex_coords.T
            assert vals.min() >= -1e-10
            assert vals.max() <= 1.0 + 1e-10


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal(self, d):
        basis = hermitian_basis(d)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert_allclose(gram, np.eye(d * d), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_roundtrip(self, d):
        rng = np.random.default_rng(5)
        basis = hermitian_basis(d)
        for _ in range(20):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (g + g.conj().T) / 2.0
            coords = mat_to_coords(h, basis)
            assert_allclose(coords_to_mat(coords, basis), h, atol=1e-12)
            assert_allclose(mat_to_coords(coords_to_mat(coords, basis), basis), coords, atol=1e-12)


class TestMembership:
    def test_projector_is_valid_pure(self, qubit):
        s = qubit.state_from_matrix(dm(KET0))
        od.validate_state(s)
        assert od.is_pure(s, 1e-9)

    def test_negative_eigenvalue_rejected(self, qubit):
        bad = qubit.state_from_matrix(np.diag([1.1, -0.1]).astype(complex))
        assert not od.state_in_cone(bad)
        with pytest.raises(od.InvalidStateError):
            od.validate_state(bad)

    def test_polytope_membership(self, gbit):
        inside = gbit.state(np.mean(gbit.pure_state_coords, axis=0))
        od.validate_state(inside)
        outside = gbit.state([2.0, 2.0, 1.0])
        assert not od.state_in_cone(outside)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates_rejected(self, gbit, bad):
        with pytest.raises(od.InvalidStateError, match="coordinates must be finite"):
            gbit.state([bad, 0.0, 1.0])
        with pytest.raises(od.InvalidStateError, match="coordinates must be finite"):
            gbit.effect([0.0, bad, 0.5])

    def test_mixture_not_pure(self, classical2):
        assert not od.is_pure(classical2.state([0.5, 0.5]), 1e-9)

    def test_almost_pure_qubit_fails_tight_tolerance(self, qubit):
        bloch = 0.999 * np.array([0.0, 0.0, 1.0])
        s = qubit.state_from_matrix(
            (np.eye(2, dtype=complex) + bloch[2] * np.diag([1.0, -1.0])) / 2.0
        )
        assert not od.is_pure(s, 1e-6)


class TestPairing:
    def test_deterministic_effect_on_normalized(self, classical3, rng):
        w = rng.dirichlet(np.ones(3))
        s = classical3.state(w)
        assert abs(od.evaluate(classical3.deterministic_effect, s) - 1.0) < 1e-12

    def test_zero_effect(self, classical3):
        z = classical3.effect(np.zeros(3))
        assert od.evaluate(z, classical3.pure_states[0]) == 0.0

    def test_dot_product_example(self, classical2):
        a = classical2.effect([1.0, 0.0])
        s = classical2.state([0.3, 0.7])
        assert_allclose(od.evaluate(a, s), 0.3, atol=1e-15)

    def test_system_mismatch_raises(self, classical2, classical3):
        with pytest.raises(od.SystemMismatchError):
            od.evaluate(classical3.deterministic_effect, classical2.state([1.0, 0.0]))

    @given(alpha=finite, beta=finite, w0=st.floats(0.01, 0.99))
    def test_bilinearity(self, alpha, beta, w0):
        theory = od.make_classical(3)
        rng = np.random.default_rng(int(abs(alpha * 1000 + beta * 7)) % 2**31)
        a = theory.effect(rng.uniform(0, 1, 3))
        b = theory.effect(rng.uniform(0, 1, 3))
        s = theory.state([w0, (1 - w0) / 2, (1 - w0) / 2])
        lhs = od.evaluate(theory.effect(alpha * a.coords + beta * b.coords), s)
        rhs = alpha * od.evaluate(a, s) + beta * od.evaluate(b, s)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestComposition:
    def test_product_of_pure_is_pure(self, classical2):
        ab = od.compose(classical2.pure_states[0], classical2.pure_states[1])
        assert od.is_pure(ab, 1e-9)

    def test_product_normalization(self, gbit, rng):
        from opdiscord.sampling import random_state

        a = random_state(gbit, rng)
        b = random_state(gbit, rng)
        ab = od.compose(a, b)
        assert abs(od.evaluate(ab.system.deterministic_effect, ab) - 1.0) < 1e-12

    def test_classical_basis_index(self, classical2):
        ab = od.compose(classical2.state([1.0, 0.0]), classical2.state([0.0, 1.0]))
        assert_allclose(ab.coords, [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    @given(w=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    def test_compose_then_marginalize_is_identity(self, w, v):
        c2 = od.make_classical(2)
        a = c2.state([w, 1.0 - w])
        b = c2.state([v, 1.0 - v])
        ab = od.compose(a, b)
        assert_allclose(od.marginalize(ab, "B").coords, a.coords, atol=1e-12)
        assert_allclose(od.marginalize(ab, "A").coords, b.coords, atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self, bell_state):
        # oracle: direct index-summation partial trace
        marg = od.marginalize(bell_state, "B")
        expected = oracles.partial_trace(dm(BELL), 2, 2, "A")
        assert_allclose(marg.matrix(), expected, atol=1e-12)
        assert_allclose(marg.matrix(), np.eye(2) / 2.0, atol=1e-12)

    def test_classical_correlated_marginal(self, classical2):
        cc = od.compose_theories(classical2, classical2)
        corr = cc.state([0.5, 0.0, 0.0, 0.5])
        assert_allclose(od.marginalize(corr, "B").coords, [0.5, 0.5], atol=1e-15)

    def test_marginalize_requires_bipartite(self, classical2):
        with pytest.raises(od.SystemMismatchError):
            od.marginalize(classical2.state([1.0, 0.0]), "B")

    def test_mixed_backend_composition_rejected(self, classical2, qubit):
        with pytest.raises(od.SystemMismatchError):
            od.compose_theories(classical2, qubit)

    def test_quantum_product_basis_roundtrip(self, two_qubits, rng):
        from opdiscord.sampling import random_density_matrix

        m = random_density_matrix(4, rng)
        s = two_qubits.state_from_matrix(m)
        assert_allclose(s.matrix(), m, atol=1e-12)


class TestTransformations:
    def test_test_model_determinism_check(self, classical2):
        a0 = od.Transformation(classical2, classical2, np.diag([1.0, 0.0]))
        a1 = od.Transformation(classical2, classical2, np.diag([0.0, 1.0]))
        assert od.TestModel((a0, a1)).is_deterministic()
        assert not od.TestModel((a0, a0)).is_deterministic()

    def test_transformation_validation(self, classical2):
        ok = od.Transformation(classical2, classical2, np.diag([0.5, 0.5]))
        od.validate_transformation(ok)
        bad = od.Transformation(classical2, classical2, np.diag([2.0, 1.0]))
        with pytest.raises(od.InvalidStateError):
            od.validate_transformation(bad)

    def test_apply_tracks_normalization(self, classical2):
        half = od.Transformation(classical2, classical2, np.diag([1.0, 0.0]))
        out = half.apply(classical2.state([0.3, 0.7]))
        assert not out.normalized
        assert_allclose(out.coords, [0.3, 0.0], atol=1e-15)

    def test_apply_rejects_a_non_finite_image(self, classical2):
        nan_map = od.Transformation(classical2, classical2, np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(od.InvalidStateError, match="coordinates must be finite"):
            nan_map.apply(classical2.state([0.5, 0.5]))
