"""The fixed-basis solver: a feasible primal point at its reported
distance, a valid dual effect below it, a closed gap, and values no
worse than the Nelder-Mead polish it replaced."""

import importlib

import numpy as np
from hypothesis import given, settings, strategies as st

import opdiscord as od
from opdiscord import fixedbasis
from opdiscord.fixedbasis import MAX_ITERS, gap_tolerance, solve_fixed_basis
from opdiscord.sampling import random_density_matrix, random_haar_basis, random_pure_ket

import oracles

kernel = importlib.import_module("opdiscord.discord")


def _state(rng, da, db, kind):
    n = da * db
    if kind == "ginibre":
        return random_density_matrix(n, rng)
    if kind == "pure":
        ket = random_pure_ket(n, rng)
        return np.outer(ket, ket.conj())
    if kind == "rank-deficient":
        g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        m = g @ g.conj().T
        return m / np.trace(m).real
    # cq in a random basis, one outcome weight zero
    basis = random_haar_basis(da, rng)
    weights = rng.dirichlet(np.ones(da))
    weights[rng.integers(da)] = 0.0
    weights /= weights.sum()
    return sum(
        w * np.kron(np.outer(k, k.conj()), random_density_matrix(db, rng)) for w, k in zip(weights, basis)
    )


def _case(seed, da, db, kind, complete):
    """A state and three random bases; an incomplete family drops each
    basis's last ket."""
    rng = np.random.default_rng(seed)
    rho = _state(rng, da, db, kind)
    kets = np.stack([random_haar_basis(da, rng) for _ in range(3)])
    return rho, kets if complete else kets[:, :-1], db


cases = st.builds(
    _case,
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([2, 3]),
    st.sampled_from(["ginibre", "pure", "cq", "rank-deficient"]),
    st.booleans(),
)


def _cq(kets, taus):
    return np.stack([oracles.kron_cq_matrix(k, t) for k, t in zip(kets, taus)])


class TestFixedBasisSolver:
    @settings(max_examples=40)
    @given(cases)
    def test_primal_point_is_a_cq_state_at_the_reported_distance(self, case):
        rho, kets, db = case
        sol = solve_fixed_basis(rho, kets, db)
        assert sol.taus.shape == kets.shape[:2] + (db, db)
        assert np.min(np.linalg.eigvalsh(sol.taus)) >= -1e-12
        assert np.allclose(np.trace(sol.taus, axis1=-2, axis2=-1).sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        ab = od.compose_theories(od.make_quantum(kets.shape[-1]), od.make_quantum(db))
        state = ab.state_from_matrix(rho)
        for value, sigma in zip(sol.value, _cq(kets, sol.taus)):
            assert abs(value - od.operational_distance(state, ab.state_from_matrix(sigma))) <= 1e-12

    @settings(max_examples=40)
    @given(cases)
    def test_dual_effect_certifies_the_lower_bound(self, case):
        rho, kets, db = case
        da = kets.shape[-1]
        sol = solve_fixed_basis(rho, kets, db)
        for basis, a, lower, value, steps in zip(kets, sol.effect, sol.lower, sol.value, sol.iterations):
            w = np.linalg.eigvalsh(a)
            assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
            top = max(np.linalg.eigvalsh(b)[-1] for b in oracles.basis_blocks(a, basis, da, db))
            recomputed = float(np.trace(a @ rho).real) - top
            assert abs(recomputed - lower) <= 1e-12
            assert recomputed <= value + 1e-12
            # a basis stops at its tolerance or at the cap, never between
            assert value - lower <= gap_tolerance(da) or steps == MAX_ITERS
            if da == len(basis) == 2:  # the pinching, certified at once
                assert steps == 1 and value - lower <= gap_tolerance(2)

    @settings(max_examples=15)
    @given(cases)
    def test_no_worse_than_the_polish(self, case):
        rho, kets, db = case
        da = kets.shape[-1]
        basis = kets[0]  # one basis: the polish takes about a second
        taus = solve_fixed_basis(rho, basis[None], db).taus[0]
        value = oracles.helstrom_value(rho, oracles.kron_cq_matrix(basis, taus))
        x0 = oracles.conditional_params_init(oracles.basis_blocks(rho, basis, da, db), db)
        polish, _, _ = oracles.polish_conditionals_scipy(rho, basis, x0, db, 0x5EED, 200)
        assert value <= polish + 1e-12
        if da == 2 and len(basis) == 2:
            assert abs(value - polish) <= 1e-12

    def test_iteration_cap_loosens_but_keeps_the_bracket(self, monkeypatch):
        rho, kets, db = _case(5, 3, 3, "ginibre", True)
        exact = solve_fixed_basis(rho, kets, db)
        monkeypatch.setattr(fixedbasis, "MAX_ITERS", 3)
        capped = solve_fixed_basis(rho, kets, db)
        assert np.all(capped.iterations == 3)
        assert np.all(capped.lower <= exact.value + 1e-12)
        assert np.all(exact.lower <= capped.value + 1e-12)
        assert np.all(capped.value - capped.lower > exact.value - exact.lower)

    @settings(max_examples=10)
    @given(st.lists(st.integers(0, 20), min_size=4, max_size=4).filter(any))
    def test_gap_closes_on_bell_diagonal_states(self, counts):
        """At the basis its discord search picks, a Bell-diagonal state's
        gap closes well inside the cap."""
        rho, _ = oracles.bell_diagonal(np.array(counts) / sum(counts))
        ab = od.compose_theories(od.make_quantum(2), od.make_quantum(2))
        result = od.discord(ab.state_from_matrix(rho))
        kets = kernel._kets_from_family(result.optimizer.family)
        sol = solve_fixed_basis(rho, kets[None], 2)
        assert sol.value[0] - sol.lower[0] <= gap_tolerance(2)
