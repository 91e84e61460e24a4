"""Systems, states, effects and transformations for both theory backends.

A system is described by a :class:`TheoryModel`: a real coordinate space
of dimension ``dim`` carrying a convex set of states and the dual set of
effects, paired bilinearly.  Two backends are supported:

* ``polytope`` -- states are the convex hull of an explicit vertex list,
  effects are the full dual polytope (extreme points listed for base
  theories, half-space form for composites);
* ``quantum`` -- coordinates live in a fixed orthonormal Hermitian
  operator basis (identity-first), pure states are the implicit
  continuum of rank-one projectors.

Composites use the tensor product of coordinate spaces; the polytope
composite carries the product pure states (separable states only), with
effects taken as the full dual of that state cone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import herm
from .errors import (
    InvalidDimensionError,
    InvalidPolygonError,
    InvalidStateError,
    SystemMismatchError,
    UnsupportedBackendError,
)
from .lp import lp_feasible

POLYTOPE = "polytope"
QUANTUM = "quantum"

NORMALIZATION_TOL = 1e-12
MEMBERSHIP_EIG_TOL = 1e-10


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TheoryModel:
    """A finite-dimensional system description."""

    name: str
    backend: str
    dim: int
    pure_state_coords: np.ndarray
    effect_vertex_coords: np.ndarray | None
    det_effect_coords: np.ndarray
    quantum_levels: int | None = None
    herm_basis: np.ndarray | None = None
    factors: tuple["TheoryModel", ...] = ()

    def is_same(self, other: "TheoryModel") -> bool:
        return (
            self.backend == other.backend
            and self.dim == other.dim
            and self.name == other.name
        )

    @property
    def is_composite(self) -> bool:
        return len(self.factors) == 2

    @property
    def deterministic_effect(self) -> "EffectVec":
        return EffectVec(self, self.det_effect_coords)

    @property
    def pure_states(self) -> list["StateVec"]:
        return [self.state(v) for v in self.pure_state_coords]

    @property
    def effect_vertices(self) -> list["EffectVec"]:
        if self.effect_vertex_coords is None:
            return []
        return [EffectVec(self, a) for a in self.effect_vertex_coords]

    def state(self, coords) -> "StateVec":
        coords = self._coords(coords)
        norm = abs(float(self.det_effect_coords @ coords) - 1.0) <= NORMALIZATION_TOL
        return StateVec(self, coords, norm)

    def effect(self, coords) -> "EffectVec":
        return EffectVec(self, self._coords(coords))

    def _coords(self, coords) -> np.ndarray:
        coords = _frozen(coords)
        if coords.shape != (self.dim,):
            raise InvalidStateError(f"expected coords of length {self.dim}, got {coords.shape}")
        if not np.isfinite(coords).all():
            raise InvalidStateError("coordinates must be finite")
        return coords

    def state_from_matrix(self, mat: np.ndarray) -> "StateVec":
        if self.backend != QUANTUM:
            raise UnsupportedBackendError("matrix states exist on the quantum backend only")
        return self.state(herm.mat_to_coords(mat, self.herm_basis))

    def effect_from_matrix(self, mat: np.ndarray) -> "EffectVec":
        if self.backend != QUANTUM:
            raise UnsupportedBackendError("matrix effects exist on the quantum backend only")
        return self.effect(herm.mat_to_coords(mat, self.herm_basis))

    def __repr__(self) -> str:
        return f"TheoryModel({self.name!r}, backend={self.backend}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class StateVec:
    system: TheoryModel
    coords: np.ndarray
    normalized: bool

    def matrix(self) -> np.ndarray:
        """Reconstructed density matrix (quantum backend)."""
        if self.system.backend != QUANTUM:
            raise UnsupportedBackendError("only quantum states reconstruct to matrices")
        return herm.coords_to_mat(self.coords, self.system.herm_basis)

    def __repr__(self) -> str:
        return f"StateVec({self.system.name}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class EffectVec:
    system: TheoryModel
    coords: np.ndarray

    def matrix(self) -> np.ndarray:
        if self.system.backend != QUANTUM:
            raise UnsupportedBackendError("only quantum effects reconstruct to matrices")
        return herm.coords_to_mat(self.coords, self.system.herm_basis)

    def __repr__(self) -> str:
        return f"EffectVec({self.system.name}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class Transformation:
    """A linear map between state spaces, in coordinate representation."""

    input: TheoryModel
    output: TheoryModel
    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen(self.matrix)
        if mat.shape != (self.output.dim, self.input.dim):
            raise InvalidStateError(
                f"transformation matrix must be {self.output.dim} x {self.input.dim}"
            )
        object.__setattr__(self, "matrix", mat)

    def apply(self, rho: StateVec) -> StateVec:
        if not rho.system.is_same(self.input):
            raise SystemMismatchError("state lives on a different system than the map's input")
        return self.output.state(self.matrix @ rho.coords)


@dataclass(frozen=True, eq=False)
class TestModel:
    """An outcome-indexed collection of transformations forming one test."""

    events: tuple[Transformation, ...]

    def __post_init__(self):
        if not self.events:
            raise InvalidStateError("a test needs at least one event")
        first = self.events[0]
        for ev in self.events[1:]:
            if not (ev.input.is_same(first.input) and ev.output.is_same(first.output)):
                raise SystemMismatchError("all events of a test share input and output systems")

    @property
    def input(self) -> TheoryModel:
        return self.events[0].input

    @property
    def output(self) -> TheoryModel:
        return self.events[0].output

    def total_matrix(self) -> np.ndarray:
        return sum(ev.matrix for ev in self.events)

    def is_deterministic(self, tol: float = 1e-10) -> bool:
        # e_out . (sum_i A_i) = e_in as covectors; states span, so this is
        # equivalent to the pairing identity on every state.
        lhs = self.total_matrix().T @ self.output.det_effect_coords
        return bool(np.max(np.abs(lhs - self.input.det_effect_coords)) <= tol)


# ---------------------------------------------------------------------------
# constructors


def make_classical(n: int) -> TheoryModel:
    """Classical n-outcome system: simplex states, hypercube effects."""
    if n < 1:
        raise InvalidDimensionError("classical systems need n >= 1")
    pure = np.eye(n)
    effects = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    return TheoryModel(
        name=f"classical({n})",
        backend=POLYTOPE,
        dim=n,
        pure_state_coords=_frozen(pure),
        effect_vertex_coords=_frozen(effects),
        det_effect_coords=_frozen(np.ones(n)),
    )


def make_polygon(n: int) -> TheoryModel:
    """Regular-polygon theory; n = 4 is the gbit (square state space).

    Effect vertices are the extreme points of the full dual polytope
    ``{a : 0 <= a.v <= 1 on all pure v}``: zero, unit, the n facet
    effects, and (odd n) their complements, which are extremal as well.
    """
    if n < 3:
        raise InvalidPolygonError("polygon theories need n >= 3")
    radius = 1.0 / np.cos(np.pi / n)
    angles = 2.0 * np.pi * np.arange(n) / n + np.pi / n
    pure = np.column_stack([radius * np.cos(angles), radius * np.sin(angles), np.ones(n)])

    eff_angles = 2.0 * np.pi * np.arange(n) / n + np.pi
    if n % 2 == 0:
        scale = 0.5
    else:
        c = np.cos(np.pi / n)
        scale = c / (1.0 + c)
    facet = np.column_stack(
        [scale * np.cos(eff_angles), scale * np.sin(eff_angles), scale * np.ones(n)]
    )
    unit = np.array([0.0, 0.0, 1.0])
    rows = [np.zeros(3), unit]
    rows.extend(facet)
    if n % 2 == 1:
        rows.extend(unit - f for f in facet)
    return TheoryModel(
        name=f"polygon({n})",
        backend=POLYTOPE,
        dim=3,
        pure_state_coords=_frozen(pure),
        effect_vertex_coords=_frozen(np.array(rows)),
        det_effect_coords=_frozen(unit),
    )


def make_gbit() -> TheoryModel:
    return make_polygon(4)


def make_quantum(d: int) -> TheoryModel:
    """Quantum system with d levels; coordinates in the Hermitian basis."""
    if d < 2:
        raise InvalidDimensionError("quantum systems need d >= 2")
    basis = herm.hermitian_basis(d)
    basis.setflags(write=False)
    det = np.zeros(d * d)
    det[0] = np.sqrt(d)
    return TheoryModel(
        name=f"quantum({d})",
        backend=QUANTUM,
        dim=d * d,
        pure_state_coords=_frozen(np.zeros((0, d * d))),
        effect_vertex_coords=None,
        det_effect_coords=_frozen(det),
        quantum_levels=d,
        herm_basis=basis,
    )


@functools.lru_cache(maxsize=128)
def _compose_cached(a: TheoryModel, b: TheoryModel) -> TheoryModel:
    if a.backend != b.backend:
        raise SystemMismatchError("cannot compose systems of different backends")
    name = f"{a.name}*{b.name}"
    det = np.kron(a.det_effect_coords, b.det_effect_coords)
    if a.backend == POLYTOPE:
        pure = np.array(
            [np.kron(v, w) for v in a.pure_state_coords for w in b.pure_state_coords]
        )
        return TheoryModel(
            name=name,
            backend=POLYTOPE,
            dim=a.dim * b.dim,
            pure_state_coords=_frozen(pure),
            effect_vertex_coords=None,
            det_effect_coords=_frozen(det),
            factors=(a, b),
        )
    basis = herm.product_basis(a.herm_basis, b.herm_basis)
    basis.setflags(write=False)
    return TheoryModel(
        name=name,
        backend=QUANTUM,
        dim=a.dim * b.dim,
        pure_state_coords=_frozen(np.zeros((0, a.dim * b.dim))),
        effect_vertex_coords=None,
        det_effect_coords=_frozen(det),
        quantum_levels=a.quantum_levels * b.quantum_levels,
        herm_basis=basis,
        factors=(a, b),
    )


def compose_theories(a: TheoryModel, b: TheoryModel) -> TheoryModel:
    """The bipartite system AB on the tensor product of coordinate spaces."""
    return _compose_cached(a, b)


# ---------------------------------------------------------------------------
# operations


def evaluate(a: EffectVec, rho: StateVec) -> float:
    """The bilinear pairing ``a . rho``."""
    if not a.system.is_same(rho.system):
        raise SystemMismatchError("effect and state live on different systems")
    return float(a.coords @ rho.coords)


def compose(rho_a: StateVec, rho_b: StateVec) -> StateVec:
    """Product state on the composite system, coordinate tensor product."""
    if rho_a.normalized != rho_b.normalized:
        raise InvalidStateError("compose requires both states normalized or both subnormalized")
    ab = compose_theories(rho_a.system, rho_b.system)
    return ab.state(np.kron(rho_a.coords, rho_b.coords))


def marginalize(rho_ab: StateVec, side: str) -> StateVec:
    """Apply the deterministic effect of the discarded ``side`` (``"A"`` or ``"B"``)."""
    system = rho_ab.system
    if not system.is_composite:
        raise SystemMismatchError("marginalize needs a bipartite state")
    side = str(side).upper()
    if side not in ("A", "B"):
        raise InvalidStateError("side must be 'A' or 'B'")
    fa, fb = system.factors
    table = rho_ab.coords.reshape(fa.dim, fb.dim)
    if side == "B":
        return fa.state(table @ fb.det_effect_coords)
    return fb.state(fa.det_effect_coords @ table)


def state_in_cone(rho: StateVec) -> bool:
    """Membership of the coords in the cone generated by pure states."""
    system = rho.system
    if system.backend == POLYTOPE:
        feasible, _ = lp_feasible(system.pure_state_coords.T, rho.coords)
        return feasible
    mat = rho.matrix()
    return bool(np.min(np.linalg.eigvalsh(mat)) >= -MEMBERSHIP_EIG_TOL)


def validate_state(rho: StateVec) -> None:
    """Raise InvalidStateError unless rho is a valid (sub)normalized state."""
    if rho.normalized:
        pairing = float(rho.system.det_effect_coords @ rho.coords)
        if abs(pairing - 1.0) > NORMALIZATION_TOL * 10:
            raise InvalidStateError("state flagged normalized but pairing with e differs from 1")
    if not state_in_cone(rho):
        raise InvalidStateError("coords lie outside the state cone")


def validate_effect(a: EffectVec, tol: float = 1e-10) -> None:
    """Check ``0 <= a.rho <= 1`` on pure states (polytope) / PSD ordering (quantum)."""
    system = a.system
    if system.backend == POLYTOPE:
        vals = system.pure_state_coords @ a.coords
        if vals.size and (np.min(vals) < -tol or np.max(vals) > 1.0 + tol):
            raise InvalidStateError("effect takes values outside [0, 1] on pure states")
        return
    mat = a.matrix()
    w = np.linalg.eigvalsh(mat)
    if np.min(w) < -tol or np.max(w) > 1.0 + tol:
        raise InvalidStateError("effect operator is not between 0 and the identity")


def is_pure(rho: StateVec, tol: float = 1e-9) -> bool:
    """Extreme-point test: vertex proximity (polytope) or purity (quantum)."""
    if not rho.normalized:
        raise InvalidStateError("purity is defined for normalized states")
    validate_state(rho)
    system = rho.system
    if system.backend == POLYTOPE:
        if system.pure_state_coords.shape[0] == 0:
            return False
        gaps = np.max(np.abs(system.pure_state_coords - rho.coords[None, :]), axis=1)
        return bool(np.min(gaps) <= tol)
    purity = float(rho.coords @ rho.coords)
    return purity >= 1.0 - tol


def validate_transformation(t: Transformation, tol: float = 1e-10, samples: int = 32) -> None:
    """Cone preservation and sub-normalization, checked on pure states.

    Polytope: exact on the vertex list.  Quantum: spot-checked on a
    deterministic sample of pure inputs (the pure set is a continuum).
    """
    if t.input.backend == POLYTOPE:
        for v in t.input.pure_state_coords:
            out = t.input.state(v)
            img = StateVec(t.output, _frozen(t.matrix @ v), False)
            if not state_in_cone(img):
                raise InvalidStateError("transformation maps a pure state outside the cone")
            if float(t.output.det_effect_coords @ img.coords) > float(
                t.input.det_effect_coords @ v
            ) + tol:
                raise InvalidStateError("transformation is super-normalized on a pure state")
        return
    rng = np.random.default_rng(0)
    d = t.input.quantum_levels
    for _ in range(samples):
        ket = rng.normal(size=d) + 1j * rng.normal(size=d)
        ket /= np.linalg.norm(ket)
        rho = t.input.state_from_matrix(np.outer(ket, ket.conj()))
        img = StateVec(t.output, _frozen(t.matrix @ rho.coords), False)
        w = np.linalg.eigvalsh(img.matrix())
        if np.min(w) < -1e-9:
            raise InvalidStateError("transformation maps a pure state outside the PSD cone")
        if float(t.output.det_effect_coords @ img.coords) > 1.0 + tol:
            raise InvalidStateError("transformation is super-normalized on a pure state")
