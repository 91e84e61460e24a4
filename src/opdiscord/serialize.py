"""JSON file formats for theories, states, tests, configs and reports.

Floats are emitted with 17 significant digits so every value
round-trips exactly; emission is deterministic (insertion order, fixed
formatting), which the CLI's byte-identical reproducibility contract
relies on.
"""

from __future__ import annotations

import functools
import json
import re

import numpy as np

from .config import SearchConfig
from .discord import DiscordResult, NullDiscordDecomposition
from .errors import InvalidStateError
from .theory import (
    POLYTOPE,
    QUANTUM,
    StateVec,
    TestModel,
    TheoryModel,
    Transformation,
    _frozen,
    compose_theories,
    make_classical,
    make_polygon,
    make_quantum,
    validate_state,
)


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise InvalidStateError("non-finite float in serialized output")
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON emitter with full-precision floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        inner = ", ".join(dumps(v, indent) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# theory registry

_BUILTIN_ALIASES = {
    "bit": "classical(2)",
    "trit": "classical(3)",
    "gbit": "polygon(4)",
    "qubit": "quantum(2)",
    "qutrit": "quantum(3)",
}

_PATTERN = re.compile(r"^(classical|polygon|quantum)\((\d+)\)$")


def resolve_theory(name: str, loaded: dict[str, TheoryModel] | None = None) -> TheoryModel:
    """Resolve a system name: loaded custom theories first, then the
    built-in families ``classical(n)``, ``polygon(n)``, ``quantum(d)``
    and their aliases."""
    if loaded and name in loaded:
        return loaded[name]
    name = _BUILTIN_ALIASES.get(name, name)
    m = _PATTERN.match(name)
    if not m:
        raise InvalidStateError(f"unknown theory name: {name!r}")
    return _builtin_theory(m.group(1), int(m.group(2)))


@functools.lru_cache(maxsize=128)
def _builtin_theory(kind: str, n: int) -> TheoryModel:
    """Built once per family and size, so repeated runs share one theory
    object and with it the caches keyed by theory identity (families,
    composites)."""
    if kind == "classical":
        return make_classical(n)
    if kind == "polygon":
        return make_polygon(n)
    return make_quantum(n)


# ---------------------------------------------------------------------------
# theories


def theory_to_obj(theory: TheoryModel) -> dict:
    obj = {
        "name": theory.name,
        "backend": theory.backend,
        "dim": theory.dim,
        "pure_states": theory.pure_state_coords,
        "effect_vertices": theory.effect_vertex_coords
        if theory.effect_vertex_coords is not None
        else [],
        "deterministic_effect": theory.det_effect_coords,
    }
    if theory.quantum_levels is not None:
        obj["quantum_levels"] = theory.quantum_levels
    return obj


def theory_from_obj(obj: dict) -> TheoryModel:
    backend = obj["backend"]
    if backend == QUANTUM:
        theory = _builtin_theory("quantum", int(obj["quantum_levels"]))
        if theory.dim != int(obj["dim"]):
            raise InvalidStateError("quantum theory file has dim != quantum_levels^2")
        return theory
    if backend != POLYTOPE:
        raise InvalidStateError(f"unknown backend {backend!r}")
    pure = np.array(obj["pure_states"], dtype=float)
    effects = np.array(obj["effect_vertices"], dtype=float)
    det = np.array(obj["deterministic_effect"], dtype=float)
    dim = int(obj["dim"])
    if pure.ndim != 2 or pure.shape[1] != dim or det.shape != (dim,):
        raise InvalidStateError("polytope theory file has inconsistent dimensions")
    return TheoryModel(
        name=str(obj["name"]),
        backend=POLYTOPE,
        dim=dim,
        pure_state_coords=_frozen(pure),
        effect_vertex_coords=_frozen(effects) if effects.size else None,
        det_effect_coords=_frozen(det),
    )


# ---------------------------------------------------------------------------
# states


def state_to_obj(state: StateVec) -> dict:
    system = state.system
    systems = [f.name for f in system.factors] if system.is_composite else [system.name]
    return {"theory": system.name, "systems": systems, "coords": state.coords}


def state_from_obj(obj: dict, loaded: dict[str, TheoryModel] | None = None) -> StateVec:
    systems = obj.get("systems") or [obj["theory"]]
    if len(systems) == 1:
        theory = resolve_theory(systems[0], loaded)
    elif len(systems) == 2:
        theory = compose_theories(
            resolve_theory(systems[0], loaded), resolve_theory(systems[1], loaded)
        )
    else:
        raise InvalidStateError("only single and bipartite states are supported")
    coords = np.array(obj["coords"], dtype=float)
    if coords.shape != (theory.dim,):
        raise InvalidStateError(
            f"state file has {coords.shape[0]} coords, expected {theory.dim}"
        )
    # every CLI state file enters here: reject points outside the state cone
    # (one LP on the polytope backend) before any command runs on them
    state = theory.state(coords)
    validate_state(state)
    return state


# ---------------------------------------------------------------------------
# tests


def test_to_obj(test: TestModel) -> dict:
    return {
        "theory": test.input.name,
        "events": [ev.matrix for ev in test.events],
    }


def test_from_obj(obj: dict, loaded: dict[str, TheoryModel] | None = None) -> TestModel:
    theory = resolve_theory(obj["theory"], loaded)
    events = tuple(
        Transformation(theory, theory, np.array(m, dtype=float)) for m in obj["events"]
    )
    return TestModel(events)


# ---------------------------------------------------------------------------
# results


def decomposition_to_obj(decomp: NullDiscordDecomposition) -> dict:
    return {
        "family": [psi.coords for psi in decomp.family],
        "weights": decomp.weights,
        "conditionals": [s.coords for s in decomp.conditionals],
    }


def discord_result_to_obj(result: DiscordResult) -> dict:
    return {
        "value": result.value,
        "optimizer": decomposition_to_obj(result.optimizer),
        "certificate_effect": result.certificate_effect.coords,
        "outer_evaluations": result.outer_evaluations,
        "converged": result.converged,
    }


def basis_to_obj(basis: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(basis, dtype=complex)]


def config_from_path(path: str) -> SearchConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return SearchConfig.from_obj(json.load(fh))


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
