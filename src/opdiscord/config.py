"""Search configuration shared by the discord and witness searches."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral, Real


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def require_tolerance(name: str, tol) -> None:
    """Raise ``ValueError`` unless ``tol`` is a finite number >= 0 (a bool is not)."""
    if isinstance(tol, bool) or not (isinstance(tol, Real) and 0 <= tol < math.inf):
        raise ValueError(f"{name} must be a finite number >= 0, not {tol!r}")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the grid-plus-refinement searches.

    ``grid_points = None`` resolves to the backend default: a 2000-point
    Fibonacci sphere of measurement directions for two-level systems, a
    5000-sample Haar-random basis set otherwise.  Values out of range
    raise ``ValueError``.
    """

    grid_points: int | None = None
    refine_iters: int = 200
    restarts: int = 4
    seed: int = 0x5EED
    tol_zero: float = 1e-9

    def __post_init__(self):
        if self.grid_points is not None and not (_is_int(self.grid_points) and self.grid_points >= 1):
            raise ValueError(f"grid_points must be None or an integer >= 1, not {self.grid_points!r}")
        if not (_is_int(self.refine_iters) and self.refine_iters >= 1):
            raise ValueError(f"refine_iters must be an integer >= 1, not {self.refine_iters!r}")
        if not (_is_int(self.restarts) and self.restarts >= 0):
            raise ValueError(f"restarts must be an integer >= 0, not {self.restarts!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, not {self.seed!r}")
        require_tolerance("tol_zero", self.tol_zero)

    def resolved_grid_points(self, levels: int) -> int:
        if self.grid_points is not None:
            return self.grid_points
        return 2000 if levels == 2 else 5000

    def with_seed(self, seed: int) -> "SearchConfig":
        return replace(self, seed=seed)

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "SearchConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"a config must be a JSON object, not {type(obj).__name__}")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**obj)


DEFAULT_CONFIG = SearchConfig()
