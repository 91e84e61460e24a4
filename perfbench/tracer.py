"""Spans at opdiscord's layer boundaries, recorded from outside the package.

Each boundary is a module-level function.  A function imported by name
is bound again in every module that imports it (and ``import
opdiscord.discord`` yields the *function*, which shadows the submodule),
so :meth:`Tracer.install` finds every binding of each boundary function
by identity across the loaded ``opdiscord`` modules and replaces it with
one shared wrapper.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, item, info]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``item`` the benchmark item
that caused it, and ``info`` a small count taken from the result (LP
pivots, Nelder-Mead evaluations, ...).  Spans stay in memory until
:func:`write_spans` runs at the end of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# boundary function -> (module it is fetched from, layer)
BOUNDARIES = {
    "solve_lp": ("opdiscord.lp", "lp"),
    "maximal_distinguishable_pure_families": ("opdiscord.discrimination", "discrimination"),
    "are_perfectly_distinguishable": ("opdiscord.discrimination", "discrimination"),
    "min_error_discrimination": ("opdiscord.discrimination", "discrimination"),
    "discord": ("opdiscord.discord", "discord"),
    "is_null_discord": ("opdiscord.discord", "discord"),
    "find_fixed_point_basis": ("opdiscord.discord", "discord"),
    "check_vonneumann_fixed_point": ("opdiscord.discord", "discord"),
    "minimize": ("opdiscord.discord", "discord"),
    "quantum_discord_entropy": ("opdiscord.discord", "discord"),
    "theorem3_report": ("opdiscord.simpliciality", "simpliciality"),
    "find_witness": ("opdiscord.simpliciality", "simpliciality"),
    "certified_discord_lower_bound": ("opdiscord.simpliciality", "simpliciality"),
    "load_json": ("opdiscord.serialize", "serialize"),
    "theory_from_obj": ("opdiscord.serialize", "serialize"),
    "state_from_obj": ("opdiscord.serialize", "serialize"),
    "dumps": ("opdiscord.serialize", "serialize"),
    "discord_result_to_obj": ("opdiscord.serialize", "serialize"),
    "decomposition_to_obj": ("opdiscord.serialize", "serialize"),
    "basis_to_obj": ("opdiscord.serialize", "serialize"),
    "main": ("opdiscord.cli", "cli"),
    "make_classical": ("opdiscord.theory", "theory"),
    "make_polygon": ("opdiscord.theory", "theory"),
    "make_gbit": ("opdiscord.theory", "theory"),
    "make_quantum": ("opdiscord.theory", "theory"),
    "compose_theories": ("opdiscord.theory", "theory"),
}
ITEM = "item"
LAYERS = ("lp", "discrimination", "discord", "simpliciality", "serialize", "cli", "theory", "bench")
LAYER_OF = {name: layer for name, (_, layer) in BOUNDARIES.items()} | {ITEM: "bench"}

# ``dumps`` recurses through its own module global; only the calls made
# into it from other modules are boundaries.
ENTRY_ONLY = {"dumps"}

# Bindings each wrapper must reach: a call through any of them would
# otherwise escape the trace.
REQUIRED_BINDINGS = {
    "solve_lp": ("opdiscord.lp", "opdiscord.discord", "opdiscord.discrimination"),
    "are_perfectly_distinguishable": ("opdiscord.discrimination", "opdiscord.discord"),
    "discord": ("opdiscord.simpliciality", "opdiscord.cli"),
    "find_fixed_point_basis": ("opdiscord.discord", "opdiscord.cli"),
    "minimize": ("opdiscord.discord",),
}

INFO = {
    "solve_lp": lambda r: (r.iterations, r.status != "optimal"),
    "minimize": lambda r: int(r.nfev),
    "discord": lambda r: int(r.outer_evaluations),
    "find_fixed_point_basis": lambda r: r is not None,
    "are_perfectly_distinguishable": lambda r: bool(r.distinguishable),
}


class Tracer:
    """Wraps every boundary binding while installed and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self.patched: list[tuple[object, str, object, str]] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        info_of = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info_of is not None:
                span[5] = info_of(result)
            return result

        return traced

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        homes = {home: importlib.import_module(home) for home, _ in BOUNDARIES.values()}
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "opdiscord" or key.startswith("opdiscord."))
        ]
        for name, (home, _) in BOUNDARIES.items():
            home_mod = homes[home]
            original = getattr(home_mod, name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if name in ENTRY_ONLY and mod is home_mod:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.patched.append((mod, attr, original, name))
                        setattr(mod, attr, wrapper)
        missing = [
            f"{mod}.{name}"
            for name, mods in REQUIRED_BINDINGS.items()
            for mod in mods
            if mod not in self.bindings(name)
        ]
        if missing:
            self.uninstall()
            raise RuntimeError(f"boundary bindings not reached: {missing}")

    def uninstall(self) -> None:
        for mod, attr, original, _ in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    def bindings(self, name: str) -> set[str]:
        """Modules whose binding of boundary ``name`` is wrapped."""
        return {mod.__name__ for mod, _, _, boundary in self.patched if boundary == name}

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def item_span(self, item: int):
        """Root span of one benchmark item; its self time is benchmark glue."""
        self.item = item
        span = [ITEM, perf_counter(), 0.0, -1, item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self.item = None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _inclusive(spans, *names: str) -> float:
    """Time in spans named ``names``, not counting those nested in another."""
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def item_counts(spans: list[list]) -> dict[int, tuple[int, int, int, int]]:
    """Per item: (LP pivots, fixed-point candidates, Nelder-Mead evaluations,
    discord outer evaluations).  These must repeat exactly for one input."""
    out: dict[int, list[int]] = {}
    for name, _, _, _, item, info in spans:
        row = out.setdefault(item, [0, 0, 0, 0])
        if name == "solve_lp" and info is not None:
            row[0] += info[0]
        elif name == "check_vonneumann_fixed_point":
            row[1] += 1
        elif name == "minimize" and info is not None:
            row[2] += info
        elif name == "discord" and info is not None:
            row[3] += info
    return {k: tuple(v) for k, v in out.items()}


# per-layer metric -> unit; the order is the report order
LAYER_METRICS = {
    "lp.calls": "count",
    "lp.pivots": "count",
    "lp.time_s": "s",
    "lp.nonoptimal": "count",
    "discrimination.families.calls": "count",
    "discrimination.families.time_s": "s",
    "discrimination.distinguishability.calls": "count",
    "discrimination.distinguishability.hit_ratio": "ratio",
    "discrimination.min_error.time_s": "s",
    "discord.fixed_point.calls": "count",
    "discord.fixed_point.time_s": "s",
    "discord.fixed_point.candidates": "count",
    "discord.fixed_point.hit_ratio": "ratio",
    "discord.refine.calls": "count",
    "discord.refine.nfev": "count",
    "discord.refine.time_s": "s",
    "discord.grid.self_s": "s",
    "discord.evaluations": "count",
    "discord.entropy.time_s": "s",
    "simpliciality.certified.time_s": "s",
    "simpliciality.witness.discord_calls": "count",
    "simpliciality.witness.time_s": "s",
    "serialize.load.time_s": "s",
    "serialize.dump.time_s": "s",
    "cli.fixed_point_per_null_check": "ratio",
    "theory.setup.time_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    "trace.accounted_share": "ratio",
    "trace.spans": "count",
}


def layer_metrics(
    spans: list[list],
    setup_spans: list[list],
    traced_wall: float,
    untraced_wall: float,
    null_check_items: set[int],
) -> dict[str, float]:
    """Per-layer figures of one traced run.

    ``spans`` come from the traced items, ``setup_spans`` from building the
    workload's theories in this process, and ``null_check_items`` are the
    items that ran CLI ``null-check`` on a quantum state.
    """
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, selfs):
        layer_self[LAYER_OF[s[0]]] += t

    def calls(name):
        return len(by_name.get(name, ()))

    def infos(name):
        return [s[5] for s in by_name.get(name, ()) if s[5] is not None]

    lp = infos("solve_lp")
    hits_pd = infos("are_perfectly_distinguishable")
    hits_fp = infos("find_fixed_point_basis")
    witness_discords = sum(
        1 for s in by_name.get("discord", ()) if s[3] >= 0 and spans[s[3]][0] == "find_witness"
    )
    null_fp = sum(1 for s in by_name.get("find_fixed_point_basis", ()) if s[4] in null_check_items)
    grid_self = sum(t for s, t in zip(spans, selfs) if s[0] == "discord")
    theory_names = [n for n, (_, layer) in BOUNDARIES.items() if layer == "theory"]
    return {
        "lp.calls": calls("solve_lp"),
        "lp.pivots": sum(p for p, _ in lp),
        "lp.time_s": _inclusive(spans, "solve_lp"),
        "lp.nonoptimal": sum(1 for _, bad in lp if bad),
        "discrimination.families.calls": calls("maximal_distinguishable_pure_families"),
        "discrimination.families.time_s": _inclusive(spans, "maximal_distinguishable_pure_families"),
        "discrimination.distinguishability.calls": calls("are_perfectly_distinguishable"),
        "discrimination.distinguishability.hit_ratio": _ratio(sum(hits_pd), len(hits_pd)),
        "discrimination.min_error.time_s": _inclusive(spans, "min_error_discrimination"),
        "discord.fixed_point.calls": calls("find_fixed_point_basis"),
        "discord.fixed_point.time_s": _inclusive(spans, "find_fixed_point_basis"),
        "discord.fixed_point.candidates": calls("check_vonneumann_fixed_point"),
        "discord.fixed_point.hit_ratio": _ratio(sum(hits_fp), len(hits_fp)),
        "discord.refine.calls": calls("minimize"),
        "discord.refine.nfev": sum(infos("minimize")),
        "discord.refine.time_s": _inclusive(spans, "minimize"),
        "discord.grid.self_s": grid_self,
        "discord.evaluations": sum(infos("discord")),
        "discord.entropy.time_s": _inclusive(spans, "quantum_discord_entropy"),
        "simpliciality.certified.time_s": _inclusive(spans, "certified_discord_lower_bound"),
        "simpliciality.witness.discord_calls": witness_discords,
        "simpliciality.witness.time_s": _inclusive(spans, "find_witness"),
        "serialize.load.time_s": _inclusive(spans, "load_json", "theory_from_obj", "state_from_obj"),
        "serialize.dump.time_s": _inclusive(
            spans, "dumps", "discord_result_to_obj", "decomposition_to_obj", "basis_to_obj"
        ),
        "cli.fixed_point_per_null_check": _ratio(null_fp, len(null_check_items)),
        "theory.setup.time_s": _inclusive(setup_spans, *theory_names),
        **{f"self_s.{layer}": t for layer, t in layer_self.items()},
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead": _ratio(traced_wall, untraced_wall),
        "trace.accounted_share": _ratio(sum(selfs), traced_wall),
        "trace.spans": len(spans),
    }


def write_spans(path, spans: list[list]) -> None:
    """One JSON object per span: name, start, end, parent, item."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, item, _) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "item": item}) + "\n")
