"""Command-line interface.

Subcommands: ``distance``, ``discord``, ``null-check``, ``theorem3``.
Every report embeds a run manifest (command, inputs, config, seed,
version, timestamps; for ``theorem3`` also each row's wall time as
``row_runtime_ms``); apart from those wall-clock fields, identical
inputs produce byte-identical reports.

Exit codes: 0 success, 2 input validation, 3 resource budget,
4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

from . import __version__
from .config import SearchConfig
from .discord import discord, find_fixed_point_basis, is_null_discord
from .discrimination import min_error_discrimination
from .errors import (
    ConsistencyError,
    InvalidDimensionError,
    InvalidPolygonError,
    InvalidStateError,
    ResourceBudgetError,
    SystemMismatchError,
    UnsupportedBackendError,
)
from .serialize import (
    basis_to_obj,
    config_from_path,
    decomposition_to_obj,
    discord_result_to_obj,
    dumps,
    load_json,
    resolve_theory,
    state_from_obj,
    theory_from_obj,
)
from .simpliciality import theorem3_report, theorem3_rows_to_csv
from .theory import QUANTUM

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_CONSISTENCY = 4

_VALIDATION_ERRORS = (
    InvalidDimensionError,
    InvalidPolygonError,
    InvalidStateError,
    SystemMismatchError,
    UnsupportedBackendError,
    ValueError,
    KeyError,
    OSError,
)


def _manifest(command: str, inputs: list[str], config: SearchConfig, started: str) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "config": config.to_obj(),
        "seed": config.seed,
        "tool_version": __version__,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_theories(paths: list[str]) -> dict:
    loaded = {}
    for path in paths:
        theory = theory_from_obj(load_json(path))
        loaded[theory.name] = theory
    return loaded


def _resolve_config(args) -> SearchConfig:
    config = config_from_path(args.config) if args.config else SearchConfig()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def _cmd_distance(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    config = _resolve_config(args)
    loaded = _load_theories(args.theory)
    rho0 = state_from_obj(load_json(args.state0), loaded)
    rho1 = state_from_obj(load_json(args.state1), loaded)
    result = min_error_discrimination(rho0, rho1)
    report = {
        "distance": result.distance,
        "p_err": result.p_err,
        "optimal_effect": result.optimal_effect.coords,
        "manifest": _manifest("distance", [args.state0, args.state1], config, started),
    }
    _emit(dumps(report), args.out)
    return EXIT_OK


def _cmd_discord(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    config = _resolve_config(args)
    loaded = _load_theories(args.theory)
    rho = state_from_obj(load_json(args.state), loaded)
    result = discord(rho, config)
    report = discord_result_to_obj(result)
    report["manifest"] = _manifest("discord", [args.state], config, started)
    _emit(dumps(report), args.out)
    return EXIT_OK


def _cmd_null_check(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    config = _resolve_config(args)
    loaded = _load_theories(args.theory)
    rho = state_from_obj(load_json(args.state), loaded)
    verdict, decomp = is_null_discord(rho, config=config)
    report: dict = {"null_discord": verdict}
    if decomp is not None:
        report["decomposition"] = decomposition_to_obj(decomp)
    if rho.system.backend == QUANTUM:
        basis = find_fixed_point_basis(rho, config)
        if basis is not None:
            report["eq4_basis"] = basis_to_obj(basis)
    report["manifest"] = _manifest("null-check", [args.state], config, started)
    _emit(dumps(report), args.out)
    return EXIT_OK


def _cmd_theorem3(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    config = _resolve_config(args)
    loaded = _load_theories(args.theory)
    theories = [resolve_theory(name, loaded) for name in args.theories]
    rows = theorem3_report(theories, config)
    manifest = _manifest("theorem3", list(args.theories), config, started)
    # wall-clock, like the timestamps, so it stays out of the rows
    manifest["row_runtime_ms"] = [r.runtime_ms for r in rows]
    if args.format == "json":
        _emit(dumps({"rows": [r.fields() for r in rows], "manifest": manifest}), args.out)
    else:
        csv_text = theorem3_rows_to_csv(rows)
        csv_text += "# manifest: " + dumps(manifest).replace("\n", " ") + "\n"
        _emit(csv_text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opdiscord",
        description="Discord, discrimination and simpliciality for causal probabilistic theories.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--theory", action="append", default=[], help="custom theory JSON (repeatable)")
        p.add_argument("--config", default=None, help="SearchConfig JSON path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("distance", help="operational distance between two states")
    p.add_argument("state0")
    p.add_argument("state1")
    common(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("discord", help="discord of a bipartite state")
    p.add_argument("state")
    common(p)
    p.set_defaults(func=_cmd_discord)

    p = sub.add_parser("null-check", help="null-discord membership of a bipartite state")
    p.add_argument("state")
    common(p)
    p.set_defaults(func=_cmd_null_check)

    p = sub.add_parser("theorem3", help="simpliciality / witness report over theories")
    p.add_argument("theories", nargs="*", metavar="THEORY")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    common(p)
    p.set_defaults(func=_cmd_theorem3)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"error: resource budget exhausted: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except _VALIDATION_ERRORS as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
