"""Batch command-line interface.

Each subcommand runs the stages it names (plus whatever they depend
on) and writes its artifacts into the output directory. Exit codes:
0 success, 2 configuration problem, 3 data problem, 4 estimation
problem.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import __version__
from .config import (BUILTIN_MODELS, EDGE_FORMATS, ESTIMATORS, STAGES, config_from_dict,
                     read_config)
from .errors import ConfigError, DataError, EstimationError
from .pipeline import Pipeline

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", help="edge list (CSV or exported JSON)")
    p.add_argument("--attrs", help="node attribute CSV")
    p.add_argument("--format", dest="edge_format", choices=EDGE_FORMATS,
                   help="edge list format (default csv)")
    p.add_argument("--config", help="JSON run config; flags override it")
    p.add_argument("--out", help="output directory (default out)")
    p.add_argument("--seed", type=int, help="master RNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legnet",
        description="Directed weighted interaction-network analysis toolkit")
    parser.add_argument("--version", action="version",
                        version=f"legnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in (
            ("ingest", "load, validate, and re-emit the graph"),
            ("topology", "centrality scores and cohesion measures"),
            ("assort", "assortativity coefficients"),
            ("ergm", "fit edge-formation models"),
            ("sbm", "fit latent blockmodels over a Q range"),
            ("score", "agreement between communities and attributes"),
            ("report", "full pipeline with Markdown summary"),
            ("run", "run stages listed in a config file")):
        p = sub.add_parser(command, help=help_text)
        _add_common(p)
        if command in ("topology", "report", "run"):
            p.add_argument("--min-clique-size", type=int,
                           help="also list maximal cliques at or above this size")
        if command in ("ergm", "report", "run"):
            p.add_argument("--models",
                           help=f"comma list; built-ins {', '.join(BUILTIN_MODELS)}")
            p.add_argument("--estimator", choices=ESTIMATORS,
                           help="fitting method (default exact-dyad)")
        if command in ("sbm", "score", "report", "run"):
            p.add_argument("--q-range", help="community counts to scan, as A:B")
            p.add_argument("--restarts", type=int,
                           help="restarts per community count")
        if command in ("score", "report", "run"):
            p.add_argument("--against",
                           help="comma list of attribute columns to score against")
    return parser


# (config key, argparse destination) of the flags that set a key as given.
_FLAG_KEYS = (("edges", "edges"), ("attrs", "attrs"), ("format", "edge_format"),
              ("out", "out"), ("seed", "seed"), ("ergm_estimator", "estimator"),
              ("min_clique_size", "min_clique_size"))


def _build_config(args: argparse.Namespace):
    raw = read_config(args.config) if args.config else {}
    for key, dest in _FLAG_KEYS:
        if getattr(args, dest, None) is not None:
            raw[key] = getattr(args, dest)
    for key, flag in (("models", "models"), ("score_against", "against")):
        if (value := getattr(args, flag, None)) is not None:
            raw[key] = [name.strip() for name in value.split(",") if name.strip()]
            if not raw[key]:
                raise ConfigError(f"--{flag} names nothing: give a comma list of names")
    sbm_flags = {key: getattr(args, key) for key in ("q_range", "restarts")
                 if getattr(args, key, None) is not None}
    sbm_block = {} if raw.get("sbm") is None else raw["sbm"]
    if sbm_flags and isinstance(sbm_block, dict):  # else config_from_dict refuses it
        raw["sbm"] = {**sbm_block, **sbm_flags}
    if args.command == "report":
        raw["stages"] = list(STAGES)
    elif args.command != "run":
        raw["stages"] = [args.command]
    return config_from_dict(raw)


# NUL, the other C0 controls and every line break that str.splitlines
# knows, written as backslash escapes: each message is one line.
_ESCAPES = {c: chr(c).encode("unicode_escape").decode()
            for c in (*range(0x20), 0x85, 0x2028, 0x2029)}


def _say(line: str, file=None) -> None:
    """Print `line` escaped (_ESCAPES) to `file`, by default stderr."""
    print(line.translate(_ESCAPES), file=file or sys.stderr)


def main(argv=None) -> int:
    # What is alive now is mostly the imported modules, which live as long
    # as the process: keep them out of the collector's full passes. Once
    # per process, so that a later call does not freeze an earlier run's
    # leftovers.
    if not gc.get_freeze_count():
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        manifest = Pipeline(config).run()
    except ConfigError as exc:
        _say(f"config error: {exc}")
        return 2
    except DataError as exc:
        _say(f"data error: {exc}")
        return 3
    except EstimationError as exc:
        _say(f"estimation error: {exc}")
        return 4
    for notice in manifest["notices"]:
        _say(f"notice: {notice}")
    _say(f"wrote {len(manifest['outputs'])} files to {config.out_dir}", sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
