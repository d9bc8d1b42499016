"""Run configuration, validation, and the built-in ERGM model roster."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .attributes import AttributeTable
from .errors import ConfigError, DataError
from .ergm import (AbsDiff, Edges, ErgmSpec, ErgmTerm, McmleControl, Mutual,
                   NodeCovariate, NodeMatch)
from .graph import Graph
from .topology import CentralityReport

STAGES = ("ingest", "topology", "assort", "ergm", "sbm", "score", "report")
BUILTIN_MODELS = ("model1", "model2", "model3", "model4", "model5", "model6")
ESTIMATORS = ("exact-dyad", "mple", "mcmle")


@dataclass
class RunConfig:
    edges: str
    out_dir: str
    attrs: str | None = None
    edge_format: str = "csv"
    json_fields: dict[str, str] = field(default_factory=dict)
    party_reassignment: dict[str, str] = field(default_factory=dict)
    models: list[Any] = field(default_factory=lambda: list(BUILTIN_MODELS))
    ergm_estimator: str = "exact-dyad"
    mcmc: dict[str, Any] = field(default_factory=dict)
    q_range: tuple[int, int] = (1, 20)
    sbm_restarts: int = 10
    sbm_init: str = "spectral"
    score_against: list[str] = field(default_factory=lambda: ["party", "chamber"])
    seed: int = 0
    threads: int | None = None  # accepted for old configs; ignored
    stages: list[str] = field(default_factory=lambda: list(STAGES))
    weighted_spectral: bool = False
    standardize: bool = False
    min_clique_size: int | None = None

    def validate(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.threads is not None and (not isinstance(self.threads, int)
                                         or self.threads < 1):
            raise ConfigError(f"threads must be a positive integer, got {self.threads!r}")
        if self.edge_format not in ("csv", "upstream-json"):
            raise ConfigError(f"unknown edge format {self.edge_format!r}")
        if self.ergm_estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.ergm_estimator!r}; "
                              f"choose from {ESTIMATORS}")
        if self.sbm_init not in ("spectral", "random"):
            raise ConfigError(f"unknown SBM init {self.sbm_init!r}")
        lo, hi = self.q_range
        if not (isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi):
            raise ConfigError(f"bad Q range {self.q_range!r}")
        if self.sbm_restarts < 1:
            raise ConfigError("restarts must be >= 1")
        for stage in self.stages:
            if stage not in STAGES:
                raise ConfigError(f"unknown stage {stage!r}; choose from {STAGES}")
        for model in self.models:
            if isinstance(model, str):
                if model not in BUILTIN_MODELS:
                    raise ConfigError(f"unknown model {model!r}; "
                                      f"built-ins are {BUILTIN_MODELS}")
            elif not isinstance(model, (list, dict)):
                raise ConfigError(f"model entry must be a name or term list, "
                                  f"got {type(model).__name__}")
        if not self.edges:
            raise ConfigError("edge list path is required")
        for name in ("json_fields", "party_reassignment"):
            value = getattr(self, name)
            if not (isinstance(value, Mapping) and all(
                    isinstance(k, str) and isinstance(v, str) for k, v in value.items())):
                raise ConfigError(f"'{name}' must be an object of string keys and "
                                  f"string values, got {value!r}")
        _validate_mcmc(self.mcmc)


def _validate_mcmc(mcmc: Any) -> None:
    """Check the `mcmc` block's keys and value types; McmleControl checks ranges."""
    if not isinstance(mcmc, Mapping):
        raise ConfigError("'mcmc' must be an object")
    defaults = {f.name: f.default for f in fields(McmleControl)}
    for key, value in mcmc.items():
        if str(key).startswith("bridge"):
            raise ConfigError(f"mcmc key {key!r} was removed: the MCMLE log-likelihood "
                              f"is the exact dyad sum, with no bridge sampling")
        if key not in defaults:
            raise ConfigError(f"unknown mcmc key {key!r}; valid keys are {sorted(defaults)}")
        kind = type(defaults[key])  # int or float; an int is a valid float
        if isinstance(value, bool) or not isinstance(value, (kind, int)):
            raise ConfigError(f"mcmc {key} must be of type {kind.__name__}, got {value!r}")
    McmleControl(**mcmc)


_CONFIG_KEYS = {
    "edges", "attrs", "format", "json_fields", "party_reassignment", "models",
    "ergm_estimator", "mcmc", "sbm", "score_against", "seed", "threads", "out",
    "stages", "weighted_spectral", "standardize", "min_clique_size",
}


def read_config(path: str | Path) -> dict[str, Any]:
    """The JSON object in a run configuration file, not yet validated."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    return config_from_dict(read_config(path))


def config_from_dict(raw: Mapping[str, Any]) -> RunConfig:
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sbm_block = raw.get("sbm")
    if sbm_block is None:
        sbm_block = {}
    if not isinstance(sbm_block, Mapping):
        raise ConfigError("'sbm' must be an object")
    q_range = sbm_block.get("q_range", [1, 20])
    if isinstance(q_range, str):
        q_range = parse_q_range(q_range)
    if not (isinstance(q_range, (list, tuple)) and len(q_range) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in q_range)):
        raise ConfigError(f"bad Q range {q_range!r}")
    config = RunConfig(
        edges=raw.get("edges", ""),
        attrs=raw.get("attrs"),
        edge_format=raw.get("format", "csv"),
        json_fields=raw.get("json_fields") or {},
        party_reassignment=raw.get("party_reassignment") or {},
        models=list(raw.get("models", list(BUILTIN_MODELS))),
        ergm_estimator=raw.get("ergm_estimator", "exact-dyad"),
        mcmc=raw.get("mcmc") or {},
        q_range=(int(q_range[0]), int(q_range[1])),
        sbm_restarts=sbm_block.get("restarts", 10),
        sbm_init=sbm_block.get("init", "spectral"),
        score_against=list(raw.get("score_against", ["party", "chamber"])),
        seed=raw.get("seed", 0),
        threads=raw.get("threads"),
        out_dir=raw.get("out", "out"),
        stages=list(raw.get("stages", list(STAGES))),
        weighted_spectral=bool(raw.get("weighted_spectral", False)),
        standardize=bool(raw.get("standardize", False)),
        min_clique_size=raw.get("min_clique_size"),
    )
    config.validate()
    return config


def parse_q_range(text: str) -> tuple[int, int]:
    """Parse the 'A:B' command-line form."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"Q range must look like A:B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"Q range must be integers, got {text!r}") from None
    return lo, hi


# -- covariate resolution and the roster ---------------------------------------

_CENTRALITY_ROLES = {
    "in_degree": "receiver",
    "out_degree": "sender",
    "out_strength": "sender",
    "hub": "sender",
    "closeness": "sum",
    "betweenness": "sum",
    "eigen": "sum",
    "authority": "sum",
}


def _resolve_values(name: str, attrs: AttributeTable | None,
                    centrality: CentralityReport | None) -> np.ndarray:
    if centrality is not None and name in _CENTRALITY_ROLES:
        return np.asarray(centrality.metric(name), dtype=np.float64)
    if attrs is not None and name in attrs.numeric_columns:
        return attrs.numeric(name)
    raise DataError(f"no covariate source for {name!r} "
                    f"(not a centrality metric or loaded numeric attribute)")


def _covariate(name: str, role: str, attrs, centrality,
               standardize: bool) -> NodeCovariate:
    values = _resolve_values(name, attrs, centrality)
    if standardize:
        sd = values.std()
        values = (values - values.mean()) / sd if sd > 0 else values - values.mean()
    return NodeCovariate(name, tuple(values), role)


def _differential_matches(attrs: AttributeTable, column: str) -> list[NodeMatch]:
    labels = attrs.categorical(column)
    return [NodeMatch(column, labels, level=lvl) for lvl in sorted(set(labels))]


def build_model(name: str, graph: Graph, attrs: AttributeTable | None,
                centrality: CentralityReport | None,
                party_reassignment: Mapping[str, str] | None = None,
                standardize: bool = False) -> ErgmSpec:
    """Materialize one of the built-in model specifications.

    model1/2 are edge/reciprocity baselines; model3 adds the structural
    score covariates; model4 is nodal attributes only (raw party, which
    exhibits separation on sparse levels); model5 mixes structure with
    age/tenure; model6 mixes structure with per-level party and chamber
    homophily, with the configured party reassignment applied first.
    """
    if name not in BUILTIN_MODELS:
        raise ConfigError(f"unknown model {name!r}")
    if name == "model1":
        return ErgmSpec([Edges()])
    if name == "model2":
        return ErgmSpec([Edges(), Mutual()])

    def cov(metric: str) -> NodeCovariate:
        return _covariate(metric, _CENTRALITY_ROLES[metric], attrs, centrality,
                          standardize)

    if name == "model3":
        if centrality is None:
            raise DataError("model3 needs centrality covariates")
        return ErgmSpec([Edges(), Mutual(),
                         cov("in_degree"), cov("out_degree"), cov("out_strength"),
                         cov("closeness"), cov("betweenness"), cov("eigen"),
                         cov("hub"), cov("authority")])
    if attrs is None:
        raise DataError(f"{name} needs the attribute table")
    if name == "model4":
        terms: list[ErgmTerm] = [Edges(),
                                 _covariate("age", "sum", attrs, None, standardize),
                                 _covariate("tenure", "sum", attrs, None, standardize)]
        for column in ("party", "race", "ethnicity", "religion", "sex",
                       "chamber", "lgbtq"):
            attrs.require(column)
            terms.extend(_differential_matches(attrs, column))
        return ErgmSpec(terms)
    if centrality is None:
        raise DataError(f"{name} needs centrality covariates")
    if name == "model5":
        return ErgmSpec([Edges(), Mutual(),
                         cov("in_degree"), cov("out_degree"),
                         cov("closeness"), cov("betweenness"), cov("hub"),
                         _covariate("age", "sum", attrs, None, standardize),
                         _covariate("tenure", "sum", attrs, None, standardize)])
    # model6
    table = attrs
    if party_reassignment:
        table = table.reassign_party(party_reassignment)
    table.require("chamber")
    return ErgmSpec([Edges(), Mutual(),
                     cov("in_degree"), cov("out_degree"),
                     cov("closeness"), cov("betweenness"), cov("hub")]
                    + _differential_matches(table, "party")
                    + _differential_matches(table, "chamber"))


_MODEL_ATTR_NEEDS = {"model1": False, "model2": False, "model3": False,
                     "model4": True, "model5": True, "model6": True}


def model_needs_attrs(name: str) -> bool:
    return _MODEL_ATTR_NEEDS.get(name, True)


def model_needs_centrality(entry: Any) -> bool:
    if isinstance(entry, str):
        return entry in ("model3", "model5", "model6")
    terms = entry["terms"] if isinstance(entry, dict) else entry
    return any(t.get("term") == "covariate" and t.get("attribute") in _CENTRALITY_ROLES
               for t in terms if isinstance(t, dict))


def spec_from_terms(terms: Sequence[Mapping[str, Any]], attrs, centrality,
                    standardize: bool = False) -> ErgmSpec:
    """Build a spec from JSON term descriptions.

    Term forms: {"term": "edges"}, {"term": "mutual"},
    {"term": "covariate", "attribute": NAME, "role": ROLE},
    {"term": "match", "attribute": NAME, "level": LEVEL-or-null},
    {"term": "absdiff", "attribute": NAME}.
    """
    built: list[ErgmTerm] = []
    for entry in terms:
        kind = entry.get("term")
        if kind == "edges":
            built.append(Edges())
        elif kind == "mutual":
            built.append(Mutual())
        elif kind == "covariate":
            name = entry.get("attribute", "")
            role = entry.get("role") or _CENTRALITY_ROLES.get(name, "sum")
            built.append(_covariate(name, role, attrs, centrality, standardize))
        elif kind == "match":
            name = entry.get("attribute", "")
            if attrs is None:
                raise DataError(f"match term {name!r} needs the attribute table")
            built.append(NodeMatch(name, attrs.categorical(name),
                                   level=entry.get("level")))
        elif kind == "absdiff":
            name = entry.get("attribute", "")
            built.append(AbsDiff(name, tuple(_resolve_values(name, attrs, centrality))))
        else:
            raise ConfigError(f"unknown term kind {kind!r}")
    return ErgmSpec(built)
