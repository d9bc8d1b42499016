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
from .ergm.terms import COVARIATE_ROLES
from .graph import Graph
from .topology import CentralityReport

STAGES = ("ingest", "topology", "assort", "ergm", "sbm", "score", "report")
ESTIMATORS = ("exact-dyad", "mple", "mcmle")
TERM_KINDS = ("edges", "mutual", "covariate", "match", "absdiff")
_ATTRIBUTE_KINDS = ("covariate", "match", "absdiff")  # kinds that name an attribute

# Roster-only match level: one differential match per level of the column.
_EVERY_LEVEL = object()


def _covariates(*names: str) -> list[dict[str, Any]]:
    return [{"term": "covariate", "attribute": name} for name in names]


def _matches(*columns: str) -> list[dict[str, Any]]:
    return [{"term": "match", "attribute": c, "level": _EVERY_LEVEL} for c in columns]


_EDGES, _MUTUAL = {"term": "edges"}, {"term": "mutual"}
_STRUCTURE = _covariates("in_degree", "out_degree", "closeness", "betweenness", "hub")
# The built-in models, in the term vocabulary of `spec_from_terms`.
_ROSTER: dict[str, list[dict[str, Any]]] = {
    "model1": [_EDGES],
    "model2": [_EDGES, _MUTUAL],
    "model3": [_EDGES, _MUTUAL, *_covariates(
        "in_degree", "out_degree", "out_strength", "closeness", "betweenness",
        "eigen", "hub", "authority")],
    "model4": [_EDGES, *_covariates("age", "tenure"), *_matches(
        "party", "race", "ethnicity", "religion", "sex", "chamber", "lgbtq")],
    "model5": [_EDGES, _MUTUAL, *_STRUCTURE, *_covariates("age", "tenure")],
    "model6": [_EDGES, _MUTUAL, *_STRUCTURE, *_matches("party", "chamber")],
}
BUILTIN_MODELS = tuple(_ROSTER)


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
            _validate_model(model)
        if not self.edges:
            raise ConfigError("edge list path is required")
        for name in ("json_fields", "party_reassignment"):
            value = getattr(self, name)
            if not (isinstance(value, Mapping) and all(
                    isinstance(k, str) and isinstance(v, str) for k, v in value.items())):
                raise ConfigError(f"'{name}' must be an object of string keys and "
                                  f"string values, got {value!r}")
        _validate_mcmc(self.mcmc)


def _validate_model(model: Any) -> None:
    """Check one `models` entry: a built-in name, a term list or {"name", "terms"}."""
    if isinstance(model, str):
        if model not in BUILTIN_MODELS:
            raise ConfigError(f"unknown model {model!r}; built-ins are {BUILTIN_MODELS}")
        return
    terms = model
    if isinstance(model, dict):
        terms = model.get("terms")
        if not isinstance(model.get("name", ""), str):
            raise ConfigError(f"model name must be a string, got {model['name']!r}")
    if not isinstance(terms, list):
        raise ConfigError(f"model entry must be a name, a term list or an object with "
                          f"a 'terms' list, got {model!r}")
    for term in terms:
        _check_term(term)


def _check_term(term: Any) -> None:
    """Raise ConfigError unless `term` is a well-formed term object."""
    kind = term.get("term") if isinstance(term, dict) else None
    if kind not in TERM_KINDS:
        raise ConfigError(f"unknown term kind in {term!r}; a term is an object "
                          f"whose 'term' is one of {TERM_KINDS}")
    attribute = term.get("attribute")
    if kind in _ATTRIBUTE_KINDS and not (
            isinstance(attribute, str) and attribute):
        raise ConfigError(f"{kind} term needs a non-empty string 'attribute', "
                          f"got {attribute!r}")
    if term.get("role") not in (None, *COVARIATE_ROLES):
        raise ConfigError(f"term role must be one of {COVARIATE_ROLES}, "
                          f"got {term['role']!r}")
    if not isinstance(term.get("level"), (str, type(None))):
        raise ConfigError(f"match level must be a string or null, "
                          f"got {term['level']!r}")


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


def build_model(name: str, graph: Graph, attrs: AttributeTable | None,
                centrality: CentralityReport | None,
                party_reassignment: Mapping[str, str] | None = None,
                standardize: bool = False) -> ErgmSpec:
    """Materialize a built-in model: its `_ROSTER` terms through `spec_from_terms`.

    model1/2 are edge/reciprocity baselines; model3 adds the structural
    score covariates; model4 is nodal attributes only (raw party, which
    exhibits separation on sparse levels); model5 mixes structure with
    age/tenure; model6 mixes structure with per-level party and chamber
    homophily, with the configured party reassignment applied first.
    A per-level homophily entry of the roster becomes one differential
    match term per level of its column, in sorted order.
    """
    if name not in _ROSTER:
        raise ConfigError(f"unknown model {name!r}")
    if attrs is None and model_needs_attrs(name):
        raise DataError(f"{name} needs the attribute table")
    if centrality is None and model_needs_centrality(name):
        raise DataError(f"{name} needs centrality covariates")
    if name == "model6" and party_reassignment:
        attrs = attrs.reassign_party(party_reassignment)
    terms: list[Mapping[str, Any]] = []
    for term in _ROSTER[name]:
        if term.get("level") is _EVERY_LEVEL:
            terms += [{**term, "level": level} for level in attrs.levels(term["attribute"])]
        else:
            terms.append(term)
    return spec_from_terms(terms, attrs, centrality, standardize)


def _model_terms(entry: Any) -> Sequence[Any]:
    """The terms of a model entry: a built-in name, a term list or {"terms": [...]}."""
    if isinstance(entry, str):
        return _ROSTER.get(entry, [])
    return entry.get("terms", []) if isinstance(entry, dict) else entry


def _reads_centrality(term: Any) -> bool:
    """Whether a term resolves a centrality score: covariate and absdiff alike."""
    return (isinstance(term, dict) and term.get("term") in ("covariate", "absdiff")
            and term.get("attribute") in _CENTRALITY_ROLES)


def model_needs_attrs(entry: Any) -> bool:
    """Whether some term of the model entry reads an attribute column."""
    return any(term.get("term") in _ATTRIBUTE_KINDS and not _reads_centrality(term)
               for term in _model_terms(entry))


def model_needs_centrality(entry: Any) -> bool:
    """Whether some term of the model entry reads a centrality score."""
    return any(_reads_centrality(term) for term in _model_terms(entry))


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
        _check_term(entry)
        kind, name = entry["term"], entry.get("attribute")
        if kind == "edges":
            built.append(Edges())
        elif kind == "mutual":
            built.append(Mutual())
        elif kind == "covariate":
            values = _resolve_values(name, attrs, centrality)
            if standardize:
                sd = values.std()
                values = (values - values.mean()) / sd if sd > 0 else values - values.mean()
            role = entry.get("role") or _CENTRALITY_ROLES.get(name, "sum")
            built.append(NodeCovariate(name, tuple(values), role))
        elif kind == "match":
            if attrs is None:
                raise DataError(f"match term {name!r} needs the attribute table")
            built.append(NodeMatch(name, attrs.categorical(name),
                                   level=entry.get("level")))
        else:
            built.append(AbsDiff(name, tuple(_resolve_values(name, attrs, centrality))))
    return ErgmSpec(built)
