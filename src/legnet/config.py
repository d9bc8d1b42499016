"""Run configuration, validation, and the built-in ERGM model roster."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .attributes import AttributeTable
from .errors import ConfigError, DataError, _shown, is_int_at_least
from .ergm import AbsDiff, Edges, ErgmSpec, ErgmTerm, Mutual, NodeCovariate, NodeMatch
from .ergm.terms import COVARIATE_ROLES
from .graph import Graph
from .topology import STRUCTURAL_METRICS, CentralityReport

STAGES = ("ingest", "topology", "assort", "ergm", "sbm", "score", "report")
ESTIMATORS = ("exact-dyad", "mple", "mcmle")
EDGE_FORMATS = ("csv", "upstream-json")
TERM_KINDS = ("edges", "mutual", "covariate", "match", "absdiff")
_ATTRIBUTE_KINDS = ("covariate", "match", "absdiff")  # kinds that name an attribute
# A model's name becomes part of its output file names (ergm_<name>.json).
_MODEL_NAME = re.compile(r"[A-Za-z0-9_.-]+")

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
    edges: str = ""
    out_dir: str = "out"
    attrs: str | None = None
    edge_format: str = "csv"
    party_reassignment: dict[str, str] = field(default_factory=dict)
    models: list[Any] = field(default_factory=lambda: list(BUILTIN_MODELS))
    ergm_estimator: str = "exact-dyad"
    mcmc_sample_size: int = 512
    q_range: tuple[int, int] = (1, 20)
    sbm_restarts: int = 10
    score_against: list[str] = field(default_factory=lambda: ["party", "chamber"])
    seed: int = 0
    stages: list[str] = field(default_factory=lambda: list(STAGES))
    weighted_spectral: bool = False
    standardize: bool = False
    min_clique_size: int | None = None

    def validate(self) -> None:
        """Raise ConfigError, naming the config key, unless every field is well-formed."""
        for key, (name, requirement, ok) in _SCHEMA.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{key} must be {requirement}, got {_shown(value)}")
        if "\0" in self.out_dir:  # no directory can be named by it
            raise ConfigError(f"out must not hold a NUL byte, got {self.out_dir!r}")
        names = Counter(_validate_model(model, index)
                        for index, model in enumerate(self.models, start=1))
        repeated = sorted(name for name, count in names.items() if count > 1)
        if repeated:
            raise ConfigError(f"model names must be unique, got {repeated} more than once")


def _int_at_least(low: int) -> Callable[[Any], bool]:
    return lambda v: is_int_at_least(v, low)


def _list_of(ok: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, (list, tuple)) and all(map(ok, v))


def _string_map(value: Any) -> bool:
    return isinstance(value, Mapping) and all(
        isinstance(x, str) for item in value.items() for x in item)


# The config schema: each JSON key (keys of a block written "BLOCK.KEY"),
# the RunConfig field it sets, and what the field must hold. The defaults
# are RunConfig's own: a key that is absent or null keeps it.
_SCHEMA: dict[str, tuple[str, str, Callable[[Any], bool]]] = {
    "edges": ("edges", "a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "out": ("out_dir", "a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "attrs": ("attrs", "a string or null", lambda v: v is None or isinstance(v, str)),
    "format": ("edge_format", f"one of {EDGE_FORMATS}", lambda v: v in EDGE_FORMATS),
    "party_reassignment": ("party_reassignment",
                           "an object of string keys and string values", _string_map),
    "models": ("models", "a list", _list_of(lambda model: True)),
    "ergm_estimator": ("ergm_estimator", f"one of {ESTIMATORS}", lambda v: v in ESTIMATORS),
    "mcmc.sample_size": ("mcmc_sample_size", "an integer >= 2", _int_at_least(2)),
    "sbm.q_range": ("q_range", "'A:B' or a pair [A, B] of integers, 1 <= A <= B", lambda v:
                    _list_of(_int_at_least(1))(v) and len(v) == 2 and v[0] <= v[1]),
    "sbm.restarts": ("sbm_restarts", "an integer >= 1", _int_at_least(1)),
    "score_against": ("score_against", "a list of strings",
                      _list_of(lambda column: isinstance(column, str))),
    "seed": ("seed", "an integer >= 0", _int_at_least(0)),
    "stages": ("stages", f"a list of stages from {STAGES}", _list_of(lambda s: s in STAGES)),
    "weighted_spectral": ("weighted_spectral", "true or false", lambda v: isinstance(v, bool)),
    "standardize": ("standardize", "true or false", lambda v: isinstance(v, bool)),
    "min_clique_size": ("min_clique_size", "an integer >= 1 or null",
                        lambda v: v is None or _int_at_least(1)(v)),
}

# Settings that no longer exist, and why; a config that sets one is refused.
_REMOVED = {
    "threads": "every kernel is single-threaded",
    "json_fields": "the upstream export is read by its own field names",
    "sbm.init": "restart 0 starts from the spectral labels and the others at random",
    "mcmc.seed": "the Monte-Carlo MLE is seeded with the run's seed",
    "mcmc.burnin": "the sampler draws each state exactly, with no burn-in",
    "mcmc.interval": "the sampler's draws are independent, with no thinning",
    **dict.fromkeys(("mcmc.max_phases", "mcmc.ee_tol", "mcmc.step_max", "mcmc.min_ess_frac"),
                    "the Monte-Carlo MLE's stopping and step rules are fixed"),
    **dict.fromkeys(("mcmc.bridges", "mcmc.bridge_sample_size", "mcmc.bridge_burnin"),
                    "the MCMLE log-likelihood is exact, with no bridge sampling"),
}
_KNOWN = {*_SCHEMA, *_REMOVED}
_TOP_LEVEL_KEYS = {key.partition(".")[0] for key in _KNOWN}
_BLOCKS = ("sbm", "mcmc")


def model_entry(entry: Any, index: int) -> tuple[Any, Any]:
    """(name, terms) of the index-th `models` entry (from 1): a built-in name,
    a term list or {"name": NAME, "terms": [...]}; a custom model without a
    name is "custom<index>". Neither is checked here."""
    if isinstance(entry, str):
        return entry, _ROSTER.get(entry)
    if isinstance(entry, dict):
        return entry.get("name", f"custom{index}"), entry.get("terms")
    return f"custom{index}", entry


def _validate_model(model: Any, index: int) -> str:
    """Check the index-th `models` entry, and return its name."""
    name, terms = model_entry(model, index)
    if isinstance(model, str):
        if terms is None:
            raise ConfigError(f"unknown model {model!r}; built-ins are {BUILTIN_MODELS}")
        return name
    if not (isinstance(name, str) and _MODEL_NAME.fullmatch(name)):
        raise ConfigError(f"model name must be a non-empty string of letters, digits, "
                          f"'_', '.' and '-', got {name!r}")
    if not isinstance(terms, list):
        raise ConfigError(f"model entry must be a name, a term list or an object with "
                          f"a 'terms' list, got {model!r}")
    for term in terms:
        _check_term(term)
    return name


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


def read_config(path: str | Path) -> dict[str, Any]:
    """The JSON object in a run configuration file, not yet validated."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:  # undecodable, or a NUL byte in the name
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    return config_from_dict(read_config(path))


def config_from_dict(raw: Mapping[str, Any]) -> RunConfig:
    """Build and validate the RunConfig a JSON config object describes.

    Each key sets the field `_SCHEMA` maps it to, the keys of the `sbm`
    and `mcmc` blocks read as "sbm.KEY" and "mcmc.KEY"; a key that is
    absent or null keeps RunConfig's default, and a null block keeps all
    of its keys' defaults. `sbm.q_range` may be written 'A:B'.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be a JSON object")
    keys = {str(k): v for k, v in raw.items() if k not in _BLOCKS}
    for name in _BLOCKS:
        block = {} if raw.get(name) is None else raw[name]
        if not isinstance(block, Mapping):
            raise ConfigError(f"{name} must be an object, got {block!r}")
        keys.update({f"{name}.{k}": v for k, v in block.items()})
    unknown = sorted(({str(k) for k in raw} - _TOP_LEVEL_KEYS) | (keys.keys() - _KNOWN))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    for key in keys:
        if key in _REMOVED:
            raise ConfigError(f"config key {key!r} was removed: {_REMOVED[key]}")
    settings = {_SCHEMA[k][0]: v for k, v in keys.items() if v is not None}
    q_range = settings.get("q_range")
    if isinstance(q_range, str):
        settings["q_range"] = parse_q_range(q_range)
    elif isinstance(q_range, list):
        settings["q_range"] = tuple(q_range)
    config = RunConfig(**settings)
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

def _resolve_values(name: str, attrs: AttributeTable | None,
                    centrality: CentralityReport | None) -> np.ndarray:
    if centrality is not None and name in STRUCTURAL_METRICS:
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


def _reads_centrality(term: Any) -> bool:
    """Whether a term resolves a centrality score: covariate and absdiff alike."""
    return (isinstance(term, dict) and term.get("term") in ("covariate", "absdiff")
            and term.get("attribute") in STRUCTURAL_METRICS)


def model_needs_attrs(entry: Any) -> bool:
    """Whether some term of the model entry reads an attribute column."""
    return any(term.get("term") in _ATTRIBUTE_KINDS and not _reads_centrality(term)
               for term in model_entry(entry, 0)[1] or ())


def model_needs_centrality(entry: Any) -> bool:
    """Whether some term of the model entry reads a centrality score."""
    return any(_reads_centrality(term) for term in model_entry(entry, 0)[1] or ())


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
            role = entry.get("role") or STRUCTURAL_METRICS.get(name, "sum")
            built.append(NodeCovariate(name, tuple(values), role))
        elif kind == "match":
            if attrs is None:
                raise DataError(f"match term {name!r} needs the attribute table")
            built.append(NodeMatch(name, attrs.categorical(name),
                                   level=entry.get("level")))
        else:
            built.append(AbsDiff(name, tuple(_resolve_values(name, attrs, centrality))))
    return ErgmSpec(built)
