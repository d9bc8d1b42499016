"""Configuration parsing and the built-in model roster."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from legnet import (ConfigError, DataError, build_model, config_from_dict,
                    parse_q_range, spec_from_terms)
from legnet.cli import _build_config, build_parser
from legnet.config import (BUILTIN_MODELS, STAGES, RunConfig, model_entry,
                           model_needs_attrs, model_needs_centrality, read_config)

from conftest import toy_tables


@pytest.fixture(scope="module")
def toy():
    import csv
    import io

    import legnet
    edges, rows = toy_tables()
    graph = legnet.Graph(edges)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    attrs = legnet.load_attributes(io.StringIO(buf.getvalue()), graph)
    return graph, attrs, legnet.centrality_report(graph)


def test_parse_q_range():
    assert parse_q_range("2:14") == (2, 14)
    assert parse_q_range("1:1") == (1, 1)
    with pytest.raises(ConfigError):
        parse_q_range("2-14")
    with pytest.raises(ConfigError):
        parse_q_range("2:x")
    with pytest.raises(ConfigError):
        parse_q_range("1:2:3")


def test_minimal_dict_fills_defaults():
    cfg = config_from_dict({"edges": "e.csv"})
    assert cfg.edges == "e.csv"
    assert cfg.out_dir == "out"
    assert cfg.q_range == (1, 20)
    assert cfg.sbm_restarts == 10
    assert cfg.models == list(BUILTIN_MODELS)
    assert cfg.stages == list(STAGES)
    assert cfg.score_against == ["party", "chamber"]
    assert cfg.ergm_estimator == "exact-dyad"


def test_sbm_block_and_string_q_range():
    cfg = config_from_dict({"edges": "e.csv", "sbm": {"q_range": "2:8", "restarts": 3}})
    assert cfg.q_range == (2, 8)
    assert cfg.sbm_restarts == 3


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"edges": "e.csv", "qrange": "1:4"})


@pytest.mark.parametrize("raw", [
    {"edges": ""},
    {"edges": "e.csv", "seed": -1},
    {"edges": "e.csv", "seed": True},
    {"edges": "e.csv", "threads": 0},
    {"edges": "e.csv", "format": "parquet"},
    {"edges": "e.csv", "ergm_estimator": "saddlepoint"},
    {"edges": "e.csv", "sbm": {"q_range": [0, 4]}},
    {"edges": "e.csv", "sbm": {"q_range": [5, 2]}},
    {"edges": "e.csv", "sbm": {"q_range": [True, 4]}},
    {"edges": "e.csv", "sbm": {"restarts": 0}},
    {"edges": "e.csv", "sbm": {"init": "kmeans"}},
    {"edges": "e.csv", "sbm": []},
    {"edges": "e.csv", "stages": ["topology", "plot"]},
    {"edges": "e.csv", "models": ["model9"]},
    {"edges": "e.csv", "models": [42]},
    {"edges": "e.csv", "mcmc": [1]},
    {"edges": "e.csv", "mcmc": {"sample_size": True}},
    {"edges": "e.csv", "mcmc": {"bridge_burnin": 100}},
    {"edges": "e.csv", "json_fields": [1]},
    {"edges": "e.csv", "json_fields": {"nodes": 3}},
    {"edges": "e.csv", "party_reassignment": "ab"},
    {"edges": "e.csv", "party_reassignment": {"alice": None}},
    # malformed custom model entries
    {"edges": "e.csv", "models": [{"name": "x"}]},
    {"edges": "e.csv", "models": [["edges"]]},
    {"edges": "e.csv", "models": [{"name": "y", "terms": "edges"}]},
    {"edges": "e.csv", "models": [{"name": 5, "terms": [{"term": "edges"}]}]},
    {"edges": "e.csv", "models": [[{"term": "triangles"}]]},
    {"edges": "e.csv", "models": [[{"attribute": "age"}]]},
    {"edges": "e.csv", "models": [[{"term": "covariate"}]]},
    {"edges": "e.csv", "models": [[{"term": "absdiff", "attribute": ""}]]},
    {"edges": "e.csv", "models": [[{"term": "match", "attribute": 3}]]},
    {"edges": "e.csv", "models": [[{"term": "covariate", "attribute": "age",
                                    "role": "both"}]]},
    {"edges": "e.csv", "models": [[{"term": "match", "attribute": "party",
                                    "level": 3}]]},
    # wrong types that used to end in a traceback
    {"edges": "e.csv", "min_clique_size": "3"},
    {"edges": "e.csv", "sbm": {"restarts": "2"}},
    {"edges": "e.csv", "sbm": {"restarts": 2.5}},
    {"edges": "e.csv", "score_against": 5},
    {"edges": 5},
    {"edges": "e.csv", "out": 5},
    # wrong types and keys that used to be coerced or ignored
    {"edges": "e.csv", "weighted_spectral": "no"},
    {"edges": "e.csv", "standardize": 1},
    {"edges": "e.csv", "score_against": "party"},
    {"edges": "e.csv", "sbm": {"restarts": True}},
    {"edges": "e.csv", "sbm": {"restart": 3}},
    {"edges": "e.csv", "json_fields": {"node": "users"}},
    {"edges": "e.csv", "min_clique_size": 0},
    {"edges": "e.csv", "attrs": 5},
    # removed settings
    {"edges": "e.csv", "threads": 2},
    {"edges": "e.csv", "mcmc": {"burnin": 200}},
    {"edges": "e.csv", "mcmc": {"interval": 5}},
    # model names that are not file names, or that repeat
    {"edges": "e.csv", "models": [{"name": None, "terms": [{"term": "edges"}]}]},
    {"edges": "e.csv", "models": [{"name": "two words", "terms": [{"term": "edges"}]}]},
    {"edges": "e.csv", "models": ["model1", "model1"]},
    # the removed json_fields, with or without the format it applied to
    {"edges": "e.csv", "json_fields": {"nodes": "x"}},
    {"edges": "e.csv", "format": "csv", "json_fields": {"targets": "out"}},
])
def test_invalid_configs_raise(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize("raw, message", [
    ({"edges": "e.csv", "sbm": {"restarts": "2"}}, "sbm.restarts must be an integer >= 1"),
    ({"edges": "e.csv", "out": 5}, "out must be a non-empty string, got 5"),
    ({"edges": "e.csv", "format": "xml"},
     "format must be one of ('csv', 'upstream-json'), got 'xml'"),
    ({"edges": "e.csv", "threads": 2}, "config key 'threads' was removed: "),
    ({"edges": "e.csv", "mcmc": {"burnin": 200}}, "config key 'mcmc.burnin' was removed: "),
    ({"edges": "e.csv", "mcmc": {"bridges": 4}}, "no bridge sampling"),
    ({"edges": "e.csv", "sbm": {"restart": 3}}, "unknown config keys: ['sbm.restart']"),
    ({"edges": "e.csv", "sbm.init": "random"}, "unknown config keys: ['sbm.init']"),
    ({"out": "o"}, "edges must be a non-empty string, got ''"),
    ({"edges": "e.json", "format": "upstream-json", "json_fields": {"nodes": "users"}},
     "config key 'json_fields' was removed: the upstream export is read by its own "
     "field names"),
    *[({"edges": "e.csv", "mcmc": {key: value}},
       f"config key 'mcmc.{key}' was removed: the Monte-Carlo MLE's stopping and step "
       "rules are fixed")
      for key, value in [("max_phases", 5), ("ee_tol", float("nan")), ("step_max", 0.5),
                         ("min_ess_frac", 0.1)]],
    ({"edges": "e.csv", "models": [{"name": "x/../../../escaped",
                                    "terms": [{"term": "edges"}]}]},
     "model name must be a non-empty string of letters, digits, '_', '.' and '-', "
     "got 'x/../../../escaped'"),
    ({"edges": "e.csv", "models": [{"name": "", "terms": [{"term": "edges"}]}]},
     "model name must be a non-empty string of letters, digits, '_', '.' and '-', got ''"),
    ({"edges": "e.csv", "models": ["model1", "model2",
                                   {"name": "model1", "terms": [{"term": "edges"}]}]},
     "model names must be unique, got ['model1'] more than once"),
    ({"edges": "e.csv", "models": [{"name": "custom2", "terms": [{"term": "edges"}]},
                                   [{"term": "mutual"}]]},
     "model names must be unique, got ['custom2'] more than once"),
    ({"edges": "e.csv", "mcmc": {"sample_size": 1}},
     "mcmc.sample_size must be an integer >= 2, got 1"),
    ({"edges": "e.csv", "mcmc": {"seed": 3}},
     "config key 'mcmc.seed' was removed: the Monte-Carlo MLE is seeded with the run's seed"),
    ({"edges": "e.csv", "sbm": {"init": "random"}},
     "config key 'sbm.init' was removed: restart 0 starts from the spectral labels"),
    ({"edges": "e.csv", "mcmc": {"bogus": 1}}, "unknown config keys: ['mcmc.bogus']"),
    ({"edges": "e.csv", "mcmc": {"sample_size": True}},
     "mcmc.sample_size must be an integer >= 2, got True"),
    ({"edges": "e.csv", "mcmc": 5}, "mcmc must be an object, got 5"),
    ({"edges": "e.csv", "stages": []}, "stages must be a non-empty list of stages from ("),
])
def test_config_errors_name_the_key(raw, message):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert message in str(exc.value)


def test_model_entry_reads_each_form():
    terms = [{"term": "edges"}]
    assert model_entry("model2", 1) == ("model2", [{"term": "edges"}, {"term": "mutual"}])
    assert model_entry(terms, 3) == ("custom3", terms)
    assert model_entry({"terms": terms}, 4) == ("custom4", terms)
    assert model_entry({"name": "m-1.b", "terms": terms}, 5) == ("m-1.b", terms)
    cfg = config_from_dict({"edges": "e.csv", "models": [
        "model1", {"name": "m-1.b_2", "terms": terms}, terms, {"terms": terms}]})
    assert [model_entry(m, i)[0] for i, m in enumerate(cfg.models, start=1)] == [
        "model1", "m-1.b_2", "custom3", "custom4"]


def test_null_means_the_default_for_every_key():
    keys = ["attrs", "format", "party_reassignment", "models",
            "ergm_estimator", "mcmc", "sbm", "score_against", "seed", "out",
            "stages", "weighted_spectral", "standardize", "min_clique_size"]
    default = config_from_dict({"edges": "e.csv"})
    assert config_from_dict({"edges": "e.csv", **dict.fromkeys(keys)}) == default
    sbm_nulls = {"q_range": None, "restarts": None}
    assert config_from_dict({"edges": "e.csv", "sbm": sbm_nulls}) == default
    mcmc_nulls = {"sample_size": None}
    assert config_from_dict({"edges": "e.csv", "mcmc": mcmc_nulls}) == default
    assert default.mcmc_sample_size == 512
    with pytest.raises(ConfigError, match="edges must be"):
        config_from_dict({"edges": None})


def test_library_callers_get_the_same_checks():
    with pytest.raises(ConfigError, match="weighted_spectral must be true or false"):
        RunConfig(edges="e.csv", weighted_spectral="no").validate()
    with pytest.raises(ConfigError, match="mcmc.sample_size must be an integer >= 2, got 1"):
        RunConfig(edges="e.csv", mcmc_sample_size=1).validate()
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got 1.0"):
        RunConfig(edges="e.csv", seed=1.0).validate()
    # the rule of SimControl and McmleControl: a numpy integer counts
    RunConfig(edges="e.csv", seed=np.int64(7), mcmc_sample_size=np.int32(4)).validate()


# Every field's default, as config_from_dict has always filled it in.
DEFAULTS = {
    "edges": "", "out_dir": "out", "attrs": None, "edge_format": "csv",
    "party_reassignment": {}, "models": list(BUILTIN_MODELS),
    "ergm_estimator": "exact-dyad", "mcmc_sample_size": 512, "q_range": (1, 20),
    "sbm_restarts": 10, "score_against": ["party", "chamber"],
    "seed": 0, "stages": list(STAGES), "weighted_spectral": False,
    "standardize": False, "min_clique_size": None,
}
_ODD = {"name": "odd", "terms": [{"term": "edges"}, {"term": "absdiff", "attribute": "age"}]}
_REPORT_ARGV = ["report", "--edges", "in/congress_edges.csv", "--attrs",
                "in/congress_attrs.csv", "--out", "o", "--models", "model1,model3,model6",
                "--estimator", "exact-dyad", "--q-range", "1:20", "--restarts", "2",
                "--seed", "81"]
_README_CONFIG = {
    "edges": "edges.csv", "attrs": "members.csv", "out": "results", "seed": 7,
    "stages": list(STAGES), "models": ["model1", "model2", "model3", "model6"],
    "ergm_estimator": "exact-dyad", "mcmc": {"sample_size": 512},
    "sbm": {"q_range": [1, 20], "restarts": 10},
    "score_against": ["party", "chamber"],
    "party_reassignment": {"SenAngusKing": "Democrat"},
}


# Valid configs of the test suite, the README and the benchmark's CLI
# calls (a config dict, or the argv of a legnet call), each with the
# fields where its RunConfig differs from DEFAULTS.
VALID_CONFIGS = [
    ({"edges": "e.csv"}, {"edges": "e.csv"}),
    ({"edges": "e.csv", "seed": 9}, {"edges": "e.csv", "seed": 9}),
    ({"edges": "e.csv", "sbm": {"q_range": "2:8", "restarts": 3}},
     {"edges": "e.csv", "q_range": (2, 8), "sbm_restarts": 3}),
    ({"edges": "e.csv", "attrs": "a.csv", "out": "o", "seed": 5,
      "models": ["model1", "model2", "model6"], "sbm": {"q_range": [1, 4], "restarts": 4}},
     {"edges": "e.csv", "attrs": "a.csv", "out_dir": "o", "seed": 5,
      "models": ["model1", "model2", "model6"], "q_range": (1, 4), "sbm_restarts": 4}),
    ({"edges": "e.csv", "attrs": "a.csv", "out": "o", "seed": 3,
      "models": ["model1", _ODD], "ergm_estimator": "mcmle", "mcmc": {"sample_size": 200},
      "sbm": {"q_range": [1, 3], "restarts": 2}},
     {"edges": "e.csv", "attrs": "a.csv", "out_dir": "o", "seed": 3,
      "models": ["model1", _ODD], "ergm_estimator": "mcmle", "mcmc_sample_size": 200,
      "q_range": (1, 3), "sbm_restarts": 2}),
    ({"edges": "e.csv", "out": "o", "stages": ["ergm"], "models": [_ODD["terms"]]},
     {"edges": "e.csv", "out_dir": "o", "stages": ["ergm"], "models": [_ODD["terms"]]}),
    ({"edges": "e.json", "format": "upstream-json",
      "weighted_spectral": True, "standardize": True, "min_clique_size": 3,
      "score_against": ["party"], "party_reassignment": {"a": "Gold"}},
     {"edges": "e.json", "edge_format": "upstream-json",
      "weighted_spectral": True, "standardize": True, "min_clique_size": 3,
      "score_against": ["party"], "party_reassignment": {"a": "Gold"}}),
    (_README_CONFIG,
     {"edges": "edges.csv", "attrs": "members.csv", "out_dir": "results", "seed": 7,
      "models": ["model1", "model2", "model3", "model6"],
      "party_reassignment": {"SenAngusKing": "Democrat"}}),
    (_REPORT_ARGV,
     {"edges": "in/congress_edges.csv", "attrs": "in/congress_attrs.csv", "out_dir": "o",
      "models": ["model1", "model3", "model6"], "sbm_restarts": 2, "seed": 81}),
    (["topology", "--edges", "in/sparse_edges.csv", "--out", "o", "--seed", "81"],
     {"edges": "in/sparse_edges.csv", "out_dir": "o", "seed": 81, "stages": ["topology"]}),
    (["ingest", "--edges", "net.json", "--format", "upstream-json", "--out", "o"],
     {"edges": "net.json", "edge_format": "upstream-json", "out_dir": "o",
      "stages": ["ingest"]}),
    (["topology", "--edges", "e.csv", "--min-clique-size", "4"],
     {"edges": "e.csv", "min_clique_size": 4, "stages": ["topology"]}),
    (["score", "--edges", "e.csv", "--q-range", "1:3", "--restarts", "2",
      "--against", "party"],
     {"edges": "e.csv", "q_range": (1, 3), "sbm_restarts": 2,
      "score_against": ["party"], "stages": ["score"]}),
]


@pytest.mark.parametrize("given, differs", VALID_CONFIGS)
def test_valid_configs_build_the_same_fields(given, differs):
    if isinstance(given, list):
        config = _build_config(build_parser().parse_args(given))
    else:
        config = config_from_dict(given)
    assert asdict(config) == {**DEFAULTS, **differs}
    assert type(config.q_range) is tuple


def test_well_formed_custom_models_validate():
    terms = [{"term": "edges"}, {"term": "mutual"},
             {"term": "covariate", "attribute": "age", "role": None},
             {"term": "covariate", "attribute": "eigen", "role": "receiver"},
             {"term": "match", "attribute": "party", "level": None},
             {"term": "match", "attribute": "party", "level": "Gold"},
             {"term": "absdiff", "attribute": "tenure"}]
    cfg = config_from_dict({"edges": "e.csv",
                            "models": ["model1", terms, {"terms": terms},
                                       {"name": "mine", "terms": terms}]})
    assert cfg.models[1] == terms


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"edges": "e.csv", "seed": 9}))
    cfg = config_from_dict(read_config(path))
    assert cfg.seed == 9
    with pytest.raises(ConfigError, match="not found"):
        read_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="valid JSON"):
        read_config(bad)


def test_a_config_name_with_a_nul_byte_is_a_config_error():
    with pytest.raises(ConfigError, match="cannot read config"):
        read_config("run\x00.json")


def test_validate_catches_non_mapping_root():
    with pytest.raises(ConfigError):
        config_from_dict(["edges"])


def test_runconfig_direct_validation():
    cfg = RunConfig(edges="e.csv", out_dir="out", stages=["nope"])
    with pytest.raises(ConfigError):
        cfg.validate()


def test_baseline_model_labels(toy):
    graph, attrs, cent = toy
    assert build_model("model1", graph, None, None).labels == ("edges",)
    assert build_model("model2", graph, None, None).labels == ("edges", "mutual")


def test_structural_model_roster(toy):
    graph, attrs, cent = toy
    spec = build_model("model3", graph, None, cent)
    assert spec.labels == (
        "edges", "mutual", "receiver(in_degree)", "sender(out_degree)",
        "sender(out_strength)", "sum(closeness)", "sum(betweenness)",
        "sum(eigen)", "sender(hub)", "sum(authority)")
    with pytest.raises(DataError):
        build_model("model3", graph, None, None)


def test_attribute_model_has_no_reciprocity_term(toy):
    graph, attrs, cent = toy
    spec = build_model("model4", graph, attrs, None)
    assert "mutual" not in spec.labels
    assert spec.labels[0] == "edges"
    assert "sum(age)" in spec.labels and "sum(tenure)" in spec.labels
    # one match term per observed level of each categorical column
    for column in ("party", "race", "ethnicity", "religion", "sex",
                   "chamber", "lgbtq"):
        levels = sorted(set(attrs.categorical(column)))
        for lvl in levels:
            assert f"match({column}={lvl})" in spec.labels
    with pytest.raises(DataError):
        build_model("model4", graph, None, None)


def test_mixed_model_rosters(toy):
    graph, attrs, cent = toy
    spec5 = build_model("model5", graph, attrs, cent)
    assert spec5.labels == (
        "edges", "mutual", "receiver(in_degree)", "sender(out_degree)",
        "sum(closeness)", "sum(betweenness)", "sender(hub)",
        "sum(age)", "sum(tenure)")
    spec6 = build_model("model6", graph, attrs, cent)
    head = ("edges", "mutual", "receiver(in_degree)", "sender(out_degree)",
            "sum(closeness)", "sum(betweenness)", "sender(hub)")
    assert spec6.labels[:7] == head
    assert "match(party=Blue)" in spec6.labels
    assert "match(party=Gold)" in spec6.labels
    assert "match(chamber=Upper)" in spec6.labels
    assert "match(chamber=Lower)" in spec6.labels
    with pytest.raises(DataError):
        build_model("model5", graph, attrs, None)
    with pytest.raises(ConfigError):
        build_model("model99", graph, attrs, cent)


def test_party_reassignment_moves_a_member(toy):
    graph, attrs, cent = toy
    idx = attrs.indices_with("party", "Blue")[0]
    node = attrs.node_ids[idx]
    spec = build_model("model6", graph, attrs, cent,
                       party_reassignment={node: "Gold"})
    match = next(t for t in spec.terms
                 if getattr(t, "level", None) == "Gold"
                 and getattr(t, "name", "") == "party")
    assert match.labels[idx] == "Gold"
    baseline = build_model("model6", graph, attrs, cent)
    base_match = next(t for t in baseline.terms
                      if getattr(t, "level", None) == "Gold"
                      and getattr(t, "name", "") == "party")
    assert base_match.labels[idx] == "Blue"
    with pytest.raises(DataError, match="vocabulary"):
        build_model("model6", graph, attrs, cent,
                    party_reassignment={node: "Teal"})


def test_standardize_centers_covariates(toy):
    graph, attrs, cent = toy
    spec = build_model("model5", graph, attrs, cent, standardize=True)
    for term in spec.terms:
        if hasattr(term, "values") and hasattr(term, "role"):
            vals = np.asarray(term.values)
            assert vals.mean() == pytest.approx(0.0, abs=1e-12)
            assert vals.std() == pytest.approx(1.0)


def test_standardize_centers_a_constant_custom_covariate():
    import legnet
    cycle = legnet.Graph([("a", "b", 0.5), ("b", "c", 0.5), ("c", "a", 0.5)])
    cent = legnet.centrality_report(cycle)  # every out-degree is 1
    spec = spec_from_terms([{"term": "covariate", "attribute": "out_degree"}],
                           None, cent, standardize=True)
    assert spec.terms[0].values == (0.0, 0.0, 0.0)


def test_model_requirement_predicates():
    assert not model_needs_attrs("model1")
    assert not model_needs_attrs("model3")
    assert model_needs_attrs("model4")
    assert model_needs_attrs("model6")
    assert not model_needs_centrality("model2")
    assert model_needs_centrality("model3")
    assert model_needs_centrality("model6")
    assert not model_needs_centrality([{"term": "edges"}])
    assert model_needs_centrality([{"term": "covariate", "attribute": "eigen"}])
    assert not model_needs_centrality([{"term": "covariate", "attribute": "age"}])
    assert model_needs_centrality(
        {"terms": [{"term": "covariate", "attribute": "betweenness"}]})
    assert model_needs_centrality([{"term": "absdiff", "attribute": "betweenness"}])
    assert not model_needs_centrality([{"term": "absdiff", "attribute": "age"}])


def test_spec_from_terms_roundtrip(toy):
    graph, attrs, cent = toy
    spec = spec_from_terms([
        {"term": "edges"},
        {"term": "mutual"},
        {"term": "covariate", "attribute": "age", "role": "sender"},
        {"term": "covariate", "attribute": "eigen"},
        {"term": "match", "attribute": "party"},
        {"term": "match", "attribute": "party", "level": "Gold"},
        {"term": "absdiff", "attribute": "tenure"},
    ], attrs, cent)
    assert spec.labels == ("edges", "mutual", "sender(age)", "sum(eigen)",
                           "match(party)", "match(party=Gold)",
                           "absdiff(tenure)")


def test_spec_from_terms_errors(toy):
    graph, attrs, cent = toy
    with pytest.raises(ConfigError, match="unknown term"):
        spec_from_terms([{"term": "triangles"}], attrs, cent)
    with pytest.raises(DataError, match="attribute table"):
        spec_from_terms([{"term": "match", "attribute": "party"}], None, cent)
    with pytest.raises(DataError, match="covariate source"):
        spec_from_terms([{"term": "covariate", "attribute": "salary"}],
                        attrs, cent)
