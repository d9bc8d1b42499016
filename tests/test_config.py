"""Configuration parsing and the built-in model roster."""

import json

import numpy as np
import pytest

from legnet import (ConfigError, DataError, build_model, config_from_dict,
                    load_config, parse_q_range, spec_from_terms)
from legnet.config import (BUILTIN_MODELS, STAGES, RunConfig,
                           model_needs_attrs, model_needs_centrality)

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
    attrs = legnet.load_attributes(buf.getvalue(), graph)
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
    cfg = config_from_dict({"edges": "e.csv",
                            "sbm": {"q_range": "2:8", "restarts": 3,
                                    "init": "random"}})
    assert cfg.q_range == (2, 8)
    assert cfg.sbm_restarts == 3
    assert cfg.sbm_init == "random"


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
    {"edges": "e.csv", "mcmc": {"ee_tol": float("nan")}},
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
])
def test_invalid_configs_raise(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


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
    cfg = load_config(path)
    assert cfg.seed == 9
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(bad)


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
