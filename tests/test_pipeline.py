"""Batch pipeline: artifacts, manifest digests, reproducibility."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

import legnet
from legnet import DataError, Pipeline, compare_models, fit_exact_dyad
from legnet.config import config_from_dict
from legnet.ergm import Edges, ErgmSpec, Mutual
from legnet.pipeline import fmt

from conftest import random_digraph, toy_tables, write_toy


def test_fmt_edge_cases():
    assert fmt(None) == ""
    assert fmt(float("nan")) == ""
    assert fmt(float("inf")) == "Inf"
    assert fmt(float("-inf")) == "-Inf"
    assert fmt(0.5) == "0.5"
    assert fmt(2) == "2"
    assert fmt("label") == "label"
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(np.float64(0.25)) == "0.25"


def test_compare_models_ranks_and_reductions():
    g = random_digraph(12, 0.25, seed=3, mutual_boost=0.5)
    base = fit_exact_dyad(g, ErgmSpec([Edges()]))
    rich = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))
    rows = compare_models([("null", base), ("recip", rich)])
    assert [r["aic"] for r in rows] == sorted(r["aic"] for r in rows)
    null_row = next(r for r in rows if r["model"] == "null")
    rich_row = next(r for r in rows if r["model"] == "recip")
    assert null_row["aic_reduction_pct"] == 0.0
    expect = 100.0 * (base.aic - rich.aic) / base.aic
    assert rich_row["aic_reduction_pct"] == pytest.approx(expect)
    assert rich_row["terms"] == 2


def test_compare_models_validation():
    g = random_digraph(10, 0.3, seed=1)
    h = random_digraph(10, 0.3, seed=2)
    fit_g = fit_exact_dyad(g, ErgmSpec([Edges()]))
    with pytest.raises(DataError, match="at least 2"):
        compare_models([("only", fit_g)])
    fit_h = fit_exact_dyad(h, ErgmSpec([Edges()]))
    with pytest.raises(DataError, match="different graphs"):
        compare_models([("a", fit_g), ("b", fit_h)])


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    src = tmp_path_factory.mktemp("toy_src")
    epath, apath = write_toy(src)
    out = tmp_path_factory.mktemp("toy_out")
    config = config_from_dict({
        "edges": str(epath), "attrs": str(apath), "out": str(out),
        "seed": 5,
        "models": ["model1", "model2", "model6"],
        "sbm": {"q_range": [1, 4], "restarts": 4},
    })
    manifest = legnet.run(config)
    return epath, apath, out, manifest


def test_subgraph_density_is_the_density_of_each_level_subgraph(tmp_path):
    # one member alone in its chamber: a level under 2 members has no entry
    edges, rows = toy_tables()
    rows[4]["chamber"] = "Joint"
    with open(tmp_path / "edges.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([("source", "target", "weight"), *edges])
    with open(tmp_path / "attrs.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    legnet.run(config_from_dict({"edges": str(tmp_path / "edges.csv"),
                                 "attrs": str(tmp_path / "attrs.csv"),
                                 "out": str(tmp_path / "out"), "stages": ["topology"]}))
    got = json.loads((tmp_path / "out" / "connectivity.json").read_text())["subgraph_density"]
    graph = legnet.load_edge_list(tmp_path / "edges.csv")
    attrs = legnet.load_attributes(tmp_path / "attrs.csv", graph)
    assert got == {f"{column}:{level}":
                   legnet.density(legnet.subgraph_by_level(graph, attrs, column, level))
                   for column, level in (("party", "Blue"), ("party", "Gold"),
                                         ("chamber", "Lower"), ("chamber", "Upper"))}


EXPECTED_FILES = {
    "graph_summary.json", "edges.csv", "graph.graphml", "graph.dot",
    "centrality.csv", "connectivity.json", "assortativity.csv",
    "ergm_model1.json", "ergm_model2.json", "ergm_model6.json",
    "ergm_coefficients.csv", "ergm_effects.csv", "model_comparison.csv",
    "ergm_lrt_vs_edges.csv", "sbm_icl_curve.csv", "sbm_fit.json",
    "communities.csv", "interaction_matrix.csv", "community_annotations.json",
    "community_summary.csv", "partition_scores.csv", "summary.md",
}


def test_run_emits_expected_artifacts(toy_run):
    _, _, out, manifest = toy_run
    written = {p.name for p in out.iterdir()}
    assert EXPECTED_FILES <= written
    assert "manifest.json" in written
    assert set(manifest["outputs"]) == EXPECTED_FILES


def test_manifest_digests_match_files(toy_run):
    epath, _, out, manifest = toy_run
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest, name
    assert manifest["inputs"]["edges"] == hashlib.sha256(
        epath.read_bytes()).hexdigest()
    assert manifest["seed"] == 5
    disk = json.loads((out / "manifest.json").read_text())
    assert disk == manifest


def test_save_edge_list_writes_the_report_edges_csv(toy_run, tmp_path):
    epath, _, out, _ = toy_run
    saved = tmp_path / "saved.csv"
    legnet.save_edge_list(legnet.load_edge_list(epath), saved)
    assert saved.read_bytes() == (out / "edges.csv").read_bytes()
    assert b"\r" not in saved.read_bytes()


def test_rerun_is_byte_identical(toy_run, tmp_path):
    epath, apath, out, manifest = toy_run
    out2 = tmp_path / "again"
    config = config_from_dict({
        "edges": str(epath), "attrs": str(apath), "out": str(out2),
        "seed": 5,
        "models": ["model1", "model2", "model6"],
        "sbm": {"q_range": [1, 4], "restarts": 4},
    })
    second = legnet.run(config)
    assert second["outputs"] == manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out2 / name).read_bytes() == (out / name).read_bytes(), name


def test_summary_covers_each_stage(toy_run):
    _, _, out, _ = toy_run
    text = (out / "summary.md").read_text()
    for heading in ("# Network analysis summary", "### Top 5 by betweenness",
                    "## Cohesion", "## Assortativity", "## Models",
                    "## Communities"):
        assert heading in text, heading


def test_partition_scores_columns(toy_run):
    _, _, out, _ = toy_run
    lines = (out / "partition_scores.csv").read_text().splitlines()
    assert lines[0] == "partition,rand,adjusted_rand,nmi"
    names = {line.split(",")[0] for line in lines[1:]}
    assert names == {"party", "chamber"}
    for line in lines[1:]:
        for cell in line.split(",")[1:]:
            float(cell)


def test_attrless_run_skips_and_notices(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    epath, _ = write_toy(src)
    out = tmp_path / "out"
    config = config_from_dict({
        "edges": str(epath), "out": str(out), "seed": 1,
        "models": ["model1", "model2", "model4"],
        "sbm": {"q_range": [1, 3], "restarts": 2},
    })
    manifest = legnet.run(config)
    written = set(manifest["outputs"])
    assert "partition_scores.csv" not in written
    assert "ergm_model4.json" not in written
    assert "ergm_model1.json" in written and "sbm_fit.json" in written
    assort = (out / "assortativity.csv").read_text().splitlines()
    variables = {line.split(",")[0] for line in assort[1:]}
    assert "party" not in variables and "chamber" not in variables
    joined = " ".join(manifest["notices"])
    assert "model4" in joined
    assert "attribute" in joined


def test_single_stage_selection(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    epath, apath = write_toy(src)
    out = tmp_path / "out"
    config = config_from_dict({
        "edges": str(epath), "attrs": str(apath), "out": str(out),
        "stages": ["ingest"],
    })
    manifest = legnet.run(config)
    assert set(manifest["outputs"]) == {"graph_summary.json", "edges.csv",
                                        "graph.graphml", "graph.dot"}
    assert manifest["stages"] == ["ingest"]


def test_centrality_models_force_topology_stage(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    epath, _ = write_toy(src)
    out = tmp_path / "out"
    config = config_from_dict({
        "edges": str(epath), "out": str(out), "seed": 2,
        "stages": ["ergm"], "models": ["model3"],
    })
    manifest = legnet.run(config)
    assert "centrality.csv" in manifest["outputs"]
    assert manifest["stages"] == ["topology", "ergm"]
    assert any("forced" in n for n in manifest["notices"])
    # baseline models alone leave topology out
    out2 = tmp_path / "out2"
    config2 = config_from_dict({
        "edges": str(epath), "out": str(out2), "seed": 2,
        "stages": ["ergm"], "models": ["model1", "model2"],
    })
    manifest2 = legnet.run(config2)
    assert "centrality.csv" not in manifest2["outputs"]
    assert manifest2["stages"] == ["ergm"]


def test_score_stage_pulls_in_communities(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    epath, apath = write_toy(src)
    out = tmp_path / "out"
    config = config_from_dict({
        "edges": str(epath), "attrs": str(apath), "out": str(out),
        "stages": ["score"], "seed": 3,
        "sbm": {"q_range": [1, 3], "restarts": 2},
    })
    manifest = legnet.run(config)
    assert "partition_scores.csv" in manifest["outputs"]
    assert "sbm_fit.json" in manifest["outputs"]
    assert manifest["stages"] == ["sbm", "score"]


def test_score_stage_without_attributes_still_runs_the_scan(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    epath, _ = write_toy(src)
    config = config_from_dict({
        "edges": str(epath), "out": str(tmp_path / "out"),
        "stages": ["score"], "seed": 3,
        "sbm": {"q_range": [1, 3], "restarts": 2},
    })
    manifest = legnet.run(config)
    assert manifest["stages"] == ["sbm", "score"]
    assert {"sbm_icl_curve.csv", "sbm_fit.json", "communities.csv"} <= set(manifest["outputs"])
    assert "partition_scores.csv" not in manifest["outputs"]
    assert manifest["notices"] == ["partition scores skipped (no attribute file)"]


def test_unknown_attribute_columns_become_a_notice(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    epath, apath = write_toy(src)
    lines = apath.read_text().splitlines()
    apath.write_text("\n".join([lines[0] + ",hobby"] + [line + ",chess" for line in lines[1:]])
                     + "\n")
    config = config_from_dict({
        "edges": str(epath), "attrs": str(apath), "out": str(tmp_path / "out"),
        "stages": ["ingest", "assort"],
    })
    manifest = legnet.run(config)
    assert manifest["notices"] == ["ingest: ignoring unknown attribute columns: hobby (1x)"]


def test_warnings_of_any_stage_become_notices(tmp_path, monkeypatch):
    import warnings

    import legnet.pipeline as pipeline_module
    real_report = pipeline_module.assortativity_report

    def warning_report(*args, **kwargs):
        warnings.warn("coefficient undefined for x")
        warnings.warn("coefficient undefined for x")
        warnings.warn("log of zero", RuntimeWarning)
        return real_report(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "assortativity_report", warning_report)
    src = tmp_path / "src"
    src.mkdir()
    epath, apath = write_toy(src)
    config = config_from_dict({
        "edges": str(epath), "attrs": str(apath), "out": str(tmp_path / "out"),
        "stages": ["topology", "assort"],
    })
    # a RuntimeWarning is no notice: it passes on to the caller
    with pytest.warns(RuntimeWarning, match="log of zero"):
        manifest = legnet.run(config)
    assert manifest["notices"] == ["assort: coefficient undefined for x (2x)"]


def test_ingest_round_trip_preserves_weights(toy_run):
    epath, _, out, _ = toy_run
    graph = legnet.load_edge_list(epath)
    again = legnet.load_edge_list(out / "edges.csv")
    assert list(again.edge_records()) == list(graph.edge_records())


def test_ergm_fit_artifact_content(toy_run):
    _, _, out, _ = toy_run
    fit = json.loads((out / "ergm_model2.json").read_text())
    assert fit["terms"] == ["edges", "mutual"]
    assert len(fit["theta"]) == 2
    assert fit["method"] == "exact-dyad"
    assert fit["converged"] == 1 or fit["converged"] is True
    assert math.isfinite(fit["aic"])
    # reciprocity boost in the toy generator shows up as positive mutuality
    assert fit["theta"][1] > 0


def test_sbm_artifact_coherence(toy_run):
    _, _, out, _ = toy_run
    fit = json.loads((out / "sbm_fit.json").read_text())
    curve_lines = (out / "sbm_icl_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "q,icl"
    curve = {int(r.split(",")[0]): float(r.split(",")[1])
             for r in curve_lines[1:]}
    assert set(curve) == {1, 2, 3, 4}
    assert fit["q"] == max(curve, key=curve.get)
    members = (out / "communities.csv").read_text().splitlines()
    assert members[0] == "node_id,community"
    assert len(members) - 1 == 30
    labels = {int(r.split(",")[1]) for r in members[1:]}
    assert min(labels) == 1


def test_community_annotations_project_the_community_summary(toy_run):
    _, _, out, _ = toy_run
    with open(out / "community_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    projected = [{"community": int(row["community"]), "size": int(row["size"]),
                  **{f"dominant_{column}": row[f"{column}_dominant"]
                     for column in ("party", "chamber") if row[f"{column}_dominant"]}}
                 for row in summary]
    annotations = json.loads((out / "community_annotations.json").read_text())
    assert annotations == projected
    assert sum(note["size"] for note in annotations) == 30
    assert all("dominant_party" in note for note in annotations if note["size"])


def test_sbm_prune_warnings_become_counted_notices(tmp_path, monkeypatch):
    import warnings

    import legnet.pipeline as pipeline_module
    real_select_q = pipeline_module.select_q

    def pruning_select_q(*args, **kwargs):
        warnings.warn("pruned 1 empty class(es) at Q=3")
        warnings.warn("pruned 1 empty class(es) at Q=3")
        warnings.warn("pruned 2 empty class(es) at Q=4")
        return real_select_q(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "select_q", pruning_select_q)
    src = tmp_path / "src"
    src.mkdir()
    epath, _ = write_toy(src)
    config = config_from_dict({
        "edges": str(epath), "out": str(tmp_path / "out"), "seed": 1,
        "stages": ["sbm"], "sbm": {"q_range": [1, 2], "restarts": 1},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = legnet.run(config)
    assert "sbm: pruned 1 empty class(es) at Q=3 (2x)" in manifest["notices"]
    assert "sbm: pruned 2 empty class(es) at Q=4 (1x)" in manifest["notices"]
    fit = json.loads((tmp_path / "out" / "sbm_fit.json").read_text())
    assert [sorted(run) for run in fit["runs"]] == [
        ["collapsed", "converged", "damped_esteps", "iterations"]]


def test_each_report_computes_triad_closure_once(tmp_path, monkeypatch):
    # the centrality and connectivity reports each make one call, and the
    # pipeline builds each report once however many stages read it
    import legnet.topology as topology_module
    real_triad_closure = topology_module.triad_closure
    calls = []

    def counted(graph):
        calls.append(graph)
        return real_triad_closure(graph)

    monkeypatch.setattr(topology_module, "triad_closure", counted)
    src = tmp_path / "src"
    src.mkdir()
    epath, apath = write_toy(src)
    config = config_from_dict({
        "edges": str(epath), "attrs": str(apath), "out": str(tmp_path / "out"),
        "stages": ["topology", "assort", "report"],
    })
    manifest = legnet.run(config)
    assert {"centrality.csv", "connectivity.json", "summary.md"} <= set(manifest["outputs"])
    assert len(calls) == 2


def test_inestimable_term_is_blank_and_noticed(tmp_path):
    # one member alone on state "S9": a match on that level is 0 on
    # every dyad and has no estimate
    src = tmp_path / "src"
    src.mkdir()
    epath, apath = write_toy(src)
    lines = apath.read_text().splitlines()
    header = lines[0].split(",")
    first = lines[1].split(",")
    first[header.index("state")] = "S9"
    lines[1] = ",".join(first)
    apath.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    terms = [{"term": "edges"}, {"term": "match", "attribute": "state", "level": "S9"},
             {"term": "match", "attribute": "party"}]
    config = config_from_dict({
        "edges": str(epath), "attrs": str(apath), "out": str(out), "seed": 1,
        "stages": ["ergm"], "models": [{"name": "solo", "terms": terms}],
    })
    manifest = legnet.run(config)
    rows = (out / "ergm_coefficients.csv").read_text().splitlines()
    assert rows[2] == "solo,match(state=S9),,,"
    assert all(cell for row in (rows[1], rows[3]) for cell in row.split(","))
    assert ("ergm: solo: match(state=S9) is 0 on every dyad and cannot be "
            "estimated; reported as NaN") in manifest["notices"]


def _relabel(apath, column, levels):
    """Rewrite `column` of the attribute CSV for the members in `levels`."""
    with open(apath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row[column] = levels.get(row["node_id"], row[column])
    with open(apath, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_report_json_is_strict_rfc8259(tmp_path):
    # one member alone on "S9" (inestimable: NaN) and two untied members
    # on "S8" (separated: -Inf) put non-finite values into the ERGM files
    src = tmp_path / "src"
    src.mkdir()
    epath, apath = write_toy(src)
    graph = legnet.load_edge_list(epath)
    tied = {frozenset((a, b)) for a, b, _ in graph.edge_records()}
    pair = next((a, b) for a in graph.node_ids for b in graph.node_ids
                if a < b and frozenset((a, b)) not in tied)
    lone = next(v for v in graph.node_ids if v not in pair)
    _relabel(apath, "state", {pair[0]: "S8", pair[1]: "S8", lone: "S9"})
    terms = [{"term": "edges"}, {"term": "mutual"},
             {"term": "match", "attribute": "state", "level": "S9"},
             {"term": "match", "attribute": "state", "level": "S8"}]
    out = tmp_path / "out"
    config = config_from_dict({
        "edges": str(epath), "attrs": str(apath), "out": str(out), "seed": 3,
        "models": ["model1", {"name": "odd", "terms": terms}],
        "ergm_estimator": "mcmle", "mcmc": {"sample_size": 200},
        "sbm": {"q_range": [1, 3], "restarts": 2},
    })
    legnet.run(config)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    files = sorted(out.glob("*.json"))
    assert {"manifest.json", "ergm_odd.json", "ergm_odd_diagnostics.json"} <= {
        f.name for f in files}
    for path in files:
        json.loads(path.read_text(), parse_constant=reject)
    fit = json.loads((out / "ergm_odd.json").read_text())
    assert fit["theta"][2:] == [None, "-Inf"]
    assert fit["std_err"][2] is None and fit["mc_std_err"][2] is None
    assert "acceptance_rate" not in fit


def test_mcmc_burnin_and_interval_are_removed_settings(tmp_path, capsys):
    from legnet.cli import main

    src = tmp_path / "src"
    src.mkdir()
    epath, _ = write_toy(src)
    for key, value in (("burnin", 50), ("interval", 2)):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({
            "edges": str(epath), "out": str(tmp_path / key), "seed": 2,
            "stages": ["ergm"], "models": ["model2"],
            "ergm_estimator": "mcmle", "mcmc": {"sample_size": 200, key: value},
        }))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key 'mcmc.{key}' was removed: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / key).exists()
