"""Command-line driver: exit codes, overlays, artifact routing."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import legnet
import legnet.ergm.mcmle as mcmle_module
from legnet import __version__
from legnet.cli import main
from legnet.config import STAGES

from conftest import gen, graph_with_a_sink, random_digraph, write_toy


@pytest.fixture()
def toy(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    epath, apath = write_toy(src)
    return epath, apath, tmp_path / "out"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage error: legnet: the following arguments are required: command "
        "(see legnet --help)\n")


def test_ingest_writes_graph_artifacts(toy, capsys):
    epath, _, out = toy
    code = main(["ingest", "--edges", str(epath), "--out", str(out)])
    assert code == 0
    assert {p.name for p in out.iterdir()} == {
        "graph_summary.json", "edges.csv", "graph.graphml", "graph.dot",
        "manifest.json"}
    assert "wrote 4 files to" in capsys.readouterr().out


def test_the_stdout_line_escapes_a_line_break_in_the_output_name(toy, capsys):
    epath, _, out = toy
    out = out.with_name("o\nut")
    assert main(["ingest", "--edges", str(epath), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 4 files to {out.parent}/o\\nut\n"
    assert (out / "manifest.json").exists()


def test_no_edges_is_config_error(tmp_path, capsys):
    code = main(["ingest", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_edge_file_is_data_error(tmp_path, capsys):
    code = main(["ingest", "--edges", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_bad_config_json(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{oops")
    code = main(["run", "--config", str(cfg)])
    assert code == 2
    assert "valid JSON" in capsys.readouterr().err


def test_bad_q_range_flag(toy, capsys):
    epath, _, out = toy
    code = main(["sbm", "--edges", str(epath), "--out", str(out),
                 "--q-range", "4"])
    assert code == 2
    assert "A:B" in capsys.readouterr().err


def test_unknown_model_name(toy, capsys):
    epath, _, out = toy
    code = main(["ergm", "--edges", str(epath), "--out", str(out),
                 "--models", "modelx"])
    assert code == 2


def test_degenerate_fit_exits_4(tmp_path, capsys):
    # complete graph: edge statistic sits on its maximum, the sampler
    # cannot match it and the stochastic fit gives up
    edges = tmp_path / "complete.csv"
    ids = [f"k{i}" for i in range(5)]
    lines = ["source,target,weight"]
    lines += [f"{a},{b},1.0" for a in ids for b in ids if a != b]
    edges.write_text("\n".join(lines) + "\n")
    code = main(["ergm", "--edges", str(edges), "--out", str(tmp_path / "o"),
                 "--models", "model1", "--estimator", "mcmle"])
    assert code == 4
    assert "estimation error" in capsys.readouterr().err


def test_degenerate_simulation_is_one_stderr_line(toy, capsys, monkeypatch):
    # a sampler whose draws never vary; the error lists the last draws on
    # the one line
    sample_states = mcmle_module.sample_states

    def constant_draws(design, theta, control):
        sim = sample_states(design, theta, control)
        sim.stats[:] = sim.stats[0]
        return sim

    monkeypatch.setattr(mcmle_module, "sample_states", constant_draws)
    epath, _, out = toy
    cfg = epath.parent / "run.json"
    cfg.write_text(json.dumps({"mcmc": {"sample_size": 10}}))
    code = main(["ergm", "--config", str(cfg), "--edges", str(epath), "--out", str(out),
                 "--models", "model2", "--estimator", "mcmle"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("estimation error: degenerate simulation: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("mcmc, message", [
    ({"bogus": 1}, "unknown config keys: ['mcmc.bogus']"),
    ({"bridges": 12}, "no bridge sampling"),
    ({"burnin": 50}, "config key 'mcmc.burnin' was removed"),
    ({"interval": 2}, "config key 'mcmc.interval' was removed"),
    ({"ee_tol": 0.2}, "config key 'mcmc.ee_tol' was removed"),
    ({"max_phases": 40}, "config key 'mcmc.max_phases' was removed"),
    ({"seed": 3}, "config key 'mcmc.seed' was removed: "),
])
def test_bad_mcmc_block_is_config_error(toy, capsys, mcmc, message):
    epath, _, out = toy
    cfg = out.parent / "run.json"
    cfg.write_text(json.dumps({"mcmc": mcmc}))
    code = main(["ergm", "--config", str(cfg), "--edges", str(epath),
                 "--out", str(out), "--models", "model2", "--estimator", "mcmle"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("block, message", [
    ({"min_clique_size": "3"}, "min_clique_size must be an integer >= 1 or null, got '3'"),
    ({"weighted_spectral": "no"}, "weighted_spectral must be true or false, got 'no'"),
    ({"threads": 2}, "config key 'threads' was removed"),
    ({"json_fields": {"nodes": "x"}},
     "config key 'json_fields' was removed: the upstream export is read by its own "
     "field names"),
    ({"sbm": {"init": "random"}}, "config key 'sbm.init' was removed: "),
    ({"mcmc": {"seed": 3}}, "config key 'mcmc.seed' was removed: "),
])
def test_malformed_or_removed_setting_is_one_config_error_line(toy, capsys, block, message):
    # the first setting used to end in a traceback; the second quietly
    # turned the option on
    epath, _, out = toy
    cfg = out.parent / "run.json"
    cfg.write_text(json.dumps({"edges": str(epath), "out": str(out), **block}))
    code = main(["run", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("term", ["absdiff", "covariate"])
def test_non_finite_centrality_covariate_exits_3(tmp_path, capsys, term):
    edges = tmp_path / "edges.csv"
    legnet.save_edge_list(graph_with_a_sink(), edges)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"models": [[{"term": "edges"},
                                           {"term": term, "attribute": "closeness"}]]}))
    for estimator in ("exact-dyad", "mple"):
        code = main(["ergm", "--config", str(cfg), "--edges", str(edges),
                     "--out", str(tmp_path / estimator), "--estimator", estimator])
        assert code == 3
        assert capsys.readouterr().err == (
            "data error: covariate 'closeness' contains non-finite values\n")
        # the topology stage ran before the failing fit, but wrote nothing
        assert not (tmp_path / estimator).exists()


def test_threads_flag_is_a_usage_error(toy, capsys):
    epath, _, out = toy
    with pytest.raises(SystemExit) as exc:
        main(["topology", "--edges", str(epath), "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: legnet: unrecognized arguments: --threads")
    assert len(err.splitlines()) == 1


def test_init_flag_is_a_usage_error(toy, capsys):
    epath, _, out = toy
    with pytest.raises(SystemExit) as exc:
        main(["sbm", "--edges", str(epath), "--out", str(out), "--init", "random"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: legnet: unrecognized arguments: --init")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("block", [{"party_reassignment": {"a": 1}},
                                   {"party_reassignment": "ab"}])
def test_malformed_string_map_is_config_error(toy, capsys, block):
    epath, _, out = toy
    cfg = out.parent / "run.json"
    cfg.write_text(json.dumps(block))
    code = main(["ingest", "--config", str(cfg), "--edges", str(epath), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert "string keys and string values" in err


def test_absdiff_on_a_centrality_score_forces_topology(toy):
    epath, _, out = toy
    cfg = out.parent / "run.json"
    cfg.write_text(json.dumps({"models": [
        [{"term": "edges"}, {"term": "absdiff", "attribute": "betweenness"}]]}))
    code = main(["ergm", "--config", str(cfg), "--edges", str(epath), "--out", str(out)])
    assert code == 0
    notices = json.loads((out / "manifest.json").read_text())["notices"]
    assert any(n.startswith("topology stage forced") for n in notices)
    assert "absdiff(betweenness)" in (out / "ergm_coefficients.csv").read_text()



def test_models_needing_attrs_are_skipped_without_the_attribute_file(toy):
    epath, _, out = toy
    cfg = out.parent / "run.json"
    cfg.write_text(json.dumps({"models": [
        "model4", [{"term": "edges"}, {"term": "match", "attribute": "party"}]]}))
    code = main(["ergm", "--config", str(cfg), "--edges", str(epath), "--out", str(out)])
    assert code == 0
    notices = json.loads((out / "manifest.json").read_text())["notices"]
    assert [n for n in notices if n.endswith("skipped (needs the attribute file)")] == [
        "ergm: model4 skipped (needs the attribute file)",
        "ergm: custom2 skipped (needs the attribute file)"]

@pytest.mark.parametrize("models", [
    [{"name": "x"}],
    [["edges"]],
    [{"name": "y", "terms": "edges"}],
])
def test_malformed_custom_model_is_config_error(toy, capsys, models):
    epath, _, out = toy
    cfg = out.parent / "run.json"
    cfg.write_text(json.dumps({"stages": ["ergm"], "models": models}))
    code = main(["run", "--config", str(cfg), "--edges", str(epath), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1


def test_edge_file_name_like_json_is_read_as_a_file(toy, monkeypatch):
    epath, _, out = toy
    odd = epath.parent / "[2024] edges.csv"
    odd.write_bytes(epath.read_bytes())
    monkeypatch.chdir(odd.parent)
    assert main(["ingest", "--edges", odd.name, "--out", str(out)]) == 0


def test_config_file_with_flag_overrides(toy, capsys):
    epath, apath, out = toy
    cfg = out.parent / "run.json"
    cfg.write_text(json.dumps({
        "edges": str(epath), "attrs": str(apath),
        "out": str(out.parent / "ignored"),
        "stages": ["ingest", "sbm"],
        "sbm": {"q_range": [1, 2], "restarts": 2},
        "seed": 3,
    }))
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert not (out.parent / "ignored").exists()
    names = {p.name for p in out.iterdir()}
    assert "sbm_fit.json" in names and "graph_summary.json" in names
    assert "centrality.csv" not in names


def test_score_without_attrs_notices_and_succeeds(toy, capsys):
    epath, _, out = toy
    code = main(["score", "--edges", str(epath), "--out", str(out),
                 "--q-range", "1:3", "--restarts", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert "notice:" in captured.err
    assert not (out / "partition_scores.csv").exists()


def test_q_range_beyond_the_graph_exits_3_before_any_fit(tmp_path, capsys):
    epath, _ = write_toy(tmp_path, n=60)
    out = tmp_path / "out"
    code = main(["sbm", "--edges", str(epath), "--out", str(out),
                 "--q-range", "1:70", "--restarts", "2"])
    assert code == 3
    assert capsys.readouterr().err == "data error: Q range 1:70 outside [1, 60]\n"
    assert not out.exists()


def test_a_huge_q_range_is_refused_from_its_ends(tmp_path):
    # A child process with a capped address space, so that building the
    # list of Q values fails fast instead of exhausting the machine.
    resource = pytest.importorskip("resource")
    epath, out = tmp_path / "tiny.csv", tmp_path / "out"
    epath.write_text("source,target,weight\na,b,0.5\nb,c,0.5\n")
    argv = ["sbm", "--edges", str(epath), "--out", str(out),
            "--q-range", "1:100000000000", "--restarts", "1"]
    script = f"import sys, legnet.cli\nsys.exit(legnet.cli.main({argv!r}))\n"
    src = str(Path(legnet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    limit = 1536 * 2**20
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=300)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "data error: Q range 1:100000000000 outside [1, 3]\n"
    assert not out.exists()


def test_score_against_a_numeric_column_skips_it_with_a_notice(toy, capsys):
    epath, apath, out = toy
    code = main(["score", "--edges", str(epath), "--attrs", str(apath),
                 "--out", str(out), "--q-range", "1:3", "--restarts", "2",
                 "--against", "party,age"])
    assert code == 0
    assert "partition scores: column 'age' is numeric; skipped" in capsys.readouterr().err
    notices = json.loads((out / "manifest.json").read_text())["notices"]
    assert notices == ["partition scores: column 'age' is numeric; skipped"]
    lines = (out / "partition_scores.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["party"]


def test_score_against_selected_column(toy):
    epath, apath, out = toy
    code = main(["score", "--edges", str(epath), "--attrs", str(apath),
                 "--out", str(out), "--q-range", "1:3", "--restarts", "2",
                 "--against", "party"])
    assert code == 0
    lines = (out / "partition_scores.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["party"]


@pytest.mark.parametrize("command, flag", [("ergm", "--models"), ("score", "--against")])
@pytest.mark.parametrize("value", ["", ",", " "])
def test_a_name_list_flag_that_names_nothing_is_a_config_error(toy, capsys, command, flag,
                                                               value):
    # an empty list is refused: not read as an absent flag (all six
    # built-ins; party and chamber), nor run as a list of nothing
    epath, apath, out = toy
    code = main([command, "--edges", str(epath), "--attrs", str(apath),
                 "--out", str(out), flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: {flag} names nothing: give a comma list of names\n"
    assert not out.exists()


def test_an_empty_model_list_in_a_config_file_fits_nothing(toy):
    epath, _, out = toy
    cfg = out.parent / "cfg.json"
    cfg.write_text(json.dumps({"edges": str(epath), "out": str(out), "models": []}))
    assert main(["ergm", "--config", str(cfg)]) == 0
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_topology_subcommand_artifacts(toy):
    epath, apath, out = toy
    code = main(["topology", "--edges", str(epath), "--attrs", str(apath),
                 "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert "centrality.csv" in names and "connectivity.json" in names
    assert "ergm_coefficients.csv" not in names


def test_report_runs_everything(toy):
    epath, apath, out = toy
    code = main(["report", "--edges", str(epath), "--attrs", str(apath),
                 "--out", str(out), "--models", "model1,model2",
                 "--q-range", "1:3", "--restarts", "2", "--seed", "7"])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert "summary.md" in names
    assert "partition_scores.csv" in names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["stages"] == ["ingest", "topology", "assort", "ergm",
                                  "sbm", "score", "report"]


def test_report_never_loads_scipy_stats(toy):
    # A fresh process, because the test session itself imports scipy.stats.
    # model1,model2 makes the run reach the likelihood-ratio test.
    epath, apath, out = toy
    argv = ["report", "--edges", str(epath), "--attrs", str(apath),
            "--out", str(out), "--models", "model1,model2",
            "--q-range", "1:3", "--restarts", "2", "--seed", "7"]
    script = ("import json, sys\n"
              "import legnet.cli\n"
              "after_import = 'scipy.stats' in sys.modules\n"
              f"code = legnet.cli.main({argv!r})\n"
              "print(json.dumps([after_import, code, 'scipy.stats' in sys.modules]))\n")
    src = str(Path(legnet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [False, 0, False]
    assert (out / "ergm_lrt_vs_edges.csv").exists()


_ON_FIRST_USE = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg",
                 "scipy.cluster", "scipy.spatial")


def test_import_and_ergm_never_load_the_graph_and_linear_algebra_modules(toy):
    # A fresh process, because the test session itself imports them. Only
    # the component census and the SBM spectral start need them, and only
    # a Monte-Carlo MLE update needs scipy.optimize.
    epath, apath, out = toy
    ergm = ["ergm", "--edges", str(epath), "--attrs", str(apath),
            "--out", str(out / "ergm"), "--models", "model1,model2"]
    report = ["report", "--edges", str(epath), "--attrs", str(apath),
              "--out", str(out / "report"), "--q-range", "1:3", "--restarts", "2"]
    script = ("import json, sys\n"
              f"names = {(*_ON_FIRST_USE, 'scipy.optimize')!r}\n"
              "def loaded():\n"
              "    return [name for name in names if name in sys.modules]\n"
              "import legnet.cli\n"
              "seen = [loaded()]\n"
              f"seen += [legnet.cli.main({ergm!r}), loaded()]\n"
              f"seen += [legnet.cli.main({report!r}), loaded()]\n"
              "print(json.dumps(seen))\n")
    src = str(Path(legnet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[], 0, [], 0, list(_ON_FIRST_USE)]
    manifest = json.loads((out / "report" / "manifest.json").read_text())
    assert manifest["stages"] == list(STAGES)
    assert sorted(p.name for p in (out / "report").iterdir()) == sorted(
        [*manifest["outputs"], "manifest.json"])
    assert {"graph_summary.json", "communities.csv", "summary.md"} <= set(manifest["outputs"])


def test_first_phase_mcmle_fit_never_loads_scipy_optimize(tmp_path):
    # A fresh process, because the test session itself imports it. The
    # chamber graph's model2 fit, at the default control, converges in its
    # first phase, with no update; the multi-phase fit after it makes one
    # and loads the module.
    gen.generate(1, tmp_path, shapes=("chamber",))
    legnet.save_edge_list(random_digraph(20, p=0.1, seed=1, mutual_boost=0.95),
                          tmp_path / "multi.csv")
    script = ("import json, sys, legnet\n"
              "def fit(path, sample_size, seed):\n"
              "    g = legnet.load_edge_list(path)\n"
              "    spec = legnet.build_model('model2', g, None, None)\n"
              "    control = legnet.ergm.McmleControl(sample_size, seed)\n"
              "    phases = legnet.fit_mcmle(g, spec, control).diagnostics['phases']\n"
              "    return [phases, 'scipy.optimize' in sys.modules]\n"
              f"chamber = {str(tmp_path / 'chamber_edges.csv')!r}\n"
              f"multi = {str(tmp_path / 'multi.csv')!r}\n"
              "print(json.dumps([fit(chamber, 512, 0), fit(multi, 200, 1)]))\n")
    src = str(Path(legnet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    assert done.returncode == 0, done.stderr
    (first, first_loaded), (later, later_loaded) = json.loads(done.stdout.splitlines()[-1])
    assert first == 1 and not first_loaded
    assert later > 1 and later_loaded


def test_main_freezes_the_collector_once_per_process(toy):
    # A fresh process, so that the first call is the process's first.
    epath, _, out = toy
    argv = ["ingest", "--edges", str(epath), "--out", str(out)]
    script = ("import gc, json\n"
              "import legnet.cli\n"
              "before = gc.get_freeze_count()\n"
              f"legnet.cli.main({argv!r})\n"
              "first = gc.get_freeze_count()\n"
              "born_after = [[] for _ in range(100)]\n"
              f"legnet.cli.main({argv!r})\n"
              "print(json.dumps([before, first, gc.get_freeze_count()]))\n")
    src = str(Path(legnet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)
    assert done.returncode == 0, done.stderr
    before, first, second = json.loads(done.stdout.splitlines()[-1])
    assert before == 0 and first > 0
    assert second == first


@pytest.mark.parametrize("case, code, message", [
    ("edges", 3, "data error: {src}/edges.csv is not UTF-8 text"),
    ("attrs", 3, "data error: {src}/attrs.csv is not UTF-8 text"),
    # a stage that writes before it uses the attributes still reads them first
    ("topology-attrs", 3, "data error: {src}/attrs.csv is not UTF-8 text"),
    ("config", 2, "config error: cannot read config {src}/run.json: 'utf-8' codec"),
    ("config-dir", 2, "config error: cannot read config {src}: [Errno 21]"),
    ("out-file", 2, "config error: cannot create output directory {src}/edges.csv"),
    # an output file's path is taken by a directory
    ("out-entry", 2, "config error: cannot write output file {out}/edges.csv: "),
    # a field beyond the csv module's limit, and JSON nested beyond the parser's
    ("edges-long-field", 3, "data error: line 3: cannot parse CSV (field larger than"),
    ("attrs-long-field", 3, "data error: line 2: cannot parse CSV (field larger than"),
    ("edges-repeated-column", 3, "data error: edge CSV header repeats column 'weight'"),
    # a control character that XML 1.0 cannot carry, refused before any file is written
    ("edges-control-character", 3,
     "data error: node id 'a\\x01b' holds a control character that GraphML cannot carry"),
    ("edges-deep-json", 3, "data error: upstream JSON parse failure: maximum recursion depth"),
    ("config-deep-json", 2, "config error: config is not valid JSON: maximum recursion depth"),
    # a name holding a line break or another control character is escaped
    ("edges-line-break", 3, "data error: cannot read {src}/e\\nx.csv: [Errno 2]"),
    ("edges-nul", 3, "data error: cannot read {src}/e\\x00x.csv: embedded null byte"),
    ("edges-line-separator", 3, "data error: cannot read {src}/e\\u2028x.csv: [Errno 2]"),
    ("config-line-break", 2, "config error: config file not found: {src}/r\\r\\x85n.json"),
    ("out-control-character", 2,
     "config error: cannot create output directory {src}/edges.csv/o\\x1c\\tut: "),
])
def test_unreadable_input_or_output_exits_with_one_line(toy, capsys, case, code, message):
    epath, apath, out = toy
    src = epath.parent
    argv = ["ingest", "--edges", str(epath), "--out", str(out)]
    made = []
    if case == "edges":
        epath.write_bytes(epath.read_bytes() + b"a\xff,b,0.5\n")
    elif case == "edges-long-field":
        epath.write_text("source,target,weight\na,b,0.5\na," + "b" * 200_000 + ",0.5\n")
    elif case == "edges-control-character":
        epath.write_bytes(epath.read_bytes() + b"a\x01b,c,0.5\n")
    elif case == "edges-repeated-column":
        epath.write_text(epath.read_text().replace("weight", "weight,weight", 1))
    elif case == "attrs-long-field":
        apath.write_text("node_id,party\nmember00," + "D" * 200_000 + "\n")
        argv[0] = "topology"
        argv += ["--attrs", str(apath)]
    elif case == "edges-deep-json":
        made = ["net.json"]
        (src / "net.json").write_text("[" * 100_000 + "]" * 100_000)
        argv[2] = str(src / "net.json")
        argv += ["--format", "upstream-json"]
    elif case == "config-deep-json":
        made = ["run.json"]
        (src / "run.json").write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
        argv += ["--config", str(src / "run.json")]
    elif case in ("attrs", "topology-attrs"):
        apath.write_bytes(apath.read_bytes() + b"\xfe\n")
        argv += ["--attrs", str(apath)]
        if case == "topology-attrs":
            argv[0] = "topology"
    elif case == "config":
        made = ["run.json"]
        (src / "run.json").write_bytes(b'{"seed": "\xff"}')
        argv += ["--config", str(src / "run.json")]
    elif case == "config-dir":
        argv += ["--config", str(src)]
    elif case == "edges-line-break":
        made = ["run.json"]
        (src / "run.json").write_text(json.dumps({"edges": str(src / "e\nx.csv")}))
        argv = ["ingest", "--config", str(src / "run.json"), "--out", str(out)]
    elif case == "edges-nul":
        argv[2] = str(src / "e\x00x.csv")
    elif case == "edges-line-separator":
        argv[2] = str(src / "e\u2028x.csv")
    elif case == "config-line-break":
        argv += ["--config", str(src / "r\r\x85n.json")]
    elif case == "out-control-character":
        argv += ["--out", str(epath / "o\x1c\tut")]
    elif case == "out-entry":
        (out / "edges.csv").mkdir(parents=True)
    else:
        argv += ["--out", str(epath)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message.format(src=src, out=out))
    assert len(err.splitlines()) == 1
    assert not any(c in err[:-1] for c in map(chr, range(0x20)))
    if case == "out-entry":
        # the directory in the file's place is left as it was, and the
        # graph summary written before it is removed again
        assert not any((out / "edges.csv").iterdir())
        assert [p.name for p in out.iterdir()] == ["edges.csv"]
    else:
        # nothing is made in place of, or beside, the output path
        assert not out.exists()
    assert epath.is_file() and sorted(p.name for p in src.iterdir()) == sorted(
        ["edges.csv", "attrs.csv"] + made)


@pytest.mark.parametrize("how", ["config", "flag"])
def test_nul_byte_in_out_is_a_config_error_before_any_stage(toy, capsys, monkeypatch, how):
    epath, _, _ = toy
    monkeypatch.chdir(epath.parent)
    doc = {"edges": epath.name, "stages": ["ingest"]}
    argv = ["run", "--config", "run.json"]
    if how == "config":
        doc["out"] = "o\u0000ut"
    else:
        # a missing edge file would be a data error (exit 3) had ingest run
        doc["edges"] = "missing.csv"
        argv += ["--out", "o\x00ut"]
    Path("run.json").write_text(json.dumps(doc))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "config error: out must not hold a NUL byte, got 'o\\x00ut'\n"
    assert sorted(p.name for p in Path().iterdir()) == ["attrs.csv", "edges.csv", "run.json"]


@pytest.mark.parametrize("name, error", [
    ("edges.csv", "data error: edge CSV header missing column 'source'"),
    ("attrs.csv", "data error: attribute CSV header missing column 'node_id'"),
    ("net.json", "data error: upstream JSON parse failure: Unexpected UTF-8 BOM"),
    ("run.json", "config error: config is not valid JSON: Unexpected UTF-8 BOM"),
])
def test_a_leading_byte_order_mark_is_skipped(toy, tmp_path, capsys, name, error):
    # A spreadsheet's "CSV UTF-8" export starts the file with one. A second
    # one is text, and no header or JSON document may start with it.
    epath, _, _ = toy
    src = epath.parent
    (src / "net.json").write_text(json.dumps({"usernameList": ["a", "b", "c"],
                                              "outList": [[1, 2], [2], []],
                                              "outWeight": [[0.5, 0.25], [1.0], []]}))
    (src / "run.json").write_text(json.dumps({"seed": 3, "min_clique_size": 3}))
    argv = (["ingest", "--edges", "net.json", "--format", "upstream-json"]
            if name == "net.json" else
            ["topology", "--edges", "edges.csv", "--attrs", "attrs.csv", "--config", "run.json"])
    outputs = []
    for marks in (0, 1, 2):
        folder, out = tmp_path / f"in{marks}", tmp_path / f"out{marks}"
        shutil.copytree(src, folder)
        (folder / name).write_bytes(b"\xef\xbb\xbf" * marks + (src / name).read_bytes())
        code = main([str(folder / a) if a.endswith((".csv", ".json")) else a for a in argv]
                    + ["--out", str(out)])
        err = capsys.readouterr().err
        if marks < 2:
            assert code == 0, err
            outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
        else:
            assert code == (2 if name == "run.json" else 3)
            assert err.startswith(error) and len(err.splitlines()) == 1
            assert not out.exists()
    assert outputs[0] == outputs[1]


def test_malformed_upstream_json_exits_3(tmp_path, capsys):
    src = tmp_path / "net.json"
    src.write_text(json.dumps({"usernameList": ["a", "b"], "outList": [[1], [0]],
                               "outWeight": [["x"], [0.5]]}))
    code = main(["ingest", "--edges", str(src), "--format", "upstream-json",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "data error: node 'a': weight 'x' is not a number\n"


def test_a_one_node_blockmodel_exits_3_and_writes_nothing(tmp_path, capsys):
    src = tmp_path / "one.json"
    src.write_text(json.dumps({"usernameList": ["a"], "outList": [[]], "outWeight": [[]]}))
    out = tmp_path / "out"
    code = main(["sbm", "--edges", str(src), "--format", "upstream-json",
                 "--q-range", "1:1", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "data error: the blockmodel needs at least 2 nodes\n"
    assert not out.exists()


def test_upstream_json_ingest_at_congress_scale_matches_the_csv_ingest(tmp_path):
    # the generator's seed-1 congress graph, written again as an upstream
    # export: the member ids in order of first appearance, and per member
    # the indices and weights of its out-ties
    gen.generate(1, tmp_path, shapes=("congress",))
    edges = tmp_path / "congress_edges.csv"
    rows = list(csv.reader(edges.read_text(encoding="utf-8").splitlines()))[1:]
    ids = list(dict.fromkeys(node for s, t, _ in rows for node in (s, t)))
    index = {node: i for i, node in enumerate(ids)}
    targets, weights = [[] for _ in ids], [[] for _ in ids]
    for s, t, w in rows:
        targets[index[s]].append(index[t])
        weights[index[s]].append(float(w))
    export = tmp_path / "congress_network_data.json"
    export.write_text(json.dumps({"usernameList": ids, "outList": targets,
                                  "outWeight": weights}))
    outs = {}
    for fmt, src in (("csv", edges), ("upstream-json", export)):
        outs[fmt] = tmp_path / fmt
        assert main(["ingest", "--edges", str(src), "--format", fmt,
                     "--out", str(outs[fmt])]) == 0
    assert ((outs["upstream-json"] / "graph_summary.json").read_bytes()
            == (outs["csv"] / "graph_summary.json").read_bytes())

    def records(out):
        lines = (out / "edges.csv").read_text(encoding="utf-8").splitlines()
        return {tuple(row) for row in csv.reader(lines[1:])}

    assert len(ids) == 300 and len(rows) > 5_000
    assert records(outs["upstream-json"]) == records(outs["csv"]) == {
        tuple(row) for row in rows}


@pytest.mark.parametrize("models, message", [
    ([{"name": "x/../../../escaped", "terms": [{"term": "edges"}]}],
     "model name must be a non-empty string"),
    (["model1", {"name": "model1", "terms": [{"term": "edges"}, {"term": "mutual"}]}],
     "model names must be unique, got ['model1'] more than once"),
])
def test_unsafe_or_repeated_model_name_writes_nothing(tmp_path, capsys, models, message):
    # a traversal name used to write escaped.json above the output
    # directory, and a custom model1 used to replace the built-in's file
    src = tmp_path / "a" / "b"
    src.mkdir(parents=True)
    epath, _ = write_toy(src)
    cfg = src / "cfg.json"
    cfg.write_text(json.dumps({"edges": str(epath), "out": str(src / "o" / "run"),
                               "models": models}))
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert message in err
    assert sorted(tmp_path.rglob("*")) == before


def test_small_sample_mcmle_converges_and_writes_its_fit(toy, capsys):
    # ten draws per phase: the stopping rule is 1/sqrt(10) simulated sd, a
    # phase mean's own Monte-Carlo error, so the fit no longer runs out of
    # phases
    epath, _, out = toy
    cfg = epath.parent / "run.json"
    cfg.write_text(json.dumps({"mcmc": {"sample_size": 10}}))
    code = main(["ergm", "--config", str(cfg), "--edges", str(epath), "--out", str(out),
                 "--models", "model2", "--estimator", "mcmle"])
    assert code == 0
    assert capsys.readouterr().err == ""
    fit = json.loads((out / "ergm_model2.json").read_text())
    assert fit["method"] == "mcmle" and fit["converged"] and fit["phases"] <= 20


def test_phase_budget_out_exits_4(tmp_path, capsys, monkeypatch):
    edges = tmp_path / "edges.csv"
    legnet.save_edge_list(random_digraph(20, p=0.1, seed=1, mutual_boost=0.95), edges)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mcmc": {"sample_size": 200}}))
    argv = ["ergm", "--config", str(cfg), "--edges", str(edges), "--models", "model2",
            "--estimator", "mcmle", "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "ergm_model2.json").read_text())["phases"] > 1
    monkeypatch.setattr(mcmle_module, "_MAX_PHASES", 1)
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "capped")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("estimation error: estimating equations not met after 1 phases")
    assert len(err.splitlines()) == 1
