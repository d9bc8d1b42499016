"""Property suite: broken edge input, attribute CSVs, config documents and
file names holding line breaks or NUL bytes through the CLI either read or
fail with exit code 2, 3 or 4, one stderr line without a NUL byte and no
output directory."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from legnet.cli import main  # noqa: E402

# a valid graph; "ç" is two bytes in UTF-8, so a cut can split it
NODES = ["a", "b", "ç", "d"]
EDGES = [(0, 1, 0.5), (1, 0, 0.25), (1, 2, 1.0), (2, 3, 0.75), (3, 0, 0.125)]
CSV_FIELDS = ["source", "target", "weight"]
JSON_FIELDS = ["usernameList", "outList", "outWeight"]
DEFECTS = ["none", "missing", "duplicate", "self-loop", "weight-0", "weight-1.5"]

cases = st.sampled_from([("csv", d) for d in DEFECTS]
                        + [("upstream-json", d) for d in DEFECTS + ["index"]])


def broken_edges(edges, defect):
    edges = list(edges)
    if defect == "duplicate":
        edges.append(edges[0])
    elif defect == "self-loop":
        edges.append((2, 2, 0.5))
    elif defect in ("weight-0", "weight-1.5"):
        edges[0] = (*edges[0][:2], float(defect.split("-")[1]))
    elif defect == "index":
        edges.append((0, len(NODES), 0.5))
    return edges


def document(fmt, defect, field):
    """The edge document's bytes, with `defect` and, if it is "missing",
    without the field numbered `field`."""
    edges = broken_edges(EDGES, defect)
    if fmt == "csv":
        keep = [k for k in range(3) if not (defect == "missing" and k == field)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([CSV_FIELDS[k] for k in keep])
        for s, t, w in edges:
            writer.writerow([(NODES[s], NODES[t], w)[k] for k in keep])
        return buf.getvalue().encode()
    doc = {"usernameList": NODES,
           "outList": [[t for s, t, _ in edges if s == i] for i in range(len(NODES))],
           "outWeight": [[w for s, _, w in edges if s == i] for i in range(len(NODES))]}
    if defect == "missing":
        del doc[JSON_FIELDS[field]]
    return json.dumps(doc, ensure_ascii=False).encode()


def run_cli(argv, out):
    """Run the CLI and check the outcome: a manifest, or an exit code of 2, 3
    or 4 with one stderr line and no output directory; stderr never holds a
    NUL byte."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    assert "\0" not in err.getvalue()
    if code == 0:
        assert (out / "manifest.json").is_file()
    else:
        assert code in (2, 3, 4)
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert not out.exists()


def cut_at(data, cut):
    return data if cut is None else data[:cut % (len(data) + 1)]


@settings(max_examples=50, deadline=None)
@given(case=cases, field=st.integers(0, 2), cut=st.none() | st.integers(0, 400),
       command=st.sampled_from(["ingest", "topology"]))
def test_broken_edge_input_exits_cleanly(case, field, cut, command):
    fmt, defect = case
    data = cut_at(document(fmt, defect, field), cut)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "edges"
        src.write_bytes(data)
        run_cli([command, "--edges", str(src), "--format", fmt], Path(tmp) / "out")


ATTR_DEFECTS = ["none", "repeated-id", "unknown-id", "missing-row", "age-text",
                "age-negative", "age-nan", "age-inf", "repeated-header", "bom"]


def attribute_document(defect):
    """An attribute CSV for NODES, with `defect`."""
    header = ["node_id", "party", "age"]
    rows = [[node, ("Blue", "Gold")[k % 2], 40 + k] for k, node in enumerate(NODES)]
    if defect == "repeated-id":
        rows.append(list(rows[0]))
    elif defect == "unknown-id":
        rows.append(["zz", "Blue", 50])
    elif defect == "missing-row":
        rows.pop()
    elif defect == "age-text":
        rows[1][2] = "old"
    elif defect == "age-negative":
        rows[1][2] = -3
    elif defect in ("age-nan", "age-inf"):
        rows[1][2] = defect.removeprefix("age-")
    elif defect == "repeated-header":
        header.append("party")
        rows = [[*row, "Blue"] for row in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return (("\ufeff" if defect == "bom" else "") + buf.getvalue()).encode()


@settings(max_examples=50, deadline=None)
@given(defect=st.sampled_from(ATTR_DEFECTS), cut=st.none() | st.integers(0, 200))
def test_broken_attribute_csv_exits_cleanly(defect, cut):
    with tempfile.TemporaryDirectory() as tmp:
        edges, attrs = Path(tmp) / "edges.csv", Path(tmp) / "attrs.csv"
        edges.write_bytes(document("csv", "none", 0))
        attrs.write_bytes(cut_at(attribute_document(defect), cut))
        run_cli(["topology", "--edges", str(edges), "--attrs", str(attrs)],
                Path(tmp) / "out")


# keys a mutation may set or drop: the config's own, removed ones and unknown ones
CONFIG_KEYS = ["edges", "attrs", "format", "stages", "seed", "models", "ergm_estimator",
               "mcmc", "sbm", "score_against", "party_reassignment", "json_fields",
               "min_clique_size", "threads", "bogus"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(allow_nan=True)
    | st.sampled_from(["csv", "ingest", "sbm", "model1", "1:3", "edges.csv", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["q_range", "restarts", "sample_size", "seed", "a"]),
        inner, max_size=3),
    max_leaves=8)
# file names holding line breaks, a NUL byte or a line separator
ODD = ["\n", "\r", "\x00", "\u2028"]
odd_names = st.lists(st.sampled_from(ODD + ["e", ".csv"]), min_size=1, max_size=5).filter(
    lambda parts: any(c in ODD for c in parts)).map("".join)


@settings(max_examples=50, deadline=None)
@given(drop=st.sets(st.sampled_from(CONFIG_KEYS), max_size=2),
       changes=st.dictionaries(st.sampled_from(CONFIG_KEYS), json_values, max_size=2),
       names=st.dictionaries(st.sampled_from(["edges", "attrs"]), odd_names, max_size=2),
       root=st.sampled_from(["object", "list"]), cut=st.none() | st.integers(0, 400))
def test_mutated_config_document_exits_cleanly(drop, changes, names, root, cut):
    with tempfile.TemporaryDirectory() as tmp:
        edges, attrs = Path(tmp) / "edges.csv", Path(tmp) / "attrs.csv"
        edges.write_bytes(document("csv", "none", 0))
        attrs.write_bytes(attribute_document("none"))
        doc = {"edges": str(edges), "attrs": str(attrs), "format": "csv",
               "stages": ["ingest"], "seed": 3, "models": ["model1"],
               "ergm_estimator": "exact-dyad", "mcmc": {"sample_size": 64},
               "sbm": {"q_range": [1, 3], "restarts": 1}, "score_against": ["party"],
               "party_reassignment": {"a": "Gold"}}
        for key in drop:
            doc.pop(key, None)
        doc.update(changes)
        doc.update(names)
        text = json.dumps(doc if root == "object" else list(doc.items()))
        config = Path(tmp) / "run.json"
        config.write_bytes(cut_at(text.encode(), cut))
        run_cli(["run", "--config", str(config)], Path(tmp) / "out")


@pytest.mark.parametrize("odd", ODD, ids=["newline", "return", "nul", "line-separator"])
@pytest.mark.parametrize("parent", ["directory", "file"])
def test_out_name_with_a_line_break_or_nul_exits_cleanly(odd, parent):
    with tempfile.TemporaryDirectory() as tmp:
        edges = Path(tmp) / "edges.csv"
        edges.write_bytes(document("csv", "none", 0))
        out = Path(tmp) / ("edges.csv" if parent == "file" else "") / f"o{odd}ut"
        run_cli(["ingest", "--edges", str(edges)], out)
        # nothing but the output directory, and only on success
        made = sorted(p.name for p in Path(tmp).iterdir())
        assert made == sorted(["edges.csv"] + ([out.name] if out.is_dir() else []))
