"""Property suite: broken edge input through the CLI either reads or fails
with exit code 2, 3 or 4, one stderr line and no output directory."""

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


@settings(max_examples=50, deadline=None)
@given(case=cases, field=st.integers(0, 2), cut=st.none() | st.integers(0, 400),
       command=st.sampled_from(["ingest", "topology"]))
def test_broken_edge_input_exits_cleanly(case, field, cut, command):
    fmt, defect = case
    data = document(fmt, defect, field)
    if cut is not None:
        data = data[:cut % (len(data) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "edges", Path(tmp) / "out"
        src.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--edges", str(src), "--format", fmt, "--out", str(out)])
        if code == 0:
            assert (out / "manifest.json").is_file()
        else:
            assert code in (2, 3, 4)
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert not out.exists()
