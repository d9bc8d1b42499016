"""Readers and writers: edge lists, attribute CSVs, GraphML and DOT export.

Canonical edge CSV: header ``source,target,weight``, UTF-8, one directed
edge per row. The upstream JSON export holds three parallel per-node
arrays, read by their fixed names (UPSTREAM_FIELDS): the node ids, each
node's out-neighbors and each node's out-weights.

Both CSVs, the edge list and the attribute table, skip empty and
whitespace-only lines, also before the header; "line N" in an error is
the physical line the row ends on.
"""

from __future__ import annotations

import csv
import io as _io
import json
import re
import warnings
from pathlib import Path
from typing import Any, IO, Iterable, Iterator

from .attributes import AttributeTable, CATEGORICAL_COLUMNS, NUMERIC_COLUMNS
from .errors import ConfigError, DataError
from .graph import Graph

# The upstream export's node ids, out-neighbor lists and out-weight lists.
UPSTREAM_FIELDS = ("usernameList", "outList", "outWeight")


def _as_text(source: str | Path | bytes | IO) -> str:
    """The text of a named file (a str or Path), of bytes or of a text or
    binary handle, less one leading byte-order mark. A file that cannot be
    opened or decoded is a DataError."""
    try:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        else:
            data = source if isinstance(source, bytes) else source.read()
            text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        name = source if isinstance(source, (str, Path)) else "input"
        raise DataError(f"{name} is not UTF-8 text ({exc})") from None
    except (OSError, ValueError) as exc:  # a NUL byte in a file name is a ValueError
        raise DataError(f"cannot read {source}: {exc}") from None
    return text.removeprefix("\ufeff")


def _csv_table(text: str, kind: str, required: tuple[str, ...],
               empty: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped header of the CSV `text` and its data rows as (line, row)
    pairs, line being the physical line the row ends on; empty and
    whitespace-only lines are skipped. No header is the DataError `empty`; a
    header that repeats a name or lacks a `required` column is a DataError
    naming the `kind` of file, and so is a line the csv module cannot parse."""
    reader = csv.reader(_io.StringIO(text))

    def rows() -> Iterator[tuple[int, list[str]]]:
        try:
            for row in reader:
                if len(row) > 1 or (row and row[0].strip()):
                    yield reader.line_num, row
        except csv.Error as exc:
            raise DataError(f"line {reader.line_num}: cannot parse CSV ({exc})") from None

    records = rows()
    first = next(records, None)
    if first is None:
        raise DataError(empty)
    header = [h.strip() for h in first[1]]
    for i, name in enumerate(header):
        if name and name in header[:i]:
            raise DataError(f"{kind} header repeats column {name!r}")
    for name in required:
        if name not in header:
            raise DataError(f"{kind} header missing column {name!r}")
    return header, records


def load_edge_list(source: str | Path | bytes | IO, format: str = "csv") -> Graph:
    """Parse an edge list into a validated Graph.

    A str or Path names the file; content is passed as bytes or a text or
    binary handle. format "csv" reads the canonical edge CSV;
    "upstream-json" reads the per-node adjacency export (see
    UPSTREAM_FIELDS), whose string targets must be ids it lists.
    """
    text = _as_text(source)
    if format == "csv":
        return _edges_from_csv(text)
    if format == "upstream-json":
        return _edges_from_upstream_json(text)
    raise ConfigError(f"unknown edge list format {format!r}")


def _edges_from_csv(text: str) -> Graph:
    header, rows = _csv_table(text, "edge CSV", ("source", "target", "weight"),
                              "no nodes: empty edge stream")
    si, ti, wi = header.index("source"), header.index("target"), header.index("weight")
    edges = []
    for line, row in rows:
        if len(row) <= max(si, ti, wi):
            raise DataError(f"line {line}: expected {len(header)} fields, got {len(row)}")
        s, t, w = row[si].strip(), row[ti].strip(), row[wi].strip()
        if not s or not t:
            raise DataError(f"line {line}: empty node identifier")
        try:
            weight = float(w)
        except ValueError:
            raise DataError(f"line {line}: weight {w!r} is not a number") from None
        edges.append((s, t, weight))
    if not edges:
        raise DataError("no nodes: edge stream has a header but no rows")
    return Graph(edges)


def _edges_from_upstream_json(text: str) -> Graph:
    try:
        doc: Any = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or too many digits
        raise DataError(f"upstream JSON parse failure: {exc}") from None
    if isinstance(doc, list):
        if not doc:
            raise DataError("no nodes: empty upstream document")
        doc = doc[0]
    if not isinstance(doc, dict):
        raise DataError("upstream document is not an object")

    for name in UPSTREAM_FIELDS:
        if name not in doc:
            raise DataError(f"upstream document missing field {name!r}")
        if not isinstance(doc[name], list):
            raise DataError(f"upstream field {name!r} is not an array")
    ids, targets, weights = (doc[name] for name in UPSTREAM_FIELDS)
    if not ids:
        raise DataError("no nodes: empty node list")
    if not (len(ids) == len(targets) == len(weights)):
        raise DataError("upstream node/target/weight arrays differ in length")

    names = {x for x in ids if isinstance(x, str)}  # what a string target may name
    edges = []
    for i, (node, outs, wts) in enumerate(zip(ids, targets, weights)):
        # a bool is an int to Python, but JSON true and false are not numbers
        if isinstance(node, bool) or not isinstance(node, (str, int, float)):
            raise DataError(f"node {i}: id {node!r} is not a string or a number")
        if not (isinstance(outs, list) and isinstance(wts, list)):
            raise DataError(f"node {node!r}: targets and weights must be arrays")
        if len(outs) != len(wts):
            raise DataError(f"node {node!r}: {len(outs)} targets but {len(wts)} weights")
        for j, w in zip(outs, wts):
            if isinstance(j, bool) or not isinstance(j, (int, str)):
                raise DataError(f"node {node!r}: target {j!r} is not an index or a node id")
            if isinstance(j, int) and not (0 <= j < len(ids)):
                raise DataError(f"node {node!r}: target index {j} out of range")
            if isinstance(j, str) and j not in names:
                raise DataError(f"node {node!r}: target id {j!r} not in usernameList")
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise DataError(f"node {node!r}: weight {w!r} is not a number")
            edges.append((node, ids[j] if isinstance(j, int) else j, w))
    return Graph(edges, nodes=ids)


def edge_csv_dump(graph: Graph) -> str:
    """The canonical edge CSV, with ``\\n`` line ends; weights round-trip exactly."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "target", "weight"])
    for s, t, w in graph.edge_records():
        writer.writerow([s, t, repr(w)])
    return buf.getvalue()


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write the canonical edge CSV; weights round-trip exactly."""
    Path(path).write_text(edge_csv_dump(graph), encoding="utf-8", newline="")


def load_attributes(source: str | Path | bytes | IO, graph: Graph) -> AttributeTable:
    """Read the attribute CSV and align its rows to graph indices.

    A str or Path names the file; content is passed as bytes or a text or
    binary handle. Known columns beyond node_id: party, chamber, state,
    race, ethnicity, religion, sex, lgbtq (categorical) and age, tenure
    (numeric). Unknown columns are ignored with a warning; absent
    optional columns simply stay unloaded.
    """
    names, rows = _csv_table(_as_text(source), "attribute CSV", ("node_id",),
                             "attribute stream is empty")
    known = set(CATEGORICAL_COLUMNS) | set(NUMERIC_COLUMNS) | {"node_id"}
    unknown = [h for h in names if h not in known]
    if unknown:
        warnings.warn(f"ignoring unknown attribute columns: {', '.join(unknown)}")
    cat_cols = [h for h in names if h in CATEGORICAL_COLUMNS]
    num_cols = [h for h in names if h in NUMERIC_COLUMNS]

    n = graph.n
    cat_data: dict[str, list[str | None]] = {c: [None] * n for c in cat_cols}
    num_data: dict[str, list[float]] = {c: [0.0] * n for c in num_cols}
    seen = [False] * n
    # a row's missing trailing fields read as empty
    for line, values in rows:
        row = dict(zip(names, values))
        node = (row.get("node_id") or "").strip()
        if node not in graph:
            raise DataError(f"line {line}: node_id {node!r} absent from graph")
        i = graph.index_of(node)
        if seen[i]:
            raise DataError(f"line {line}: duplicated node_id {node!r}")
        seen[i] = True
        for c in cat_cols:
            cat_data[c][i] = (row.get(c) or "").strip()
        for c in num_cols:
            raw = (row.get(c) or "").strip()
            try:
                num_data[c][i] = float(raw)
            except ValueError:
                raise DataError(f"line {line}: {c} value {raw!r} is not numeric") from None
    # every row names a distinct node of the graph, so one per node is all
    if not all(seen):
        raise DataError(f"attribute/graph mismatch: {sum(seen)} rows for {n} nodes")
    return AttributeTable(graph.node_ids, cat_data, num_data)


# -- exports ------------------------------------------------------------------


_XML_REFS = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                           "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})
# XML 1.0 cannot carry these C0 controls at all, even as character references.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f]")


def _xml_escape(values: Iterable[Any], what: str) -> list[str]:
    """Each value's text, escaped for an XML attribute or element. Tabs and
    line breaks become character references, which survive the parser's
    normalization of attribute values; any other C0 control character is a
    DataError naming `what` and the value."""
    out = []
    for value in map(str, values):
        if _XML_FORBIDDEN.search(value):
            raise DataError(f"{what} {value!r} holds a control character "
                            f"that GraphML cannot carry")
        out.append(value.translate(_XML_REFS))
    return out


def graphml_dump(graph: Graph, attrs: AttributeTable | None = None) -> str:
    """Serialize the graph (and any attributes) as GraphML; an id or
    categorical value that XML cannot carry is a DataError (_xml_escape)."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
             '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>']
    # each column read once, as its per-node text
    columns: list[tuple[str, str, list[str]]] = []
    if attrs is not None:
        for c in attrs.categorical_columns:
            columns.append((c, "string", _xml_escape(attrs.categorical(c), f"{c} value")))
        for c in attrs.numeric_columns:
            columns.append((c, "double", [repr(v) for v in attrs.numeric(c).tolist()]))
        for c, kind, _ in columns:
            lines.append(f'  <key id="{c}" for="node" attr.name="{c}" attr.type="{kind}"/>')
    lines.append('  <graph id="G" edgedefault="directed">')
    ids = _xml_escape(graph.node_ids, "node id")
    for i, nid in enumerate(ids):
        if not columns:
            lines.append(f'    <node id="{nid}"/>')
            continue
        lines.append(f'    <node id="{nid}">')
        for c, _, values in columns:
            lines.append(f'      <data key="{c}">{values[i]}</data>')
        lines.append('    </node>')
    for s, t, w in zip(*(a.tolist() for a in graph.edge_arrays())):
        lines.append(f'    <edge source="{ids[s]}" target="{ids[t]}">'
                     f'<data key="weight">{w!r}</data></edge>')
    lines.append('  </graph>')
    lines.append('</graphml>')
    return "\n".join(lines) + "\n"


def dot_dump(graph: Graph, attrs: AttributeTable | None = None) -> str:
    """Serialize the graph (and any attributes) in DOT syntax."""
    def q(value: Any) -> str:
        return '"' + str(value).replace("\\", r"\\").replace('"', r'\"') + '"'

    # each column read once, as its per-node "name=value" text
    columns: list[list[str]] = []
    if attrs is not None:
        columns += [[f"{c}={q(v)}" for v in attrs.categorical(c)]
                    for c in attrs.categorical_columns]
        columns += [[f"{c}={v!r}" for v in attrs.numeric(c).tolist()]
                    for c in attrs.numeric_columns]
    ids = [q(node) for node in graph.node_ids]
    lines = ["digraph G {"]
    for i, nid in enumerate(ids):
        suffix = f" [{', '.join(col[i] for col in columns)}]" if columns else ""
        lines.append(f"  {nid}{suffix};")
    for s, t, w in zip(*(a.tolist() for a in graph.edge_arrays())):
        lines.append(f"  {ids[s]} -> {ids[t]} [weight={w!r}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_graphml(graph: Graph, path: str | Path,
                 attrs: AttributeTable | None = None) -> None:
    Path(path).write_text(graphml_dump(graph, attrs), encoding="utf-8")


def save_dot(graph: Graph, path: str | Path,
             attrs: AttributeTable | None = None) -> None:
    Path(path).write_text(dot_dump(graph, attrs), encoding="utf-8")
