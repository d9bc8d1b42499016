"""Shared fixtures and brute-force oracles.

The oracles recompute every quantity from first principles (path
enumeration, subset checks, full graph enumeration) so the fast
implementations are tested against something independent. They are
only usable at toy sizes; that is the point.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

import legnet

# The benchmark's seeded input generator, imported read-only as
# bench/tests/conftest.py imports it: one generator serves both suites.
BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))
import gen  # noqa: E402

# -- real-dataset discovery ----------------------------------------------------

DATASET_ENV = "LEGNET_CONGRESS_DATA"
DATASET_NOTICE = (
    "real interaction dataset not present: set LEGNET_CONGRESS_DATA to a "
    "directory holding the edge export (congress_network_data.json or "
    "congress_edges.csv), or drop the files under tests/data/"
)
ATTRS_NOTICE = (
    "member attribute table not present: expected congress_attrs.csv next "
    "to the edge export (columns node_id,party,chamber,state,race,"
    "ethnicity,religion,sex,lgbtq,age,tenure)"
)

Dataset = namedtuple("Dataset", "edges format attrs")


def find_dataset() -> Dataset:
    roots = []
    env = os.environ.get(DATASET_ENV)
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).parent / "data")
    for root in roots:
        for name, fmt in (("congress_network_data.json", "upstream-json"),
                          ("congress_edges.csv", "csv")):
            path = root / name
            if path.is_file():
                attrs = root / "congress_attrs.csv"
                return Dataset(str(path), fmt, str(attrs) if attrs.is_file() else None)
    return Dataset(None, None, None)


@pytest.fixture(scope="session")
def dataset() -> Dataset:
    return find_dataset()


@pytest.fixture(scope="session")
def congress_graph(dataset):
    if dataset.edges is None:
        pytest.skip(DATASET_NOTICE)
    return legnet.load_edge_list(dataset.edges, format=dataset.format)


@pytest.fixture(scope="session")
def congress_attrs(dataset, congress_graph):
    if dataset.edges is None:
        pytest.skip(DATASET_NOTICE)
    if dataset.attrs is None:
        pytest.skip(ATTRS_NOTICE)
    return legnet.load_attributes(dataset.attrs, congress_graph)


@pytest.fixture(scope="session")
def congress_centrality(congress_graph):
    return legnet.centrality_report(congress_graph)


@pytest.fixture(scope="session")
def published_graph(tmp_path_factory):
    """The benchmark generator's seed-1 graph at the published size (n=475,
    13,300 edges, reciprocity 0.46) as legnet loads it, and the census the
    generator took of it without legnet."""
    out = tmp_path_factory.mktemp("generated")
    census = gen.generate(1, out, shapes=("published",))["published"]
    return legnet.load_edge_list(out / "published_edges.csv"), census


@pytest.fixture(scope="session")
def estimability_case(tmp_path_factory):
    """The estimability fixture: the generator's seed-1 congress graph
    (n=300) and `attrs_with(e)`, its attribute table with `ethnicity`
    rewritten. Every race-Hispanic member (32) is Hispanic, and so are
    the first e race-White members, in attribute-file order, that have no
    tie either way to a race-Hispanic member (24 qualify); everyone else
    is Not Hispanic. At e = 0 model4's match(race=Hispanic) and
    match(ethnicity=Hispanic) are the same column; at e >= 1 they
    separate the data along their difference. Returns (graph,
    attrs_with, hispanic ids, qualifying White ids)."""
    out = tmp_path_factory.mktemp("estimability")
    gen.generate(1, out, shapes=("congress",))
    graph = legnet.load_edge_list(out / "congress_edges.csv")
    with open(out / "congress_attrs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    hispanic = {row["node_id"] for row in rows if row["race"] == "Hispanic"}
    src, dst, _ = graph.edge_arrays()
    ends = [(graph.id_of(s), graph.id_of(t)) for s, t in zip(src, dst)]
    tied = {a for s, t in ends for a, b in ((s, t), (t, s)) if b in hispanic}
    white = [row["node_id"] for row in rows
             if row["race"] == "White" and row["node_id"] not in tied]

    def attrs_with(e: int) -> legnet.AttributeTable:
        marked = hispanic | set(white[:e])
        path = out / f"attrs_{e}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({**row, "ethnicity": "Hispanic" if row["node_id"] in marked
                              else "Not Hispanic"} for row in rows)
        return legnet.load_attributes(path, graph)

    return graph, attrs_with, hispanic, white


# -- synthetic graphs -----------------------------------------------------------


@pytest.fixture(scope="session")
def pure_sbm_graph():
    """A pure directed SBM with a known answer: n=150 in 3 equal blocks,
    every member equally active, ties drawn independently with probability
    0.25 within a block and 0.03 between blocks. Returns the graph and the
    planted block of each node index."""
    rng = np.random.default_rng(1)
    blocks = np.repeat(np.arange(3), 50)
    prob = np.where(blocks[:, None] == blocks[None, :], 0.25, 0.03)
    y = (rng.random(prob.shape) < prob) & ~np.eye(blocks.size, dtype=bool)
    return graph_from_matrix(y), blocks


def graph_from_matrix(y, ids=None, rng=None) -> legnet.Graph:
    """Binary adjacency to a Graph; weights drawn in (0,1] when rng given."""
    y = np.asarray(y, dtype=bool)
    n = y.shape[0]
    if ids is None:
        ids = [f"v{i:02d}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and y[i, j]:
                w = 0.5 if rng is None else float(rng.uniform(0.01, 1.0))
                edges.append((ids[i], ids[j], w))
    return legnet.Graph(edges, nodes=ids)


def matrix_of(graph: legnet.Graph) -> np.ndarray:
    return (graph.adjacency(weighted=False) > 0)


def random_digraph(n, p=0.3, seed=0, mutual_boost=0.0, weighted=True):
    rng = np.random.default_rng(seed)
    y = (rng.random((n, n)) < p) & ~np.eye(n, dtype=bool)
    if mutual_boost:
        for i in range(n):
            for j in range(i + 1, n):
                if y[i, j] and not y[j, i] and rng.random() < mutual_boost:
                    y[j, i] = True
    return graph_from_matrix(y, rng=rng if weighted else None)


def graph_with_a_sink(n=12, seed=7) -> legnet.Graph:
    """A random digraph where node 0 has no out-tie: its closeness is NaN."""
    y = matrix_of(random_digraph(n, p=0.3, seed=seed))
    y[0, :] = False
    y[1:, 0] = True
    return graph_from_matrix(y)


def toy_tables(seed=11, n=30, split=15):
    """Two planted caucuses with attributes; clearly synthetic names."""
    rng = np.random.default_rng(seed)
    ids = [f"member{i:02d}" for i in range(n)]
    block = np.array([0] * split + [1] * (n - split))
    y = np.zeros((n, n), bool)
    for i in range(n):
        for j in range(n):
            if i != j:
                y[i, j] = rng.random() < (0.45 if block[i] == block[j] else 0.08)
    for i in range(n):
        for j in range(n):
            if y[i, j] and not y[j, i] and rng.random() < 0.5:
                y[j, i] = True
    edges = [(ids[i], ids[j], round(float(rng.uniform(0.05, 0.95)), 3))
             for i in range(n) for j in range(n) if y[i, j]]
    rows = []
    for i, nid in enumerate(ids):
        rows.append({
            "node_id": nid,
            "party": "Blue" if block[i] == 0 else "Gold",
            "chamber": "Upper" if i % 3 == 0 else "Lower",
            "state": f"S{i % 5}",
            "race": ["R1", "R2", "R3"][i % 3],
            "ethnicity": ["E1", "E2"][i % 2],
            "religion": ["F1", "F2"][i % 2],
            "sex": ["F", "M"][i % 2],
            "lgbtq": "Yes" if i % 7 == 0 else "No",
            "age": str(35 + (i * 7) % 40),
            "tenure": str((i * 3) % 25),
        })
    return edges, rows


def write_toy(dirpath: Path, seed=11, n=30) -> tuple[Path, Path]:
    edges, rows = toy_tables(seed=seed, n=n)
    epath, apath = dirpath / "edges.csv", dirpath / "attrs.csv"
    with open(epath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "weight"])
        writer.writerows(edges)
    with open(apath, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return epath, apath


@pytest.fixture()
def toy_paths(tmp_path):
    return write_toy(tmp_path)


# -- path/centrality oracles (enumeration) ----------------------------------


def oracle_distances(y) -> np.ndarray:
    y = np.asarray(y, dtype=bool)
    n = y.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[y] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def oracle_closeness(y) -> np.ndarray:
    dist = oracle_distances(y)
    n = dist.shape[0]
    out = np.full(n, np.nan)
    for i in range(n):
        reach = [dist[i, j] for j in range(n) if j != i and np.isfinite(dist[i, j])]
        if reach:
            out[i] = len(reach) / sum(reach)
    return out


def _all_paths(y, s, t):
    """Every simple directed path from s to t, by brute permutation."""
    n = y.shape[0]
    rest = [v for v in range(n) if v not in (s, t)]
    for k in range(0, n - 1):
        found = []
        for mids in itertools.permutations(rest, k):
            seq = (s,) + mids + (t,)
            if all(y[seq[i], seq[i + 1]] for i in range(len(seq) - 1)):
                found.append(seq)
        if found:
            return found
    return []


def oracle_betweenness(y) -> np.ndarray:
    y = np.asarray(y, dtype=bool)
    n = y.shape[0]
    bt = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            shortest = _all_paths(y, s, t)
            if not shortest:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                through = sum(1 for p in shortest if v in p[1:-1])
                bt[v] += through / len(shortest)
    return bt / ((n - 1) * (n - 2))


def oracle_local_clustering(y) -> np.ndarray:
    y = np.asarray(y, dtype=bool)
    u = y | y.T
    n = y.shape[0]
    out = np.full(n, np.nan)
    for i in range(n):
        nbrs = [j for j in range(n) if u[i, j]]
        if len(nbrs) < 2:
            continue
        links = sum(1 for a, b in itertools.combinations(nbrs, 2) if u[a, b])
        out[i] = links / (len(nbrs) * (len(nbrs) - 1) / 2)
    return out


def oracle_triangle_ratio(y) -> float:
    """Closed directed-projection triples over connected triples."""
    u = np.asarray(y, dtype=bool)
    u = u | u.T
    n = u.shape[0]
    closed = open_or_closed = 0
    for v in range(n):
        nbrs = [j for j in range(n) if u[v, j]]
        for a, b in itertools.permutations(nbrs, 2):
            open_or_closed += 1
            if u[a, b]:
                closed += 1
    return closed / open_or_closed if open_or_closed else float("nan")


def oracle_maximal_cliques(y, min_size=1):
    u = np.asarray(y, dtype=bool)
    u = u | u.T
    n = u.shape[0]
    cliques = []
    for k in range(min_size, n + 1):
        for combo in itertools.combinations(range(n), k):
            if all(u[a, b] for a, b in itertools.combinations(combo, 2)):
                cliques.append(set(combo))
    maximal = [c for c in cliques
               if not any(c < other for other in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def oracle_eigen(y) -> np.ndarray:
    u = (np.asarray(y, dtype=bool) | np.asarray(y, dtype=bool).T).astype(float)
    vals, vecs = np.linalg.eigh(u)
    lead = np.abs(vecs[:, np.argmax(vals)])
    return lead / lead.max()


def oracle_hits(y) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y, dtype=float)
    def principal(m):
        vals, vecs = np.linalg.eigh(m)
        v = np.abs(vecs[:, np.argmax(vals)])
        return v / v.max()
    return principal(a @ a.T), principal(a.T @ a)


# -- partition oracles -----------------------------------------------------


def oracle_pair_counts(a, b):
    n = len(a)
    s11 = s10 = s01 = s00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a, same_b = a[i] == a[j], b[i] == b[j]
            if same_a and same_b:
                s11 += 1
            elif same_a:
                s10 += 1
            elif same_b:
                s01 += 1
            else:
                s00 += 1
    return s11, s10, s01, s00


def oracle_rand(a, b) -> float:
    s11, s10, s01, s00 = oracle_pair_counts(a, b)
    return (s11 + s00) / (s11 + s10 + s01 + s00)


def oracle_ari(a, b) -> float:
    s11, s10, s01, s00 = oracle_pair_counts(a, b)
    total = s11 + s10 + s01 + s00
    pa, pb = s11 + s10, s11 + s01
    expected = pa * pb / total
    max_index = (pa + pb) / 2
    if max_index == expected:
        return 1.0
    return (s11 - expected) / (max_index - expected)


def oracle_nmi(a, b) -> float:
    n = len(a)
    def entropy(labels):
        h = 0.0
        for lvl in set(labels):
            p = sum(1 for v in labels if v == lvl) / n
            h -= p * math.log(p)
        return h
    ha, hb = entropy(a), entropy(b)
    mi = 0.0
    for la in set(a):
        for lb in set(b):
            joint = sum(1 for i in range(n) if a[i] == la and b[i] == lb) / n
            if joint > 0:
                pa = sum(1 for v in a if v == la) / n
                pb = sum(1 for v in b if v == lb) / n
                mi += joint * math.log(joint / (pa * pb))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return mi / ((ha + hb) / 2)


def set_partitions(n):
    """All partitions of range(n) as label vectors (restricted growth)."""
    def rec(i, labels, used):
        if i == n:
            yield tuple(labels)
            return
        for lbl in range(used + 1):
            labels.append(lbl)
            yield from rec(i + 1, labels, max(used, lbl + 1))
            labels.pop()
    yield from rec(0, [], 0)


# -- model-fit oracles -------------------------------------------------------


def oracle_statistics(y, terms) -> np.ndarray:
    """Count statistics straight from the definitions.

    Term tuples: ("edges",), ("mutual",), ("cov", x, role),
    ("match", labels, level-or-None), ("absdiff", x).
    """
    y = np.asarray(y, dtype=bool)
    n = y.shape[0]
    stats = []
    for term in terms:
        kind = term[0]
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i == j or not y[i, j]:
                    continue
                if kind == "edges":
                    total += 1
                elif kind == "mutual":
                    total += 0.5 if y[j, i] else 0.0
                elif kind == "cov":
                    x, role = term[1], term[2]
                    total += {"sender": x[i], "receiver": x[j],
                              "sum": x[i] + x[j]}[role]
                elif kind == "match":
                    labels, level = term[1], term[2]
                    if labels[i] == labels[j] and (level is None or labels[i] == level):
                        total += 1
                elif kind == "absdiff":
                    total += abs(term[1][i] - term[1][j])
        stats.append(total)
    return np.array(stats, dtype=float)


def enumerate_graphs(n):
    """Every simple directed graph on n labelled nodes."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(slots)):
        y = np.zeros((n, n), bool)
        for (i, j), bit in zip(slots, bits):
            y[i, j] = bit
        yield y


def oracle_mle(y_obs, terms, n=None):
    """Exact MLE by optimizing the fully enumerated likelihood."""
    n = y_obs.shape[0] if n is None else n
    all_stats = np.array([oracle_statistics(y, terms) for y in enumerate_graphs(n)])
    g_obs = oracle_statistics(y_obs, terms)

    def negll(theta):
        return -(theta @ g_obs - logsumexp(all_stats @ theta))

    res = minimize(negll, np.zeros(len(terms)), method="BFGS",
                   options={"gtol": 1e-10})
    return res.x, -res.fun


def ordered_design_matrix(design) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of a DyadDesign over all n(n-1) ordered pairs: the dense MPLE reference.

    Row order: all (i, j) with i < j first, then all (j, i). Each row is
    the change statistic of that tie in the observed graph; y holds the
    observed ties. `fit_mple` sums the same rows over dyad blocks.
    """
    d = design.n_dyads
    x = np.zeros((design.k, 2 * d))
    x[:, :d] = np.outer(design.mvec, design.y2)
    x[:, d:] = np.outer(design.mvec, design.y1)
    x[design.sym, :d] = x[design.sym, d:] = design.s
    x[design.asym, :d] = design.a1
    x[design.asym, d:] = design.a2
    y = np.concatenate([design.y1, design.y2]).astype(np.float64)
    return x.T, y
