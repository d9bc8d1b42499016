"""Directed weighted graph with frozen node indexing.

Nodes are numbered 0..n-1 in order of first appearance in the edge
stream (source before target within a record); an optional explicit
node list may pre-register ids, which is how isolated nodes enter.
Edge weights must lie in (0, 1]; self-loops and duplicate directed
edges are rejected. Instances are immutable once built.

Edges are kept in storage order (the order that round-trips) and as
three CSR adjacencies with sorted indices: out (weighted), in and
undirected. Neighbors are row slices, degrees are row-pointer
differences, and components come from `scipy.sparse.csgraph`, which is
imported on first use: most commands never need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_array

from .errors import DataError

NodeId = Hashable


def _rows(a: csr_array, i: int) -> np.ndarray:
    return a.indices[a.indptr[i]:a.indptr[i + 1]]


def _check_index(i: int, n: int) -> int:
    """i, if it is a node index of an n-node graph; otherwise a DataError."""
    if not 0 <= i < n:
        raise DataError(f"node index {i} out of range for {n} nodes")
    return i


def _grouped(labels: np.ndarray) -> list[list[int]]:
    """Node sets per component label, ordered by their smallest member."""
    comps: dict[int, list[int]] = {}
    for v, label in enumerate(labels.tolist()):
        comps.setdefault(label, []).append(v)
    return list(comps.values())


class Graph:
    """Immutable directed graph with weighted edges.

    Parameters
    ----------
    edges : iterable of (source, target, weight)
        Edge records in the order they should be stored. Node ids may
        be any hashable value.
    nodes : sequence of node ids, optional
        Ids to register (in order) before any edge is read. Ids that
        also appear in `edges` keep the index assigned here.
    """

    __slots__ = ("_ids", "_index", "_src", "_dst", "_w", "_out", "_in", "_und")

    def __init__(self,
                 edges: Iterable[tuple[NodeId, NodeId, float]],
                 nodes: Sequence[NodeId] | None = None) -> None:
        index: dict[NodeId, int] = {}  # id -> index, in order of first appearance
        if nodes is not None:
            for node in nodes:
                if node in index:
                    raise DataError(f"duplicate node id {node!r} in node list")
                index[node] = len(index)

        src: list[int] = []
        dst: list[int] = []
        wts: list[float] = []
        seen: set[tuple[int, int]] = set()
        for rec_no, (s, t, w) in enumerate(edges, start=1):
            i = index.setdefault(s, len(index))
            j = index.setdefault(t, len(index))
            if i == j:
                raise DataError(f"self-loop on node {s!r} (edge record {rec_no})")
            try:
                w = float(w)
            except (TypeError, ValueError, OverflowError):
                raise DataError(f"edge weight {w!r} is not a number on {s!r}->{t!r} "
                                f"(edge record {rec_no})") from None
            if not (0.0 < w <= 1.0):
                raise DataError(
                    f"edge weight {w!r} outside (0, 1] on {s!r}->{t!r} (edge record {rec_no})")
            if (i, j) in seen:
                raise DataError(f"duplicate edge {s!r}->{t!r} (edge record {rec_no})")
            seen.add((i, j))
            src.append(i)
            dst.append(j)
            wts.append(w)

        n = len(index)
        self._ids: tuple[NodeId, ...] = tuple(index)
        self._index = index
        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)
        self._w = np.asarray(wts, dtype=np.float64)
        # scipy builds all three in canonical form: sorted, no duplicates
        self._out = csr_array((self._w, (self._src, self._dst)), shape=(n, n))
        self._in = self._out.T.tocsr()
        # only its pattern is read; weights are positive, so no entry cancels
        self._und = self._out + self._out.T
        # read-only, because edge_arrays and the neighbor methods return views
        for arr in (self._src, self._dst, self._w, *(
                a for m in (self._out, self._in, self._und)
                for a in (m.data, m.indices, m.indptr))):
            arr.flags.writeable = False

    # -- size and identity -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return int(self._src.shape[0])

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        return self._ids

    def index_of(self, node: NodeId) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise DataError(f"unknown node id {node!r}") from None

    def id_of(self, index: int) -> NodeId:
        return self._ids[_check_index(index, self.n)]

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    # -- edges --------------------------------------------------------------

    def _slot(self, i: int, j: int) -> int:
        """Position of edge i->j in the out-CSR arrays, or -1."""
        if not (0 <= i < self.n):
            return -1
        lo, hi = self._out.indptr[i], self._out.indptr[i + 1]
        k = lo + int(np.searchsorted(self._out.indices[lo:hi], j))
        return k if k < hi and self._out.indices[k] == j else -1

    def has_edge(self, i: int, j: int) -> bool:
        return self._slot(i, j) >= 0

    def weight(self, i: int, j: int) -> float:
        k = self._slot(_check_index(i, self.n), _check_index(j, self.n))
        if k < 0:
            raise DataError(f"no edge {self._ids[i]!r}->{self._ids[j]!r}")
        return float(self._out.data[k])

    def edge_records(self) -> Iterator[tuple[NodeId, NodeId, float]]:
        """Yield (source_id, target_id, weight) in storage order."""
        for i, j, w in zip(self._src, self._dst, self._w):
            yield self._ids[i], self._ids[j], float(w)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (sources, targets, weights) as read-only views."""
        return self._src, self._dst, self._w

    # -- neighborhoods -------------------------------------------------------

    def out_neighbors(self, i: int) -> np.ndarray:
        """Targets of i's out-edges, ascending (a read-only view)."""
        return _rows(self._out, _check_index(i, self.n))

    def in_neighbors(self, i: int) -> np.ndarray:
        """Sources of i's in-edges, ascending (a read-only view)."""
        return _rows(self._in, _check_index(i, self.n))

    def undirected_neighbors(self, i: int) -> np.ndarray:
        """Neighbors of i ignoring direction, each listed once, ascending."""
        return _rows(self._und, _check_index(i, self.n))

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._out.indptr)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self._in.indptr)

    def out_strengths(self) -> np.ndarray:
        # summed in edge storage order: CSR row order would change the
        # last bits, and model covariates are built from these values
        return np.bincount(self._src, weights=self._w, minlength=self.n)

    def adjacency(self, weighted: bool = False,
                  sparse: bool = False) -> np.ndarray | csr_array:
        """Adjacency matrix, CSR if `sparse`; entry [i, j] covers the edge i->j."""
        if sparse:
            a = self._out.copy()
            if not weighted:
                a.data[:] = 1.0
            return a
        a = np.zeros((self.n, self.n))
        a[self._src, self._dst] = self._w if weighted else 1.0
        return a

    # -- components ----------------------------------------------------------

    def weak_components(self) -> list[list[int]]:
        """Connected components of the undirected projection.

        Components are ordered by their smallest member; members are
        sorted ascending.
        """
        from scipy.sparse.csgraph import connected_components

        return _grouped(connected_components(self._und, directed=False)[1])

    def strong_components(self) -> list[list[int]]:
        """Strongly connected components.

        Same ordering conventions as `weak_components`.
        """
        from scipy.sparse.csgraph import connected_components

        return _grouped(connected_components(self._out, directed=True,
                                             connection="strong")[1])

    def articulation_points(self) -> list[int]:
        """Cut vertices of the undirected projection, sorted ascending.

        Iterative Hopcroft-Tarjan DFS over the rows of the undirected
        CSR; `scipy.sparse.csgraph` has no cut-vertex routine.
        """
        indptr = self._und.indptr.tolist()
        nbrs = self._und.indices.tolist()
        n = self.n
        disc = [-1] * n
        low = [0] * n
        cut = [False] * n
        counter = 0
        for root in range(n):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = counter
            counter += 1
            root_children = 0
            # (vertex, DFS parent, position of its next neighbor in nbrs)
            work = [(root, -1, indptr[root])]
            while work:
                v, parent, k = work.pop()
                if k < indptr[v + 1]:
                    work.append((v, parent, k + 1))
                    u = nbrs[k]
                    if disc[u] < 0:
                        disc[u] = low[u] = counter
                        counter += 1
                        if v == root:
                            root_children += 1
                        work.append((u, v, indptr[u]))
                    elif u != parent:
                        low[v] = min(low[v], disc[u])
                elif parent >= 0:  # v is finished: pass its low link up
                    low[parent] = min(low[parent], low[v])
                    if parent != root and low[v] >= disc[parent]:
                        cut[parent] = True
            cut[root] = root_children >= 2
        return [v for v in range(n) if cut[v]]

    # -- derived graphs --------------------------------------------------------

    def induced_subgraph(self, nodes: Sequence[int]) -> "Graph":
        """Subgraph on the given node indices.

        New indices follow the relative order of the old ones; edges
        keep their original storage order. Ids carry over, so isolated
        members stay addressable.
        """
        keep = sorted(set(_check_index(int(v), self.n) for v in nodes))
        keep_set = set(keep)
        ids = [self._ids[v] for v in keep]
        recs = [(self._ids[i], self._ids[j], float(w))
                for i, j, w in zip(self._src, self._dst, self._w)
                if int(i) in keep_set and int(j) in keep_set]
        return Graph(recs, nodes=ids)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class ComponentReport:
    """Connectivity census of a graph."""

    weak_sizes: tuple[int, ...]
    strong_sizes: tuple[int, ...]
    articulation_points: tuple[NodeId, ...]
    is_giant_weak_component: bool
    is_strongly_connected: bool


def components(graph: Graph) -> ComponentReport:
    """Weak/strong component sizes plus undirected cut vertices."""
    weak = graph.weak_components()
    strong = graph.strong_components()
    cuts = tuple(graph.id_of(v) for v in graph.articulation_points())
    return ComponentReport(
        weak_sizes=tuple(sorted((len(c) for c in weak), reverse=True)),
        strong_sizes=tuple(sorted((len(c) for c in strong), reverse=True)),
        articulation_points=cuts,
        is_giant_weak_component=(len(weak) == 1),
        is_strongly_connected=(len(strong) == 1),
    )
