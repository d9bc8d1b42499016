"""Directed weighted graph with frozen node indexing.

Nodes are numbered 0..n-1 in order of first appearance in the edge
stream (source before target within a record); an optional explicit
node list may pre-register ids, which is how isolated nodes enter.
Edge weights must lie in (0, 1]; self-loops and duplicate directed
edges are rejected. Instances are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_array

from .errors import DataError

NodeId = Hashable


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

    __slots__ = ("_ids", "_index", "_src", "_dst", "_w", "_pos",
                 "_out", "_in", "_out_w")

    def __init__(self,
                 edges: Iterable[tuple[NodeId, NodeId, float]],
                 nodes: Sequence[NodeId] | None = None) -> None:
        ids: list[NodeId] = []
        index: dict[NodeId, int] = {}

        def intern(node: NodeId) -> int:
            i = index.get(node)
            if i is None:
                i = len(ids)
                index[node] = i
                ids.append(node)
            return i

        if nodes is not None:
            for node in nodes:
                if node in index:
                    raise DataError(f"duplicate node id {node!r} in node list")
                intern(node)

        src: list[int] = []
        dst: list[int] = []
        wts: list[float] = []
        pos: dict[tuple[int, int], int] = {}
        for rec_no, (s, t, w) in enumerate(edges, start=1):
            i, j = intern(s), intern(t)
            if i == j:
                raise DataError(f"self-loop on node {s!r} (edge record {rec_no})")
            w = float(w)
            if not (0.0 < w <= 1.0):
                raise DataError(
                    f"edge weight {w!r} outside (0, 1] on {s!r}->{t!r} (edge record {rec_no})")
            if (i, j) in pos:
                raise DataError(f"duplicate edge {s!r}->{t!r} (edge record {rec_no})")
            pos[(i, j)] = len(src)
            src.append(i)
            dst.append(j)
            wts.append(w)

        self._ids: tuple[NodeId, ...] = tuple(ids)
        self._index = index
        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)
        self._w = np.asarray(wts, dtype=np.float64)
        self._pos = pos

        n = len(ids)
        out_lists: list[list[int]] = [[] for _ in range(n)]
        in_lists: list[list[int]] = [[] for _ in range(n)]
        for i, j in zip(src, dst):
            out_lists[i].append(j)
            in_lists[j].append(i)
        # Neighbor arrays are sorted so traversals are order-independent
        # of the input file; edge storage order is what round-trips.
        self._out = tuple(np.asarray(sorted(a), dtype=np.int64) for a in out_lists)
        self._in = tuple(np.asarray(sorted(a), dtype=np.int64) for a in in_lists)
        out_w = np.zeros(n)
        np.add.at(out_w, self._src, self._w)
        self._out_w = out_w

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
        return self._ids[index]

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    # -- edges --------------------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._pos

    def weight(self, i: int, j: int) -> float:
        p = self._pos.get((i, j))
        if p is None:
            raise DataError(f"no edge {self._ids[i]!r}->{self._ids[j]!r}")
        return float(self._w[p])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (source_index, target_index, weight) in storage order."""
        for i, j, w in zip(self._src, self._dst, self._w):
            yield int(i), int(j), float(w)

    def edge_records(self) -> Iterator[tuple[NodeId, NodeId, float]]:
        """Yield (source_id, target_id, weight) in storage order."""
        for i, j, w in zip(self._src, self._dst, self._w):
            yield self._ids[i], self._ids[j], float(w)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (sources, targets, weights) as read-only views."""
        return self._src, self._dst, self._w

    # -- neighborhoods -------------------------------------------------------

    def out_neighbors(self, i: int) -> np.ndarray:
        return self._out[i]

    def in_neighbors(self, i: int) -> np.ndarray:
        return self._in[i]

    def out_degrees(self) -> np.ndarray:
        return np.asarray([a.shape[0] for a in self._out], dtype=np.int64)

    def in_degrees(self) -> np.ndarray:
        return np.asarray([a.shape[0] for a in self._in], dtype=np.int64)

    def out_strengths(self) -> np.ndarray:
        return self._out_w.copy()

    def adjacency(self, weighted: bool = False,
                  sparse: bool = False) -> np.ndarray | csr_array:
        """Adjacency matrix, CSR if `sparse`; entry [i, j] covers the edge i->j."""
        values = self._w if weighted else np.ones(self.edge_count)
        if sparse:
            return csr_array((values, (self._src, self._dst)), shape=(self.n, self.n))
        a = np.zeros((self.n, self.n))
        a[self._src, self._dst] = values
        return a

    def undirected_neighbors(self, i: int) -> np.ndarray:
        """Neighbors of i ignoring direction, each listed once."""
        both = np.concatenate([self._out[i], self._in[i]])
        return np.unique(both)

    # -- components ----------------------------------------------------------

    def weak_components(self) -> list[list[int]]:
        """Connected components of the undirected projection.

        Components are ordered by their smallest member; members are
        sorted ascending.
        """
        seen = np.zeros(self.n, dtype=bool)
        comps: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in self.undirected_neighbors(v):
                    if not seen[u]:
                        seen[u] = True
                        stack.append(int(u))
            comps.append(sorted(comp))
        return comps

    def strong_components(self) -> list[list[int]]:
        """Strongly connected components (iterative Tarjan).

        Same ordering conventions as `weak_components`.
        """
        n = self.n
        UNSEEN = -1
        disc = np.full(n, UNSEEN, dtype=np.int64)
        low = np.zeros(n, dtype=np.int64)
        on_stack = np.zeros(n, dtype=bool)
        stack: list[int] = []
        comps: list[list[int]] = []
        counter = 0

        for root in range(n):
            if disc[root] != UNSEEN:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                v, child_i = work[-1]
                if child_i == 0:
                    disc[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                advanced = False
                out = self._out[v]
                while child_i < out.shape[0]:
                    u = int(out[child_i])
                    child_i += 1
                    if disc[u] == UNSEEN:
                        work[-1] = (v, child_i)
                        work.append((u, 0))
                        advanced = True
                        break
                    if on_stack[u]:
                        low[v] = min(low[v], disc[u])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == disc[v]:
                    comp = []
                    while True:
                        u = stack.pop()
                        on_stack[u] = False
                        comp.append(u)
                        if u == v:
                            break
                    comps.append(sorted(comp))
        comps.sort(key=lambda c: c[0])
        return comps

    def articulation_points(self) -> list[int]:
        """Cut vertices of the undirected projection, sorted ascending."""
        n = self.n
        UNSEEN = -1
        disc = np.full(n, UNSEEN, dtype=np.int64)
        low = np.zeros(n, dtype=np.int64)
        cut = np.zeros(n, dtype=bool)
        counter = 0

        for root in range(n):
            if disc[root] != UNSEEN:
                continue
            root_children = 0
            work: list[tuple[int, int, int]] = [(root, UNSEEN, 0)]
            while work:
                v, parent, child_i = work[-1]
                if child_i == 0:
                    disc[v] = low[v] = counter
                    counter += 1
                nbrs = self.undirected_neighbors(v)
                advanced = False
                while child_i < nbrs.shape[0]:
                    u = int(nbrs[child_i])
                    child_i += 1
                    if disc[u] == UNSEEN:
                        if v == root:
                            root_children += 1
                        work[-1] = (v, parent, child_i)
                        work.append((u, v, 0))
                        advanced = True
                        break
                    if u != parent:
                        low[v] = min(low[v], disc[u])
                if advanced:
                    continue
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[v])
                    if p != root and low[v] >= disc[p]:
                        cut[p] = True
            if root_children >= 2:
                cut[root] = True
        return [int(v) for v in np.flatnonzero(cut)]

    # -- derived graphs --------------------------------------------------------

    def induced_subgraph(self, nodes: Sequence[int]) -> "Graph":
        """Subgraph on the given node indices.

        New indices follow the relative order of the old ones; edges
        keep their original storage order. Ids carry over, so isolated
        members stay addressable.
        """
        keep = sorted(set(int(v) for v in nodes))
        for v in keep:
            if not (0 <= v < self.n):
                raise DataError(f"node index {v} out of range")
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
