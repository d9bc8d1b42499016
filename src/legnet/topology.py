"""Descriptive network statistics for directed weighted graphs.

Geodesic metrics (closeness, betweenness) run on the binary digraph:
the stored weights are interaction ratios, not traversal costs. Both
read one BFS sweep over blocks of sources, written as sparse products.
Spectral scores (eigenvector, HITS) default to the binary adjacency
with a weighted toggle. Clique and clustering measures use the
undirected projection, where two nodes count as adjacent when an edge
exists in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, EstimationError
from .graph import Graph
from .partition import count_pairs, label_codes


@dataclass(frozen=True)
class CentralityReport:
    """Per-node score vectors, aligned to graph indices.

    closeness and local_clustering hold NaN where the score is
    undefined (no reachable nodes / degree below 2).
    """

    in_degree: np.ndarray
    out_degree: np.ndarray
    out_strength: np.ndarray
    closeness: np.ndarray
    betweenness: np.ndarray
    eigen: np.ndarray
    hub: np.ndarray
    authority: np.ndarray
    local_clustering: np.ndarray

    def metric(self, name: str) -> np.ndarray:
        if name not in self.__dataclass_fields__:
            raise DataError(f"unknown centrality metric {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class TriadReport:
    transitivity: float
    mean_local_clustering: float
    local_clustering: np.ndarray


@dataclass(frozen=True)
class ConnectivityReport:
    density: float
    reciprocity: float
    transitivity: float
    mean_local_clustering: float
    triad_closed_fraction: float
    maximal_cliques: tuple[tuple[int, ...], ...]
    max_clique_size: int


# -- geodesic centralities ----------------------------------------------------

# sources per block of the geodesic sweep; bounds its n x block work arrays
_BLOCK = 64


def _geodesics(graph: Graph, mode: str = "out") -> tuple[np.ndarray, np.ndarray]:
    """(closeness, summed Brandes dependencies) from one BFS sweep.

    Each block of at most _BLOCK sources advances one BFS level per
    product with `step` (row j: the nodes one step before j on the walk),
    recording levels (dist, -1 where unreached) and shortest-path counts
    (sigma), one column per source. Closeness reads the levels; Brandes'
    backward pass reads levels and counts, one level per product with
    `back` (row j: the nodes one step after j). With D the deepest level
    reached from a block, each pass costs O(D * n * (|E| + n)). Levels
    and path counts are integer sums, exact in any order of summation.
    """
    n = graph.n
    a = graph.adjacency(sparse=True)
    # walking backwards, a node's step row lists its successors: a itself
    step, back = (a.T.tocsr(), a) if mode == "out" else (a, a.T.tocsr())
    close, total = np.empty(n), np.zeros(n)
    for lo in range(0, n, _BLOCK):
        sources = np.arange(lo, min(lo + _BLOCK, n))
        sigma = np.zeros((n, sources.shape[0]))
        sigma[sources, sources - lo] = 1.0
        dist = np.where(sigma > 0, 0, -1)
        frontier, depth = sigma.copy(), 0
        while frontier.any():
            # shortest-path counts into each node first reached at depth + 1
            paths = step @ frontier
            fresh = (paths > 0) & (dist < 0)
            depth += 1
            np.putmask(dist, fresh, depth)
            paths *= fresh  # the next frontier: counts on fresh nodes only
            sigma += paths
            frontier = paths
        with np.errstate(invalid="ignore"):  # 0 / 0: nothing reached, NaN
            close[lo:lo + sources.shape[0]] = ((dist > 0).sum(axis=0)
                                               / np.maximum(dist, 0).sum(axis=0))
        delta = np.zeros_like(sigma)
        for d in range(dist.max(), 1, -1):
            # each level-d node w hands (1 + delta_w) / sigma_w back to its
            # predecessors on level d - 1, scaled there by their own sigma
            share = np.where(dist == d, (1.0 + delta) / np.maximum(sigma, 1.0), 0.0)
            on_level = dist == d - 1
            delta[on_level] += sigma[on_level] * (back @ share)[on_level]
        total += delta.sum(axis=1)
    return close, total


def closeness(graph: Graph, mode: str = "out") -> np.ndarray:
    """Reachable-set closeness under unweighted directed geodesics.

    For node i with nonempty reachable set R_i (i excluded),
    closeness(i) = |R_i| / sum of distances to R_i; NaN when R_i is
    empty. mode "out" follows edge direction, "in" walks edges
    backwards. Reads the levels of `_geodesics`, which also pays
    Brandes' backward pass.
    """
    if graph.n < 2:
        raise DataError("closeness needs at least 2 nodes")
    if mode not in ("out", "in"):
        raise DataError(f"unknown closeness mode {mode!r}")
    return _geodesics(graph, mode)[0]


def _pair_count(graph: Graph) -> int:
    """(n-1)(n-2), the ordered pairs of other nodes a node can lie between."""
    if graph.n < 3:
        raise DataError("betweenness needs at least 3 nodes")
    return (graph.n - 1) * (graph.n - 2)


def betweenness(graph: Graph) -> np.ndarray:
    """Brandes betweenness over directed geodesics, divided by (n-1)(n-2)."""
    pairs = _pair_count(graph)
    return _geodesics(graph)[1] / pairs


# -- spectral centralities ----------------------------------------------------


def _undirected_matrix(graph: Graph, weighted: bool) -> np.ndarray:
    a = graph.adjacency(weighted=weighted)
    if weighted:
        return a + a.T
    return ((a + a.T) > 0).astype(np.float64)


_POWER_TOL = 1e-10        # converged: no entry moved by this much
_POWER_MAX_ITER = 10_000  # steps, after which the score fails


def _power(step, x: np.ndarray, method: str) -> np.ndarray:
    """Fixed point of `step` from x, by plain iteration."""
    for _ in range(_POWER_MAX_ITER):
        y = step(x)
        if np.abs(y - x).max() < _POWER_TOL:
            return y
        x = y
    raise EstimationError(f"{method} did not converge in {_POWER_MAX_ITER} iterations")


def eigen_centrality(graph: Graph, weighted: bool = False) -> np.ndarray:
    """Dominant-eigenvector score on the undirected projection, max 1.

    Power iteration runs on the shifted matrix M + I, which has the
    same dominant eigenvector as M but cannot oscillate on bipartite
    structures.
    """
    if graph.edge_count == 0:
        raise DataError("eigen centrality needs at least one edge")
    m = _undirected_matrix(graph, weighted)

    def step(x: np.ndarray) -> np.ndarray:
        y = m @ x + x  # >= x > 0, so its maximum is positive
        return y / y.max()

    return _power(step, np.full(graph.n, 1.0 / graph.n), "eigen centrality")


def hits(graph: Graph, weighted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Hub and authority scores, each max-normalized every step.

    Alternates a = A^T h, h = A a on the stacked vector [h, a], so both
    stop together once neither moves by the tolerance. Nodes without
    out-edges score hub 0, and nodes without in-edges authority 0.
    """
    if graph.edge_count == 0:
        raise DataError("HITS needs at least one edge")
    a_mat = graph.adjacency(weighted=weighted)
    n = graph.n

    def step(x: np.ndarray) -> np.ndarray:
        # every node with an in-edge keeps a positive authority and every
        # node with an out-edge a positive hub score: no maximum is 0
        auth = a_mat.T @ x[:n]
        auth /= auth.max()
        hub = a_mat @ auth
        return np.concatenate([hub / hub.max(), auth])

    x = _power(step, np.ones(2 * n), "HITS")
    return x[:n], x[n:]


# -- density family -----------------------------------------------------------


def density(graph: Graph) -> float:
    if graph.n < 2:
        raise DataError("density needs at least 2 nodes")
    return graph.edge_count / (graph.n * (graph.n - 1))


def reciprocity(graph: Graph) -> float:
    """Fraction of directed edges whose reverse edge also exists."""
    if graph.edge_count == 0:
        raise DataError("reciprocity needs at least one edge")
    a = graph.adjacency(sparse=True)
    return float(a.multiply(a.T).sum() / graph.edge_count)


# -- triads and clustering ----------------------------------------------------


def triad_closure(graph: Graph) -> TriadReport:
    """Closure statistics on the undirected projection.

    transitivity is the triple ratio 3*(triangles)/(connected triples);
    mean_local_clustering is the neighborhood-average form, the mean of
    the per-node local coefficients over nodes of degree >= 2, which the
    connectivity report also gives as the triad closed fraction. Both are
    reported because the two definitions disagree on most graphs.
    """
    if graph.n < 3:
        raise DataError("triad closure needs at least 3 nodes")
    b = _undirected_matrix(graph, weighted=False)
    deg = b.sum(axis=1)
    b3_diag = ((b @ b) * b).sum(axis=1)
    pairs = deg * (deg - 1)
    local = np.full(graph.n, np.nan)
    ok = pairs > 0
    local[ok] = b3_diag[ok] / pairs[ok]
    triples = pairs.sum()
    transitivity = float(b3_diag.sum() / triples) if triples > 0 else 0.0
    mean_local = float(np.nanmean(local)) if ok.any() else 0.0
    return TriadReport(
        transitivity=transitivity,
        mean_local_clustering=mean_local,
        local_clustering=local,
    )


def maximal_cliques(graph: Graph, min_size: int = 1) -> list[tuple[int, ...]]:
    """All maximal cliques of the undirected projection, size >= min_size.

    Bron-Kerbosch with pivoting; output cliques are sorted internally
    and listed in lexicographic order.
    """
    n = graph.n
    nbr = [set(int(u) for u in graph.undirected_neighbors(i)) for i in range(n)]
    found: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if len(r) + len(p) < min_size:
            return
        if not p and not x:
            found.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & nbr[u]))
        for v in sorted(p - nbr[pivot]):
            expand(r | {v}, p & nbr[v], x & nbr[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    return sorted(found)


# -- assortativity ------------------------------------------------------------


def assortativity_categorical(graph: Graph, labels: Sequence[str]) -> float:
    """Newman's categorical assortativity over the directed mixing matrix."""
    if len(labels) != graph.n:
        raise DataError(f"{len(labels)} labels for {graph.n} nodes")
    if graph.edge_count == 0:
        raise DataError("assortativity needs at least one edge")
    levels, code = label_codes(labels)
    src, dst, _ = graph.edge_arrays()
    e = count_pairs(code[src], code[dst], len(levels), len(levels)) / graph.edge_count
    trace = float(np.trace(e))
    chance = float(e.sum(axis=1) @ e.sum(axis=0))
    if abs(1.0 - chance) < 1e-12:
        if abs(trace - 1.0) < 1e-12:
            return 1.0
        raise DataError("assortativity undefined: degenerate mixing margins")
    return (trace - chance) / (1.0 - chance)


def assortativity_scalar(graph: Graph,
                         values: Sequence[float] | None = None,
                         *,
                         source_values: Sequence[float] | None = None,
                         target_values: Sequence[float] | None = None) -> float | None:
    """Pearson correlation of endpoint scalars over directed edges.

    Pass `values` to score the same per-node scalar on both ends
    (attribute mode), or the source/target pair to split the metric by
    direction (out-in mode). Edges touching a NaN value are dropped;
    zero variance on either end makes the coefficient undefined (None).
    """
    if values is not None:
        source_values = target_values = values
    if source_values is None or target_values is None:
        raise DataError("provide `values` or both `source_values` and `target_values`")
    xs = np.asarray(source_values, dtype=np.float64)
    xt = np.asarray(target_values, dtype=np.float64)
    if xs.shape != (graph.n,) or xt.shape != (graph.n,):
        raise DataError("value vectors must have one entry per node")
    src, dst, _ = graph.edge_arrays()
    u = xs[src]
    v = xt[dst]
    ok = np.isfinite(u) & np.isfinite(v)
    u, v = u[ok], v[ok]
    if u.shape[0] < 2:
        return None
    su, sv = u.std(), v.std()
    if su == 0.0 or sv == 0.0:
        return None
    return float(((u - u.mean()) * (v - v.mean())).mean() / (su * sv))


# -- report builders ----------------------------------------------------------


def centrality_report(graph: Graph, weighted: bool = False, *,
                      triads: TriadReport | None = None) -> CentralityReport:
    """Every per-node score; `weighted` applies to eigenvector and HITS.
    `triads`, the graph's `triad_closure`, is computed when not given."""
    hub, auth = hits(graph, weighted=weighted)
    pairs = _pair_count(graph)
    close, dependencies = _geodesics(graph)
    return CentralityReport(
        in_degree=graph.in_degrees(),
        out_degree=graph.out_degrees(),
        out_strength=graph.out_strengths(),
        closeness=close,
        betweenness=dependencies / pairs,
        eigen=eigen_centrality(graph, weighted=weighted),
        hub=hub,
        authority=auth,
        local_clustering=(triads or triad_closure(graph)).local_clustering,
    )


def connectivity_report(graph: Graph, min_clique_size: int | None = None, *,
                        triads: TriadReport | None = None) -> ConnectivityReport:
    """Graph-level cohesion summary.

    With min_clique_size=None only the maximum-size cliques are listed;
    otherwise every maximal clique at or above the threshold is kept.
    `triads`, the graph's `triad_closure`, is computed when not given.
    """
    triads = triads or triad_closure(graph)
    cliques = maximal_cliques(graph, min_size=min_clique_size or 1)
    max_size = max((len(c) for c in cliques), default=0)
    if min_clique_size is None:
        cliques = [c for c in cliques if len(c) == max_size]
    return ConnectivityReport(
        density=density(graph),
        reciprocity=reciprocity(graph),
        transitivity=triads.transitivity,
        mean_local_clustering=triads.mean_local_clustering,
        triad_closed_fraction=triads.mean_local_clustering,
        maximal_cliques=tuple(cliques),
        max_clique_size=max_size,
    )


# The structural scores, in assortativity-row order, each with the dyad role
# an ERGM covariate on it takes unless its term names one.
STRUCTURAL_METRICS = {"out_degree": "sender", "in_degree": "receiver",
                      "out_strength": "sender", "closeness": "sum", "betweenness": "sum",
                      "eigen": "sum", "hub": "sender", "authority": "sum"}


def assortativity_report(graph: Graph,
                         attrs=None,
                         centrality: CentralityReport | None = None
                         ) -> list[tuple[str, str, float | None]]:
    """(variable, kind, coefficient) rows; None marks undefined scores.

    Categorical and scalar attribute rows need an attribute table;
    structural rows need a centrality report. Structural metrics are
    scored in attribute mode (the same scalar on both edge ends).
    """
    rows: list[tuple[str, str, float | None]] = []
    if attrs is not None:
        for column in attrs.categorical_columns:
            rows.append((column, "categorical",
                         assortativity_categorical(graph, attrs.categorical(column))))
        for column in attrs.numeric_columns:
            rows.append((column, "scalar",
                         assortativity_scalar(graph, attrs.numeric(column))))
    if centrality is not None:
        for name in STRUCTURAL_METRICS:
            rows.append((name, "structural",
                         assortativity_scalar(graph, centrality.metric(name))))
    return rows
