"""Reference values the benchmark checks legnet's outputs against.

Nothing here imports legnet: every value is computed from the
generated input files by an independent route (networkx for geodesic
centralities, the closed-form dyad census for the edges and
edges + mutual models, explicit formulas for ICL and the partition
scores). The benchmark runs these outside its timed region.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import xlogy


def read_edges(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(node ids in order of first appearance, sources, targets)."""
    ids: dict[str, int] = {}
    src, dst = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            for key in ("source", "target"):
                ids.setdefault(row[key], len(ids))
            src.append(ids[row["source"]])
            dst.append(ids[row["target"]])
    return list(ids), np.asarray(src), np.asarray(dst)


def read_column(path: Path, key: str, column: str) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row[key]: row[column] for row in csv.DictReader(fh)}


# -- geodesic centralities ----------------------------------------------------


def networkx_centrality(n: int, src: np.ndarray, dst: np.ndarray):
    """(out-closeness, betweenness) under legnet's conventions.

    Closeness is the reachable-set form |R_i| / sum of distances along
    edge direction (NaN when nothing is reachable); networkx measures
    distances *to* a node, hence the reversed graph. Betweenness is
    normalized by (n-1)(n-2), which is networkx's directed default.
    """
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    close = nx.closeness_centrality(g.reverse(copy=False), wf_improved=False)
    out_deg = np.bincount(src, minlength=n)
    closeness = np.asarray([close[i] if out_deg[i] else np.nan for i in range(n)])
    between = nx.betweenness_centrality(g, normalized=True)
    return closeness, np.asarray([between[i] for i in range(n)])


# -- closed-form dyad-census fits ---------------------------------------------


def dyad_census(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, int, int]:
    """(mutual, asymmetric, null) dyad counts."""
    edges = set(zip(src.tolist(), dst.tolist()))
    mutual = sum(1 for i, j in edges if (j, i) in edges) // 2
    asym = len(edges) - 2 * mutual
    return mutual, asym, n * (n - 1) // 2 - mutual - asym


def edges_fit(n: int, n_edges: int) -> tuple[np.ndarray, float]:
    """Closed-form MLE and log-likelihood of the edges-only model."""
    pairs = n * (n - 1)
    p = n_edges / pairs
    ll = xlogy(n_edges, p) + xlogy(pairs - n_edges, 1.0 - p)
    return np.asarray([math.log(p / (1.0 - p))]), float(ll)


def mutual_fit(mutual: int, asym: int, null: int) -> tuple[np.ndarray, float]:
    """Closed-form MLE and log-likelihood of the edges + mutual model.

    Each dyad is an independent 4-state categorical with weights
    1, e^a, e^a, e^(2a+m) (Holland and Leinhardt's p1 with no node
    effects), so the MLE matches the observed state shares.
    """
    d = mutual + asym + null
    edges = math.log(asym / (2.0 * null))
    mut = math.log(4.0 * mutual * null / asym**2)
    ll = (xlogy(mutual, mutual / d) + xlogy(asym, asym / (2.0 * d))
          + xlogy(null, null / d))
    return np.asarray([edges, mut]), float(ll)


def mutual_loglik(theta, mutual: int, asym: int, null: int) -> float:
    """Exact log-likelihood of the edges + mutual model at any theta."""
    a, m = float(theta[0]), float(theta[1])
    d = mutual + asym + null
    log_z = np.logaddexp.reduce([0.0, a, a, 2.0 * a + m])
    return float(a * (asym + 2 * mutual) + m * mutual - d * log_z)


def mutual_pseudo_fit(mutual: int, asym: int, null: int) -> tuple[np.ndarray, float]:
    """Closed-form maximum pseudolikelihood of the edges + mutual model.

    Ordered pairs split by whether the reverse tie is present: 2N + A
    pairs without it (A of them tied), A + 2M with it (2M tied). The
    logistic fit matches both tie rates; its coefficients coincide
    with the MLE, its objective is the pseudo-log-likelihood below.
    """
    theta, _ = mutual_fit(mutual, asym, null)
    lo, hi = 2 * null + asym, asym + 2 * mutual
    ll = (xlogy(asym, asym / lo) + xlogy(2 * null, 2 * null / lo)
          + xlogy(2 * mutual, 2 * mutual / hi) + xlogy(asym, asym / hi))
    return theta, float(ll)


# -- blockmodel ICL -----------------------------------------------------------


def icl(y: np.ndarray, labels) -> float:
    """Integrated classification likelihood of a hard partition.

    Directed Bernoulli blockmodel without self-pairs, plug-in block
    rates and class shares, penalty Q^2/2 log n(n-1) + (Q-1)/2 log n
    (Daudin, Picard and Robin 2008). Only the classes that have
    members count.
    """
    n = y.shape[0]
    classes = sorted(set(labels))
    members = [np.flatnonzero(np.asarray(labels) == c) for c in classes]
    ll = 0.0
    for a in members:
        for b in members:
            pairs = len(a) * len(b) - (len(a) if a is b else 0)
            ties = float(y[np.ix_(a, b)].sum())
            if pairs:
                p = ties / pairs
                ll += xlogy(ties, p) + xlogy(pairs - ties, 1.0 - p)
    mix = sum(len(a) * math.log(len(a) / n) for a in members)
    q = len(classes)
    penalty = q * q / 2.0 * math.log(n * (n - 1)) + (q - 1) / 2.0 * math.log(n)
    return float(ll + mix - penalty)


# -- partition agreement ------------------------------------------------------


def pair_scores(a, b) -> tuple[float, float, float]:
    """(Rand, adjusted Rand, NMI) of two label sequences.

    Rand and adjusted Rand come from counting node pairs by whether
    each partition puts them together; NMI uses the arithmetic mean of
    the two entropies. The degenerate conventions follow legnet's
    documented ones: ARI 1 when there is no room for chance, NMI 1
    when both partitions are single-class and 0 when one is.
    """
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    iu, ju = np.triu_indices(len(a), 1)
    same_a, same_b = a[iu] == a[ju], b[iu] == b[ju]
    n11 = float(np.sum(same_a & same_b))
    n10 = float(np.sum(same_a & ~same_b))
    n01 = float(np.sum(~same_a & same_b))
    n00 = float(np.sum(~same_a & ~same_b))
    rand = (n11 + n00) / iu.size
    denom = (n00 + n01) * (n01 + n11) + (n00 + n10) * (n10 + n11)
    ari = 1.0 if denom == 0 else 2.0 * (n00 * n11 - n01 * n10) / denom

    n = len(a)
    pa, pb = Counter(a.tolist()), Counter(b.tolist())
    joint = Counter(zip(a.tolist(), b.tolist()))
    ha = -sum(c / n * math.log(c / n) for c in pa.values())
    hb = -sum(c / n * math.log(c / n) for c in pb.values())
    if ha == 0.0 and hb == 0.0:
        return rand, ari, 1.0
    if ha == 0.0 or hb == 0.0:
        return rand, ari, 0.0
    mi = sum(c / n * math.log(c * n / (pa[x] * pb[z])) for (x, z), c in joint.items())
    return rand, ari, min(max(mi / (0.5 * (ha + hb)), 0.0), 1.0)
