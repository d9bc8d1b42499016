"""Model terms and the per-dyad statistic decomposition.

Every supported term is dyad-local: the statistic decomposes as

    g(y) = sum_ij y_ij * e(i, j)  +  (mutual pair count) * m,

where e(i, j) depends only on node covariates and m is the indicator
of the mutual term. The decomposition is materialized per unordered
pair as matrices T1 (tie i->j, i<j) and T2 (tie j->i), which is what
the estimators and the sampler consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from ..errors import DataError
from ..graph import Graph


@dataclass(frozen=True)
class Edges:
    label: str = "edges"


@dataclass(frozen=True)
class Mutual:
    label: str = "mutual"


COVARIATE_ROLES = ("sender", "receiver", "sum")


@dataclass(frozen=True)
class NodeCovariate:
    """Main effect of a per-node scalar.

    role "sender" adds x_i to every tie i->j, "receiver" adds x_j,
    and "sum" adds x_i + x_j.
    """

    name: str
    values: tuple[float, ...]
    role: str = "sum"
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.role not in COVARIATE_ROLES:
            raise DataError(f"unknown covariate role {self.role!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.label:
            object.__setattr__(self, "label", f"{self.role}({self.name})")


@dataclass(frozen=True)
class NodeMatch:
    """Homophily indicator I{x_i = x_j}.

    level=None counts every matched pair (uniform form); a named level
    restricts the indicator to pairs matching on that level
    (differential form).
    """

    name: str
    labels: tuple[str, ...]
    level: str | None = None
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(str(v) for v in self.labels))
        if self.level is not None and self.level not in set(self.labels):
            raise DataError(f"NodeMatch level {self.level!r} not present in {self.name!r}")
        if not self.label:
            suffix = f"={self.level}" if self.level is not None else ""
            object.__setattr__(self, "label", f"match({self.name}{suffix})")


@dataclass(frozen=True)
class AbsDiff:
    """Dissimilarity effect |x_i - x_j|."""

    name: str
    values: tuple[float, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.label:
            object.__setattr__(self, "label", f"absdiff({self.name})")


ErgmTerm = Union[Edges, Mutual, NodeCovariate, NodeMatch, AbsDiff]


class ErgmSpec:
    """Ordered term list defining the statistic vector g(y)."""

    def __init__(self, terms: Sequence[ErgmTerm]) -> None:
        terms = list(terms)
        if not terms:
            raise DataError("empty term list")
        if sum(isinstance(t, Edges) for t in terms) > 1:
            raise DataError("Edges appears more than once")
        self.terms: tuple[ErgmTerm, ...] = tuple(terms)

    @property
    def k(self) -> int:
        return len(self.terms)

    @property
    def dyad_independent(self) -> bool:
        return not any(isinstance(t, Mutual) for t in self.terms)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)


def _covariate_values(term: NodeCovariate | AbsDiff, n: int) -> np.ndarray:
    """The term's node values, refused unless there are n of them, all finite."""
    x = np.asarray(term.values, dtype=np.float64)
    if x.shape != (n,):
        raise DataError(f"covariate {term.name!r} has {x.shape[0]} values for {n} nodes")
    if not np.all(np.isfinite(x)):
        raise DataError(f"covariate {term.name!r} contains non-finite values")
    return x


def _term_pair_columns(term: ErgmTerm, iu: np.ndarray, ju: np.ndarray,
                       n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(t1, t2, m) columns of one term over the unordered pairs."""
    d = iu.shape[0]
    if isinstance(term, Edges):
        ones = np.ones(d)
        return ones, ones.copy(), 0.0
    if isinstance(term, Mutual):
        zero = np.zeros(d)
        return zero, zero.copy(), 1.0
    if isinstance(term, NodeCovariate):
        x = _covariate_values(term, n)
        if term.role == "sender":
            return x[iu], x[ju], 0.0
        if term.role == "receiver":
            return x[ju], x[iu], 0.0
        both = x[iu] + x[ju]
        return both, both.copy(), 0.0
    if isinstance(term, NodeMatch):
        if len(term.labels) != n:
            raise DataError(f"labels {term.name!r} have {len(term.labels)} values for {n} nodes")
        # integer level codes in order of first appearance
        index: dict[str, int] = {}
        codes = np.fromiter((index.setdefault(v, len(index)) for v in term.labels),
                            dtype=np.int64, count=n)
        if term.level is None:
            same = codes[iu] == codes[ju]
        else:
            hit = codes == index[term.level]
            same = hit[iu] & hit[ju]
        col = same.astype(np.float64)
        return col, col.copy(), 0.0
    if isinstance(term, AbsDiff):
        x = _covariate_values(term, n)
        col = np.abs(x[iu] - x[ju])
        return col, col.copy(), 0.0
    raise DataError(f"unknown term type {type(term).__name__}")


class DyadDesign:
    """Statistic decomposition of a spec over a graph's dyads.

    Attributes t1/t2 are (D, K); mvec is (K,); y1/y2 are the observed
    tie indicators for the pair orientations (i<j) -> and <-. t1 and t2
    are stored term-major: each is the transpose of a contiguous (K, D)
    array, so every per-term pass over the dyads reads whole rows.
    """

    def __init__(self, n: int, spec: ErgmSpec) -> None:
        if n < 2:
            raise DataError("need at least 2 nodes")
        self.n = n
        self.spec = spec
        self.iu, self.ju = np.triu_indices(n, 1)
        cols1, cols2, mus = zip(*(_term_pair_columns(term, self.iu, self.ju, n)
                                   for term in spec.terms))
        self.t1 = np.array(cols1).T
        self.t2 = np.array(cols2).T
        self.mvec = np.asarray(mus)
        self.y1 = np.zeros(self.iu.shape[0], dtype=bool)
        self.y2 = np.zeros(self.iu.shape[0], dtype=bool)

    @classmethod
    def from_graph(cls, graph: Graph, spec: ErgmSpec) -> "DyadDesign":
        design = cls(graph.n, spec)
        src, dst, _ = graph.edge_arrays()
        forward = src < dst
        design.y1[design.pair_index(src[forward], dst[forward])] = True
        rev = ~forward
        design.y2[design.pair_index(dst[rev], src[rev])] = True
        return design

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def n_dyads(self) -> int:
        return int(self.iu.shape[0])

    @property
    def n_ordered_pairs(self) -> int:
        return self.n * (self.n - 1)

    def pair_index(self, i, j) -> np.ndarray:
        """Unordered-pair row for i < j under triu ordering."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        return i * (2 * self.n - i - 1) // 2 + (j - i - 1)

    def state_law(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """(log normalizing constant, (4, D) state probabilities) at theta.

        Row s holds each dyad's probability of state s = y1 + 2 y2, the
        softmax of the log-weights theta' g of its four states. The model
        is the product over dyads of these categoricals; the likelihood
        and the sampler both read them.
        """
        w = np.empty((4, self.n_dyads))
        w[0] = 0.0
        np.matmul(self.t1, theta, out=w[1])
        np.matmul(self.t2, theta, out=w[2])
        np.add(w[1], w[2], out=w[3])
        w[3] += float(self.mvec @ theta)
        top = w.max(axis=0)
        np.exp(np.subtract(w, top, out=w), out=w)
        total = w.sum(axis=0)
        w /= total
        return float((top + np.log(total)).sum()), w

    @property
    def inestimable(self) -> np.ndarray:
        """(K,) mask of terms that are 0 in every state of every dyad.

        Such a term (say, a differential match on a level with one
        member) leaves the likelihood flat along its axis: no data can
        estimate it.
        """
        return ~(self.t1.any(axis=0) | self.t2.any(axis=0) | (self.mvec != 0.0))

    def statistics(self, y1: np.ndarray | None = None,
                   y2: np.ndarray | None = None) -> np.ndarray:
        """g(y) for the given tie state (defaults to the observed one)."""
        y1 = self.y1 if y1 is None else y1
        y2 = self.y2 if y2 is None else y2
        mutual = float((y1 & y2).sum())
        return (y1.astype(np.float64) @ self.t1
                + y2.astype(np.float64) @ self.t2
                + mutual * self.mvec)

    def change_statistic(self, i: int, j: int,
                         y1: np.ndarray | None = None,
                         y2: np.ndarray | None = None) -> np.ndarray:
        """delta_ij(y): change in g from setting tie i->j to 1."""
        if i == j:
            raise DataError("change statistic undefined on the diagonal")
        y1 = self.y1 if y1 is None else y1
        y2 = self.y2 if y2 is None else y2
        if i < j:
            d = int(self.pair_index(i, j))
            return self.t1[d] + (1.0 if y2[d] else 0.0) * self.mvec
        d = int(self.pair_index(j, i))
        return self.t2[d] + (1.0 if y1[d] else 0.0) * self.mvec

    def ordered_design_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) over all n(n-1) ordered pairs for pseudolikelihood.

        Row order: all (i, j) with i < j first, then all (j, i).
        Each row is the change statistic of that tie in the observed
        graph. X is stored term-major, like t1 and t2.
        """
        x_fwd = self.t1.T + np.outer(self.mvec, self.y2.astype(np.float64))
        x_rev = self.t2.T + np.outer(self.mvec, self.y1.astype(np.float64))
        x = np.hstack([x_fwd, x_rev]).T
        y = np.concatenate([self.y1, self.y2]).astype(np.float64)
        return x, y


def global_statistics(graph: Graph, spec: ErgmSpec) -> np.ndarray:
    """Observed statistic vector g(y) for the graph."""
    return DyadDesign.from_graph(graph, spec).statistics()


def change_statistics(graph: Graph, spec: ErgmSpec, i: int, j: int) -> np.ndarray:
    """delta_ij(y) on the observed graph."""
    return DyadDesign.from_graph(graph, spec).change_statistic(i, j)
