"""Model terms and the per-dyad statistic decomposition.

Every supported term is dyad-local: the statistic decomposes as

    g(y) = sum_ij y_ij * e(i, j)  +  (mutual pair count) * m,

where e(i, j) depends only on node covariates and m is the indicator
of the mutual term. Per unordered pair i<j, the tie i->j adds the term
row t1 = e(i, j) and the tie j->i adds t2 = e(j, i). Most terms (edges,
match, absdiff, "sum" covariates) have t1 == t2, and their rows are
stored once; only "sender"/"receiver" covariates keep both rows, and
the mutual term has none (it is carried by m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from ..errors import DataError
from ..graph import Graph, _check_index
from ..partition import label_codes


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


def _term_rows(term: ErgmTerm, iu: np.ndarray, ju: np.ndarray,
               n: int) -> tuple[np.ndarray | None, np.ndarray | None, float]:
    """(t1, t2, m) of one term over the unordered pairs.

    t2 is None when it equals t1, and both are None for the mutual term,
    whose rows are 0.
    """
    d = iu.shape[0]
    if isinstance(term, Edges):
        return np.ones(d), None, 0.0
    if isinstance(term, Mutual):
        return None, None, 1.0
    if isinstance(term, NodeCovariate):
        x = _covariate_values(term, n)
        if term.role == "sender":
            return x[iu], x[ju], 0.0
        if term.role == "receiver":
            return x[ju], x[iu], 0.0
        return x[iu] + x[ju], None, 0.0
    if isinstance(term, NodeMatch):
        if len(term.labels) != n:
            raise DataError(f"labels {term.name!r} have {len(term.labels)} values for {n} nodes")
        levels, codes = label_codes(term.labels)
        if term.level is None:
            same = codes[iu] == codes[ju]
        else:
            hit = codes == np.searchsorted(levels, term.level)
            same = hit[iu] & hit[ju]
        return same.astype(np.float64), None, 0.0
    if isinstance(term, AbsDiff):
        x = _covariate_values(term, n)
        return np.abs(x[iu] - x[ju]), None, 0.0
    raise DataError(f"unknown term type {type(term).__name__}")


class DyadDesign:
    """Statistic decomposition of a spec over a graph's dyads.

    The term rows are stored term-major, split by orientation:
    - `s` (K_S, D): the rows of the terms with t1 == t2, whose positions
      in the spec are `sym`;
    - `a1`, `a2` (K_A, D): the t1 and t2 rows of the sender and receiver
      covariates, at positions `asym`;
    - the mutual terms, at positions `mut`, have no rows; `mvec` (K,) is
      the mutual indicator m, and `m` its entries at `mut`.
    `order` lists the positions in this kind order (sym, asym, mut), and
    `spec_pairs` indexes a (K, K) array by it; the sums and Gram
    matrices are built in kind order and returned in the spec's.
    y1/y2 are the observed tie indicators for the pair orientations
    (i<j) -> and <-. Every per-term pass over the dyads reads whole rows.
    """

    def __init__(self, n: int, spec: ErgmSpec) -> None:
        if n < 2:
            raise DataError("need at least 2 nodes")
        self.n = n
        self.spec = spec
        self.iu, self.ju = np.triu_indices(n, 1)
        d = self.iu.shape[0]
        rows = [_term_rows(term, self.iu, self.ju, n) for term in spec.terms]
        self.sym = np.array([k for k, (t1, t2, _) in enumerate(rows)
                             if t1 is not None and t2 is None], dtype=np.intp)
        self.asym = np.array([k for k, (_, t2, _) in enumerate(rows) if t2 is not None],
                             dtype=np.intp)
        self.mut = np.array([k for k, (t1, _, _) in enumerate(rows) if t1 is None],
                            dtype=np.intp)
        self.order = np.concatenate([self.sym, self.asym, self.mut])
        self.spec_pairs = np.ix_(self.order, self.order)
        self.s = np.array([rows[k][0] for k in self.sym]).reshape(-1, d)
        self.a1 = np.array([rows[k][0] for k in self.asym]).reshape(-1, d)
        self.a2 = np.array([rows[k][1] for k in self.asym]).reshape(-1, d)
        self.mvec = np.array([m for _, _, m in rows])
        self.m = self.mvec[self.mut]
        self.y1 = np.zeros(d, dtype=bool)
        self.y2 = np.zeros(d, dtype=bool)

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

    def tie_predictors(self, theta: np.ndarray, dyads: slice) -> np.ndarray:
        """(2, B) theta't1 and theta't2 over the B dyads in `dyads`.

        These are the log-weights of the states 10 and 01 of each dyad.
        """
        out = np.empty((2, self.iu[dyads].shape[0]))
        np.matmul(theta[self.sym], self.s[:, dyads], out=out[0])
        out[1] = out[0]
        if self.asym.size:
            ta = theta[self.asym]
            out[0] += ta @ self.a1[:, dyads]
            out[1] += ta @ self.a2[:, dyads]
        return out

    def state_law(self, theta: np.ndarray,
                  dyads: slice = slice(None)) -> tuple[float, np.ndarray]:
        """(log normalizing constant, (4, B) state probabilities) at theta.

        Row s holds each dyad's probability of state s = y1 + 2 y2, the
        softmax of the log-weights theta' g of its four states; `dyads`
        selects a range of the dyads, and the constant is over that range.
        The model is the product over dyads of these categoricals; the
        likelihood and the sampler both read them.
        """
        w = np.empty((4, self.iu[dyads].shape[0]))
        w[0] = 0.0
        w[1:3] = self.tie_predictors(theta, dyads)
        np.add(w[1], w[2], out=w[3])
        w[3] += float(self.mvec @ theta)
        top = w.max(axis=0)
        np.exp(np.subtract(w, top, out=w), out=w)
        total = w.sum(axis=0)
        w /= total
        return float((top + np.log(total)).sum()), w

    def kind_sums(self, w1: np.ndarray, w2: np.ndarray, w12: np.ndarray,
                  dyads: slice) -> np.ndarray:
        """(K,) sum over the dyads in `dyads` of w1 t1 + w2 t2 + w12 m, in
        kind order: the `s` rows, the `a1`/`a2` rows, the mutual terms."""
        ks, ka = self.sym.size, self.sym.size + self.asym.size
        total = np.empty(self.k)
        np.matmul(self.s[:, dyads], np.add(w1, w2, dtype=np.float64), out=total[:ks])
        if self.asym.size:
            np.matmul(self.a1[:, dyads], w1, out=total[ks:ka])
            total[ks:ka] += self.a2[:, dyads] @ w2
        np.multiply(self.m, w12.sum(), out=total[ka:])
        return total

    def weighted_sum(self, w1: np.ndarray, w2: np.ndarray, w12: np.ndarray) -> np.ndarray:
        """(K,) sum over all dyads of w1 t1 + w2 t2 + w12 m, in spec order.

        With the tie indicators y1, y2 and y1 y2 as weights this is g(y);
        with their probabilities it is E[g(Y)].
        """
        total = np.empty(self.k)
        total[self.order] = self.kind_sums(w1, w2, w12, slice(None))
        return total

    def weighted_gram(self, dyads: slice, g, c) -> tuple[np.ndarray, np.ndarray]:
        """(sum_d T_d' g_d, sum_d T_d' C_d T_d) over the dyads in `dyads`.

        T_d is dyad d's (3, K) matrix of rows t1, t2 and m. The weights
        are per-dyad arrays: g = (g1, g2, g12) is the vector g_d, and
        c = (c11, c22, c12, c1m, c2m, cmm) the entries of the symmetric
        C_d, with c12 None for 0. Only the sums of g12 and cmm are read,
        and the m column of C_d only when the spec has a mutual term.
        Both results are in spec order. A row stored once in `s` is
        t1 = t2, so its block of the Gram is one product with weight
        c11 + c22 + 2 c12; only the `a1`/`a2` rows pay for the cross
        products.
        """
        c11, c22, c12, c1m, c2m, cmm = c
        ks, ka = self.sym.size, self.sym.size + self.asym.size
        gram = np.empty((self.k, self.k))
        s = self.s[:, dyads]
        both = c11 + c22 if c12 is None else c11 + c22 + 2.0 * c12
        np.matmul(s * both, s.T, out=gram[:ks, :ks])
        if self.asym.size:
            a1, a2 = self.a1[:, dyads], self.a2[:, dyads]
            if c12 is None:
                side = s @ (a1 * c11 + a2 * c22).T
            else:
                side = s @ (a1 * (c11 + c12) + a2 * (c22 + c12)).T
            gram[:ks, ks:ka] = side
            gram[ks:ka, :ks] = side.T
            aa = (a1 * c11) @ a1.T + (a2 * c22) @ a2.T
            if c12 is not None:
                cross = (a1 * c12) @ a2.T
                aa += cross + cross.T
            gram[ks:ka, ks:ka] = aa
        if self.mut.size:
            rows = np.multiply.outer(self.m, self.kind_sums(c1m, c2m, cmm, dyads))
            gram[ka:] = rows
            gram[:ka, ka:] = rows[:, :ka].T
        total, full = np.empty(self.k), np.empty_like(gram)
        total[self.order] = self.kind_sums(*g, dyads)
        full[self.spec_pairs] = gram
        return total, full

    def statistic_range(self, mutual_count: float) -> tuple[np.ndarray, np.ndarray]:
        """(K,) lowest and highest achievable statistic, in one pass over the rows.

        Each tie adds its row's value or 0, whatever the other tie of its
        dyad does, so the extremes sum each row's negative and positive
        parts; the mutual term adds m in `mutual_count` of the places. A
        term 0 on every dyad has the range [0, 0].
        """
        low = mutual_count * np.minimum(self.mvec, 0.0)
        high = mutual_count * np.maximum(self.mvec, 0.0)
        for ends, part in ((low, np.minimum), (high, np.maximum)):
            ends[self.sym] += 2.0 * part(self.s, 0.0).sum(axis=1)
            ends[self.asym] += part(self.a1, 0.0).sum(axis=1) + part(self.a2, 0.0).sum(axis=1)
        return low, high

    @property
    def row_scale(self) -> np.ndarray:
        """(K,) each term's largest |t1|, |t2| over the dyads, or |m| for the
        mutual term: the most a unit of its coefficient moves one dyad's
        log-weights. A term 0 on every dyad has the scale 0."""
        scale = np.abs(self.mvec)
        scale[self.sym] = np.abs(self.s).max(axis=1)
        scale[self.asym] = np.maximum(np.abs(self.a1).max(axis=1), np.abs(self.a2).max(axis=1))
        return scale

    def statistics(self) -> np.ndarray:
        """g(y) of the observed tie state; a graph's g(y) is
        DyadDesign.from_graph(graph, spec).statistics()."""
        return self.weighted_sum(self.y1.astype(np.float64), self.y2.astype(np.float64),
                                 self.y1 & self.y2)

    def change_statistic(self, i: int, j: int) -> np.ndarray:
        """delta_ij(y): change in g from setting tie i->j to 1, on the observed state.

        The route to a graph's change statistics: build the design once
        with DyadDesign.from_graph(graph, spec), then query many pairs, O(K)
        each.
        """
        _check_index(i, self.n)
        _check_index(j, self.n)
        if i == j:
            raise DataError("change statistic undefined on the diagonal")
        if i < j:
            d, rows, reverse = int(self.pair_index(i, j)), self.a1, self.y2
        else:
            d, rows, reverse = int(self.pair_index(j, i)), self.a2, self.y1
        delta = (1.0 if reverse[d] else 0.0) * self.mvec
        delta[self.sym] = self.s[:, d]
        delta[self.asym] = rows[:, d]
        return delta
