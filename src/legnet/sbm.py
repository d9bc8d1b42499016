"""Directed Bernoulli stochastic block model, fit by variational EM.

Self-pairs are excluded everywhere: the diagonal of the adjacency
carries no information. Model selection uses the integrated
classification likelihood evaluated at the hard assignment with
hard-count plug-in parameters.

Each responsibility matrix tau is turned once into every product that
the bound, the field and the M-step read (`_Moments`): one sparse
product with the stacked CSR [y; yT], the class sizes, the block
counts and the entropy. An EM iteration therefore makes one sparse
product. The spectral initializer takes the top-Q eigenpairs of the
centred Gram matrix, which are the part of the SVD it embeds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, sparse
from scipy.cluster.vq import kmeans2
from scipy.special import xlogy

from .errors import DataError
from .graph import Graph

_LOG_CLIP = 1e-12
_COLLAPSE_TOL = 1e-8


@dataclass(frozen=True)
class SbmFit:
    q: int
    tau: np.ndarray
    alpha: np.ndarray
    pi: np.ndarray
    labels: np.ndarray
    icl: float
    elbo: float
    elbo_trace: tuple[float, ...]
    converged: bool
    iterations: int
    requested_q: int
    collapsed: bool = False
    meta: dict = field(default_factory=dict)


class _Binary:
    """Validated binary adjacency in CSR form, with its transpose and
    both stacked as [y; yT], so that one product gives y @ X and yT @ X."""

    def __init__(self, y: sparse.csr_array) -> None:
        self.y, self.yt, self.n = y, y.T.tocsr(), y.shape[0]
        self.stacked = sparse.vstack([self.y, self.yt], format="csr")


def _as_binary(adjacency) -> _Binary:
    if isinstance(adjacency, _Binary):
        return adjacency
    if isinstance(adjacency, Graph):
        return _Binary(adjacency.adjacency(sparse=True))
    y = np.asarray(adjacency, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise DataError("adjacency must be square")
    if np.any((y != 0.0) & (y != 1.0)):
        raise DataError("adjacency must be binary")
    if np.any(np.diag(y) != 0.0):
        raise DataError("adjacency diagonal must be zero")
    return _Binary(sparse.csr_array(y))


@dataclass(frozen=True)
class _Moments:
    """What the bound, the field and the M-step read of one tau."""

    tau: np.ndarray
    out: np.ndarray       # y @ tau
    inn: np.ndarray       # yT @ tau
    sizes: np.ndarray     # tau.sum(0)
    edges: np.ndarray     # expected edges per block pair, tauT y tau
    pairs: np.ndarray     # expected ordered pairs, s sT - tauT tau
    entropy: float        # -sum tau log tau


def _moments(b: _Binary, tau: np.ndarray) -> _Moments:
    flow = b.stacked @ tau
    out, inn = flow[:b.n], flow[b.n:]
    s = tau.sum(axis=0)
    return _Moments(tau, out, inn, s, tau.T @ out, np.outer(s, s) - tau.T @ tau,
                    float(-xlogy(tau, tau).sum()))


def _elbo(m: _Moments, alpha: np.ndarray, pi: np.ndarray) -> float:
    ll = xlogy(m.edges, pi).sum() + xlogy(m.pairs - m.edges, 1.0 - pi).sum()
    return float(ll + xlogy(m.sizes, alpha).sum() + m.entropy)


def _logs(alpha: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log(1 - pi), log(pi) - log(1 - pi), log(alpha)), clipped away from -inf."""
    l0 = np.log(np.clip(1.0 - pi, _LOG_CLIP, None))
    return l0, np.log(np.clip(pi, _LOG_CLIP, None)) - l0, np.log(np.clip(alpha, _LOG_CLIP, None))


def _field(m: _Moments, alpha: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Per-(node, class) unnormalized log-responsibility.

    The non-edges enter through (1 - I - y) @ X = X.sum(0) - X - y @ X,
    so only the edges are touched: O(|E| Q + n Q^2).
    """
    l0, d, log_alpha = _logs(alpha, pi)
    c0 = m.tau @ (l0.T + l0)
    f = m.out @ d.T + m.inn @ d + (c0.sum(axis=0) - c0)
    return f + log_alpha[None, :]


def _softmax_rows(f: np.ndarray) -> np.ndarray:
    z = f - f.max(axis=1, keepdims=True)
    t = np.exp(z)
    t /= t.sum(axis=1, keepdims=True)
    return t


def _estep(b: _Binary, m: _Moments, alpha: np.ndarray, pi: np.ndarray,
           before: float) -> tuple[_Moments, bool]:
    """One responsibility pass that never lowers the bound `before`.

    The vectorized simultaneous update is attempted first; if it would
    decrease the ELBO, the pass is redone sequentially (true coordinate
    ascent, monotone by construction). Returns the moments of the new
    responsibilities and whether the sequential pass ran.
    """
    candidate = _moments(b, _softmax_rows(_field(m, alpha, pi)))
    if _elbo(candidate, alpha, pi) >= before - 1e-10:
        return candidate, False
    tau = m.tau.copy()
    l0, d, log_alpha = _logs(alpha, pi)
    y, yt = b.y, b.yt
    # cached per-node projections, refreshed row-by-row as tau changes
    out_t, in_t, none_t = tau @ d.T, tau @ d, tau @ (l0.T + l0)
    none_sum = none_t.sum(axis=0)
    for i in range(b.n):
        out = y.indices[y.indptr[i]:y.indptr[i + 1]]
        inn = yt.indices[yt.indptr[i]:yt.indptr[i + 1]]
        f = (out_t[out].sum(axis=0) + in_t[inn].sum(axis=0)
             + (none_sum - none_t[i]) + log_alpha)
        t = np.exp(f - f.max())
        tau[i] = t / t.sum()
        out_t[i], in_t[i] = tau[i] @ d.T, tau[i] @ d
        none_sum -= none_t[i]
        none_t[i] = tau[i] @ (l0.T + l0)
        none_sum += none_t[i]
    return _moments(b, tau), True


def _mstep(m: _Moments) -> tuple[np.ndarray, np.ndarray]:
    alpha = m.sizes / m.tau.shape[0]
    pi = np.divide(m.edges, m.pairs, out=np.zeros_like(m.edges), where=m.pairs > 0)
    # saturated rates make the bound -inf through xlogy(eps, 0); keep interior
    return alpha, np.clip(pi, _LOG_CLIP, 1.0 - _LOG_CLIP)


def _init_tau(b: _Binary, q: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    n = b.n
    if q == 1:
        return np.ones((n, 1))
    if mode == "random":
        # hard labels, not soft draws: near-uniform responsibilities sit
        # in the basin of the uninformative fixed point
        labels = rng.integers(q, size=n)
    else:
        # spectral: k-means on the leading left+right singular directions,
        # scaled by singular value so noise directions don't swamp signal.
        # With a = U S V^T, the top-q eigenpairs of a a^T are (s^2, u), and
        # a^T u = s v, so the embedding needs no full SVD. Rounding can
        # leave an eigenvalue of the PSD Gram matrix just below zero.
        try:
            dense = b.y.toarray()
            a = dense - dense.mean()
            w, u = linalg.eigh(a @ a.T, subset_by_index=[n - q, n - 1])
            u = u[:, ::-1]
            s = np.sqrt(np.clip(w[::-1], 0.0, None))
            emb = np.hstack([u * s, a.T @ u])
            _, labels = kmeans2(emb, q, minit="++",
                                seed=np.random.default_rng(rng.integers(2**32)))
        except Exception:
            labels = rng.integers(q, size=n)
    tau = np.full((n, q), 0.05 / max(q - 1, 1))
    tau[np.arange(n), labels] = 0.95
    return tau / tau.sum(axis=1, keepdims=True)


def classification_icl(adjacency, labels) -> float:
    """ICL at a hard partition, plug-in block rates, directed Bernoulli."""
    b = _as_binary(adjacency)
    n = b.n
    labels = np.asarray(labels)
    _, code = np.unique(labels, return_inverse=True)
    q = int(code.max()) + 1
    z = np.zeros((n, q))
    z[np.arange(n), code] = 1.0
    counts = z.sum(axis=0)
    m_qr = z.T @ (b.y @ z)
    d_qr = np.outer(counts, counts) - np.diag(counts)
    pi_hat = np.divide(m_qr, d_qr, out=np.zeros_like(m_qr), where=d_qr > 0)
    ll = xlogy(m_qr, pi_hat).sum() + xlogy(d_qr - m_qr, 1.0 - pi_hat).sum()
    mix = xlogy(counts, counts / n).sum()
    penalty = (q * q / 2.0) * np.log(n * (n - 1)) + ((q - 1) / 2.0) * np.log(n)
    return float(ll + mix - penalty)


def _renumber_by_size(tau: np.ndarray, alpha: np.ndarray,
                      pi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    counts = np.bincount(tau.argmax(axis=1), minlength=tau.shape[1])
    order = np.argsort(-counts, kind="stable")
    tau = tau[:, order]
    return tau, alpha[order], pi[np.ix_(order, order)], tau.argmax(axis=1)


def _single_run(b: _Binary, q: int, mode: str, rng: np.random.Generator,
                max_iter: int, tol: float) -> tuple:
    """One EM run: (tau, alpha, pi, bound trace, convergence facts)."""
    m = _moments(b, _init_tau(b, q, mode, rng))
    alpha, pi = _mstep(m)
    trace = [_elbo(m, alpha, pi)]
    facts = {"iterations": 0, "converged": False, "collapsed": False,
             "sequential_esteps": 0}
    for it in range(1, max_iter + 1):
        facts["iterations"] = it
        m, sequential = _estep(b, m, alpha, pi, trace[-1])
        facts["sequential_esteps"] += sequential
        dead = m.sizes < _COLLAPSE_TOL
        if dead.any() and (~dead).sum() >= 1:
            warnings.warn(f"pruned {int(dead.sum())} empty class(es) at Q={m.tau.shape[1]}")
            tau = m.tau[:, ~dead]
            tau /= tau.sum(axis=1, keepdims=True)
            m = _moments(b, tau)
            facts["collapsed"] = True
        alpha, pi = _mstep(m)
        trace.append(_elbo(m, alpha, pi))
        if trace[-1] - trace[-2] < tol and trace[-1] >= trace[-2] - 1e-7:
            facts["converged"] = True
            break
    return m.tau, alpha, pi, trace, facts


def fit_q(adjacency, q: int, init: str = "spectral", restarts: int = 1,
          seed: int = 0, max_iter: int = 500, tol: float = 1e-6) -> SbmFit:
    """Best-of-`restarts` variational EM fit with Q starting classes.

    The first restart uses the requested initializer; the rest draw
    random responsibilities. Classes whose total responsibility
    collapses are pruned with a warning, so the returned fit can have
    fewer classes than requested. Deterministic for a fixed seed.
    `meta["runs"]` lists each restart's iterations, convergence,
    collapse and count of sequential-fallback E-steps.
    """
    b = _as_binary(adjacency)
    if not (1 <= q <= b.n):
        raise DataError(f"Q={q} outside [1, {b.n}]")
    if init not in ("spectral", "random"):
        raise DataError(f"unknown init {init!r}")
    if restarts < 1:
        raise DataError("restarts must be >= 1")

    runs = [_single_run(b, q, init if r == 0 else "random",
                        np.random.default_rng((seed * 1_000_003 + r) % 2**63),
                        max_iter, tol) for r in range(restarts)]
    tau, alpha, pi, trace, facts = max(runs, key=lambda run: run[3][-1])
    tau, alpha, pi, labels = _renumber_by_size(tau, alpha, pi)
    return SbmFit(
        q=tau.shape[1], tau=tau, alpha=alpha, pi=pi, labels=labels,
        icl=classification_icl(b, labels), elbo=trace[-1], elbo_trace=tuple(trace),
        converged=facts["converged"], iterations=facts["iterations"], requested_q=q,
        collapsed=facts["collapsed"],
        meta={"init": init, "restarts": restarts, "seed": seed,
              "runs": [run[4] for run in runs]},
    )


def select_q(adjacency, q_range, restarts: int = 1, seed: int = 0,
             init: str = "spectral", max_iter: int = 500,
             tol: float = 1e-6) -> tuple[SbmFit, list[tuple[int, float]]]:
    """Fit every Q in the range; return the ICL-best fit and the curve."""
    qs = list(q_range)
    if not qs:
        raise DataError("empty Q range")
    fits = [fit_q(adjacency, q, init=init, restarts=restarts, seed=seed + 7919 * q,
                  max_iter=max_iter, tol=tol) for q in qs]
    return max(fits, key=lambda fit: fit.icl), [(fit.requested_q, fit.icl) for fit in fits]


def _dominant_level(attrs, column: str, members: np.ndarray) -> tuple[str, float] | None:
    """The most common level of `column` among `members` (ties: first in
    sorted order) and its share of them; None when there are no members."""
    col = attrs.categorical(column)
    values = [col[i] for i in members]
    if not values:
        return None
    top = max(sorted(set(values)), key=values.count)
    return top, values.count(top) / len(values)


def interaction_matrix(fit: SbmFit, attrs=None) -> tuple[np.ndarray, list[dict]]:
    """Block probability matrix plus per-community annotations."""
    notes = []
    for c in range(fit.q):
        members = np.flatnonzero(fit.labels == c)
        row = {"community": c + 1, "size": int(members.size)}
        if attrs is not None:
            for column in ("party", "chamber"):
                dominant = attrs.has(column) and _dominant_level(attrs, column, members)
                if dominant:
                    row[f"dominant_{column}"] = dominant[0]
        notes.append(row)
    return fit.pi.copy(), notes


def community_summary(fit: SbmFit, attrs=None, centrality=None) -> list[dict]:
    """Size, dominant categorical levels, and normalized-score profile
    per community.

    Structural metrics are min-max normalized over all nodes before the
    per-community mean and coefficient of variation are taken; NaN
    scores are ignored.
    """
    n = fit.labels.shape[0]
    rows = []
    norm_metrics: dict[str, np.ndarray] = {}
    if centrality is not None:
        for name in centrality.__dataclass_fields__:
            vec = np.asarray(getattr(centrality, name), dtype=np.float64)
            lo, hi = np.nanmin(vec), np.nanmax(vec)
            norm_metrics[name] = (vec - lo) / (hi - lo) if hi > lo else np.zeros_like(vec)
    for c in range(fit.q):
        members = np.flatnonzero(fit.labels == c)
        row: dict = {"community": c + 1, "size": int(members.size),
                     "share": members.size / n}
        if attrs is not None:
            for column in attrs.categorical_columns:
                dominant = _dominant_level(attrs, column, members)
                if dominant:
                    row[f"{column}_dominant"], row[f"{column}_share"] = dominant
        for name, vec in norm_metrics.items():
            sub = vec[members]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                mean = float(np.nanmean(sub)) if sub.size else float("nan")
                sd = float(np.nanstd(sub)) if sub.size else float("nan")
            row[f"{name}_mean"] = mean
            row[f"{name}_cv"] = sd / mean if mean else 0.0
        rows.append(row)
    return rows
