"""Directed Bernoulli stochastic block model, fit by variational EM.

Self-pairs are excluded everywhere: the diagonal of the adjacency
carries no information. Model selection uses the integrated
classification likelihood evaluated at the hard assignment with
hard-count plug-in parameters.

The restarts of one Q are stepped together as one stack, stored
class-major as tau[r, q, i], so that every per-node reduction over the
classes (the softmax maximum and sum, the class sizes) runs down
contiguous rows. Each stack is turned once into every product that the
bound, the field and the M-step read (`_Moments`): one sparse product
with the stacked CSR [y; yT] for all restarts, the class sizes, the
block counts and the entropy. An EM iteration therefore makes one
sparse product per stack. The entropy of a softmax update comes from
its normalizers; only a starting, pruned or damped tau pays for
-sum tau log tau. A restart leaves the stack when it converges or prunes
a class. The monotone guard damps every restart's update that would
lower its bound, all in one stack. The spectral initializer embeds the
top-Q eigenpairs of the centred Gram matrix, which are the part of the
SVD it needs; a scan solves for the top-Q_max pairs once and slices
them for each Q. `scipy.linalg` and `scipy.cluster` are imported there,
on first use, so that commands without an SBM stage never load them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.special import xlogy

from .errors import DataError
from .graph import Graph
from .partition import count_pairs, label_codes

_LOG_CLIP = 1e-12
_COLLAPSE_TOL = 1e-8
_EM_TOL = 1e-6       # converged: the bound rose by less (and fell by at most 1e-7)
_EM_MAX_ITER = 500   # E-steps, after which a run stops unconverged
_DAMP_HALVINGS = 10  # step halvings of a damped E-step, after which the run keeps tau


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
    """Validated binary adjacency in CSR form, and it stacked on its
    transpose as [y; yT], so that one product gives y @ X and yT @ X."""

    def __init__(self, y: sparse.csr_array) -> None:
        if y.shape[0] < 2:
            raise DataError("the blockmodel needs at least 2 nodes")
        self.y, self.n = y, y.shape[0]
        self.stacked = sparse.vstack([y, y.T], format="csr")


def _as_binary(adjacency) -> _Binary:
    if isinstance(adjacency, _Binary):
        return adjacency
    if isinstance(adjacency, Graph):
        return _Binary(adjacency.adjacency(sparse=True))
    # a sparse input is checked as stored, with no dense copy
    y = adjacency if sparse.issparse(adjacency) else np.asarray(adjacency, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise DataError("adjacency must be square")
    y = sparse.csr_array(y, dtype=np.float64, copy=True)
    y.sum_duplicates()
    y.eliminate_zeros()
    if np.any(y.data != 1.0):
        raise DataError("adjacency must be binary")
    if np.any(y.diagonal() != 0.0):
        raise DataError("adjacency diagonal must be zero")
    return _Binary(y)


class _Moments(NamedTuple):
    """What the bound, the field and the M-step read of a stack of R
    responsibilities of one Q, stored class-major as tau[r, q, i]."""

    tau: np.ndarray       # (R, Q, n)
    out: np.ndarray       # (R, Q, n): tau[r] @ yT
    inn: np.ndarray       # (R, Q, n): tau[r] @ y
    sizes: np.ndarray     # (R, Q): tau.sum(2)
    edges: np.ndarray     # (R, Q, Q): expected edges per block pair, tau y tauT
    pairs: np.ndarray     # (R, Q, Q): expected ordered pairs, s sT - tau tauT
    entropy: np.ndarray   # (R,): -sum tau log tau


def _moments(b: _Binary, tau: np.ndarray, entropy: np.ndarray | None = None) -> _Moments:
    """Moments of the stack `tau`; `entropy` is computed when not given."""
    r, q, n = tau.shape
    # the sparse product is node-major, (2n, R Q); its transpose views it class-major
    flow = (b.stacked @ tau.reshape(r * q, n).T).T.reshape(r, q, 2 * n)
    out, inn = flow[..., :n], flow[..., n:]
    s = tau.sum(axis=2)
    if entropy is None:
        entropy = -xlogy(tau, tau).sum(axis=(1, 2))
    return _Moments(tau, out, inn, s, tau @ out.transpose(0, 2, 1),
                    s[:, :, None] * s[:, None, :] - tau @ tau.transpose(0, 2, 1), entropy)


class _Params(NamedTuple):
    """Class shares and block rates of each run of a stack, with the logs
    that the bound and the field read."""

    alpha: np.ndarray       # (R, Q)
    pi: np.ndarray          # (R, Q, Q), inside [_LOG_CLIP, 1 - _LOG_CLIP]
    log_alpha: np.ndarray   # log(alpha), clipped away from -inf
    log_odds: np.ndarray    # log(pi) - log(1 - pi)
    log_1m_pi: np.ndarray   # log(1 - pi)


def _take(stack, runs):
    """The runs `runs` (an index or a mask) of a `_Moments` or `_Params`."""
    return type(stack)(*(a[runs] for a in stack))


def _params(alpha: np.ndarray, pi: np.ndarray) -> _Params:
    l0 = np.log(1.0 - pi)
    return _Params(alpha, pi, np.log(np.maximum(alpha, _LOG_CLIP)), np.log(pi) - l0, l0)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-run inner product of two stacks of one shape."""
    r = len(a)
    return (a.reshape(r, 1, -1) @ b.reshape(r, -1, 1)).reshape(r)


def _elbo(m: _Moments, p: _Params) -> np.ndarray:
    """The bound of each run of the stack."""
    ll = _dot(m.edges, p.log_odds) + _dot(m.pairs, p.log_1m_pi)
    return ll + xlogy(m.sizes, p.alpha).sum(axis=1) + m.entropy


def _field(m: _Moments, p: _Params) -> np.ndarray:
    """Per-(run, class, node) unnormalized log-responsibility.

    The non-edges enter through (1 - I - y) @ X = X.sum(0) - X - y @ X,
    so only the edges are touched: O(|E| Q + n Q^2) per run.
    """
    none = p.log_1m_pi + p.log_1m_pi.transpose(0, 2, 1)
    f = p.log_odds @ m.out
    f += p.log_odds.transpose(0, 2, 1) @ m.inn
    f -= none @ m.tau
    f += none @ m.sizes[:, :, None] + p.log_alpha[:, :, None]
    return f


def _softmax(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities from the field of each run, and each run's entropy.

    With z = f - max f and Z = sum exp z over the classes of a node,
    tau = exp(z) / Z, so -sum tau log tau = sum_i log Z_i - sum tau z.
    """
    z = f - f.max(axis=1, keepdims=True)
    tau = np.exp(z)
    norm = tau.sum(axis=1, keepdims=True)
    tau /= norm
    return tau, np.log(norm).sum(axis=(1, 2)) - _dot(tau, z)


def _estep(b: _Binary, m: _Moments, p: _Params,
           before: np.ndarray) -> tuple[_Moments, list[int]]:
    """One responsibility pass that never lowers any run's bound `before`.

    The simultaneous update tau* = softmax(field) is made for the whole
    stack. A run whose bound it would lower moves instead to
    tau + lam (tau* - tau), with lam the first of 1/2, 1/4, ... that does
    not lower it; a run that no lam of _DAMP_HALVINGS halvings passes
    keeps tau. The failing runs are tried together, with one product per
    halving. A short step ascends: with the other nodes held, node i's
    bound is linear in its own row plus that row's entropy (the field
    leaves out the self-pair), a concave function that tau*_i maximizes,
    so <grad_i L, tau*_i - tau_i> >= 0 for every node. Returns the
    moments of the new responsibilities and the runs that were damped.
    """
    tau, entropy = _softmax(_field(m, p))
    candidate = _moments(b, tau, entropy)
    below = np.flatnonzero(_elbo(candidate, p) < before - 1e-10)
    if not below.size:
        return candidate, []
    damped = below.tolist()
    step = tau[below] - m.tau[below]
    # a run that no step passes keeps tau, and with it its bound
    tau[below], entropy[below] = m.tau[below], m.entropy[below]
    for halving in range(1, _DAMP_HALVINGS + 1):
        trial = _moments(b, tau[below] + 2.0 ** -halving * step)
        ok = _elbo(trial, _take(p, below)) >= before[below] - 1e-10
        tau[below[ok]], entropy[below[ok]] = trial.tau[ok], trial.entropy[ok]
        below, step = below[~ok], step[~ok]
        if not below.size:
            break
    return _moments(b, tau, entropy), damped


def _mstep(m: _Moments) -> _Params:
    pi = np.divide(m.edges, m.pairs, out=np.zeros_like(m.edges), where=m.pairs > 0)
    # saturated rates would make log(pi) or log(1 - pi) -inf; keep them interior
    return _params(m.sizes / m.tau.shape[2], np.clip(pi, _LOG_CLIP, 1.0 - _LOG_CLIP))


class _SpectralStart:
    """The spectral start of every Q up to `q_max` on one adjacency.

    k-means on the leading left+right singular directions of the centred
    adjacency a, scaled by singular value so noise directions don't
    swamp signal. With a = U S V^T, the top-q eigenpairs of a a^T are
    (s^2, u), and a^T u = s v, so the embedding needs no full SVD. The
    top-q pairs are the first q of the top-q_max ones, so one eigensolve,
    made at the first use, serves every Q of a scan; a solve that fails
    fails again at every Q.
    """

    def __init__(self, q_max: int) -> None:
        self.q_max = q_max
        self._basis: tuple[np.ndarray, np.ndarray] | np.linalg.LinAlgError | None = None

    def _solve(self, b: _Binary) -> tuple[np.ndarray, np.ndarray]:
        from scipy import linalg

        n, k = b.n, min(self.q_max, b.n)
        dense = b.y.toarray()
        a = dense - dense.mean()
        w, u = linalg.eigh(a @ a.T, subset_by_index=[n - k, n - 1])
        u = u[:, ::-1]
        # rounding can leave an eigenvalue of the PSD Gram matrix just below zero
        s = np.sqrt(np.clip(w[::-1], 0.0, None))
        if not s.any():  # a constant adjacency, such as no ties at all
            raise np.linalg.LinAlgError("the centred adjacency is zero")
        return u * s, a.T @ u

    def embedding(self, b: _Binary, q: int) -> np.ndarray:
        """The (n, 2q) embedding at `q`; raises the solve's LinAlgError."""
        if self._basis is None:
            try:
                self._basis = self._solve(b)
            except np.linalg.LinAlgError as exc:
                self._basis = exc
        if isinstance(self._basis, np.linalg.LinAlgError):
            raise self._basis
        us, atu = self._basis
        return np.hstack([us[:, :q], atu[:, :q]])


def _init_tau(b: _Binary, q: int, spectral: _SpectralStart | None,
              rng: np.random.Generator) -> np.ndarray:
    """Starting responsibilities at hard labels: the k-means labels of the
    `spectral` embedding if given, else (and when the spectral start
    fails) random labels."""
    n = b.n
    if q == 1:
        return np.ones((n, 1))
    if spectral is not None:
        from scipy.cluster.vq import kmeans2

        try:
            emb = spectral.embedding(b, q)
            _, labels = kmeans2(emb, q, minit="++",
                                seed=np.random.default_rng(rng.integers(2**32)))
        except np.linalg.LinAlgError as exc:
            warnings.warn(f"spectral start failed at Q={q} ({exc}); random start used")
            spectral = None
    if spectral is None:
        # hard labels, not soft draws: near-uniform responsibilities sit
        # in the basin of the uninformative fixed point
        labels = rng.integers(q, size=n)
    tau = np.full((n, q), 0.05 / max(q - 1, 1))
    tau[np.arange(n), labels] = 0.95
    return tau / tau.sum(axis=1, keepdims=True)


def classification_icl(adjacency, labels) -> float:
    """ICL at a hard partition, plug-in block rates, directed Bernoulli."""
    y = _as_binary(adjacency).y.tocoo()
    n, src, dst = y.shape[0], y.row, y.col
    if len(labels) != n:
        raise DataError(f"{len(labels)} labels for {n} nodes")
    blocks, code = label_codes(labels)
    q = len(blocks)
    counts = np.bincount(code).astype(np.float64)
    m_qr = count_pairs(code[src], code[dst], q, q).astype(np.float64)
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


@dataclass
class _Run:
    """One restart: its bound trace, its convergence facts and, once it
    stops, its responsibilities (Q, n) and parameters."""

    trace: list[float] = field(default_factory=list)
    facts: dict = field(default_factory=lambda: {
        "iterations": 0, "converged": False, "collapsed": False, "damped_esteps": 0})
    tau: np.ndarray | None = None
    params: _Params | None = None


def _em(b: _Binary, m: _Moments, runs: list[_Run], it: int) -> None:
    """Step the stack `m` of `runs`, all with one Q, from the responsibilities
    of E-step `it` (0: the starting ones) until every run has stopped.

    A run leaves the stack when it converges or reaches _EM_MAX_ITER. A run
    that prunes an empty class leaves it too, and goes on as a stack of one
    with its smaller Q. No E-step lowers a run's bound (`_estep`); a run
    that the guard damps but no step passes keeps its responsibilities,
    so its next bound equals this one and it stops as converged.
    """
    # the starting bound has no predecessor; -inf never counts as converged
    bound = np.array([run.trace[-1] if it else -np.inf for run in runs])
    while True:
        p = _mstep(m)
        prev, bound = bound, _elbo(m, p)
        for run, value in zip(runs, bound.tolist()):
            run.trace.append(value)
        converged = (bound - prev < _EM_TOL) & (bound >= prev - 1e-7)
        stop = converged | (it == _EM_MAX_ITER)
        if stop.any():
            for r in np.flatnonzero(stop):
                runs[r].facts.update(iterations=it, converged=bool(converged[r]))
                runs[r].tau, runs[r].params = m.tau[r], _take(p, r)
            if stop.all():
                return
            keep = ~stop
            runs = [run for run, k in zip(runs, keep) if k]
            m, p, bound = _take(m, keep), _take(p, keep), bound[keep]
        it += 1
        m, damped = _estep(b, m, p, bound)
        for r in damped:
            runs[r].facts["damped_esteps"] += 1
        dead = m.sizes < _COLLAPSE_TOL
        if dead.any():
            pruned = dead.any(axis=1)
            for r in np.flatnonzero(pruned):
                warnings.warn(f"pruned {int(dead[r].sum())} empty class(es) at Q={dead.shape[1]}")
                tau = m.tau[r, ~dead[r]]
                tau /= tau.sum(axis=0)
                runs[r].facts["collapsed"] = True
                _em(b, _moments(b, tau[None]), [runs[r]], it)
            if pruned.all():
                return
            keep = ~pruned
            runs = [run for run, k in zip(runs, keep) if k]
            m, bound = _take(m, keep), bound[keep]


def fit_q(adjacency, q: int, restarts: int = 1, seed: int = 0, *,
          _spectral: _SpectralStart | None = None) -> SbmFit:
    """Best-of-`restarts` variational EM fit with Q starting classes.

    The first restart starts from the spectral labels; the rest start
    from random labels. Classes whose total responsibility
    collapses are pruned with a warning, so the returned fit can have
    fewer classes than requested. Deterministic for a fixed seed.
    `meta["runs"]` lists each restart's iterations, convergence,
    collapse and count of damped E-steps.
    """
    b = _as_binary(adjacency)
    if not (1 <= q <= b.n):
        raise DataError(f"Q={q} outside [1, {b.n}]")
    if restarts < 1:
        raise DataError("restarts must be >= 1")

    # a scan passes one start for all its Q (`_spectral`); a lone fit makes its own
    spectral = _SpectralStart(q) if _spectral is None else _spectral
    runs = [_Run() for _ in range(restarts)]
    tau = np.stack([_init_tau(b, q, spectral if r == 0 else None,
                              np.random.default_rng((seed * 1_000_003 + r) % 2**63)).T
                    for r in range(restarts)])
    _em(b, _moments(b, tau), runs, 0)
    best = max(runs, key=lambda run: run.trace[-1])
    tau, alpha, pi, labels = _renumber_by_size(best.tau.T, best.params.alpha,
                                               best.params.pi)
    return SbmFit(
        q=tau.shape[1], tau=tau, alpha=alpha, pi=pi, labels=labels,
        icl=classification_icl(b, labels), elbo=best.trace[-1],
        elbo_trace=tuple(best.trace), converged=best.facts["converged"],
        iterations=best.facts["iterations"], requested_q=q,
        collapsed=best.facts["collapsed"],
        meta={"runs": [run.facts for run in runs]},
    )


def select_q(adjacency, q_range, restarts: int = 1,
             seed: int = 0) -> tuple[SbmFit, list[tuple[int, float]]]:
    """Fit every Q in the range; return the ICL-best fit and the curve.

    The spectral starts of all Q come from one eigensolve. A range
    outside [1, n] is refused before any fit.
    """
    # a range is read from its two ends, so no list of a huge one is built
    qs = q_range if isinstance(q_range, range) else list(q_range)
    if not qs:
        raise DataError("empty Q range")
    lo, hi = sorted((qs[0], qs[-1])) if isinstance(qs, range) else (min(qs), max(qs))
    # a Graph knows its size; any other input is validated once, here
    if not isinstance(adjacency, Graph):
        adjacency = _as_binary(adjacency)
    if lo < 1 or hi > adjacency.n:
        raise DataError(f"Q range {lo}:{hi} outside [1, {adjacency.n}]")
    spectral = _SpectralStart(hi)
    fits = [fit_q(adjacency, q, restarts=restarts, seed=seed + 7919 * q, _spectral=spectral)
            for q in qs]
    return max(fits, key=lambda fit: fit.icl), [(fit.requested_q, fit.icl) for fit in fits]


def community_summary(fit: SbmFit, attrs=None, centrality=None) -> list[dict]:
    """Size, dominant categorical levels, and normalized-score profile
    per community.

    A dominant level is the most common one among the members (ties: the
    first in sorted order), with its share of them; a community without
    members has none.
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
    # (sorted levels, community x level counts) per categorical column;
    # a class that labels no node has an all-zero row
    tables = {}
    for column in attrs.categorical_columns if attrs is not None else ():
        levels, code = label_codes(attrs.categorical(column))
        tables[column] = levels, count_pairs(fit.labels, code, fit.q, len(levels))
    for c in range(fit.q):
        members = np.flatnonzero(fit.labels == c)
        row: dict = {"community": c + 1, "size": int(members.size),
                     "share": members.size / n}
        if members.size:
            for column, (levels, counts) in tables.items():
                top = int(np.argmax(counts[c]))
                row[f"{column}_dominant"] = levels[top]
                row[f"{column}_share"] = int(counts[c, top]) / members.size
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
