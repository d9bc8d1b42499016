"""Likelihood-based estimators for dyad-local specifications.

fit_exact_dyad maximizes the exact likelihood, which factorizes over
unordered pairs into 4-state categoricals (00, 10, 01, 11) because all
supported terms are dyad-local. fit_mple is the pseudolikelihood
logistic regression of each tie on its change statistic; the two
coincide for dyad-independent specs. Each evaluation of either
objective is one pass over blocks of _BLOCK dyads, whose rows and
weights stay in cache: per block, the state law or the tie predictors,
then one weighted-Gram update (DyadDesign.weighted_gram).

Both maximize by Newton's method with step halving, and fail after
_NEWTON_MAX_ITER iterations. Iteration stops when the largest free
gradient entry is below _NEWTON_TOL, or once a step is taken whose
Newton decrement (the gain the quadratic model predicts) is within the
rounding of the log-likelihood, 16 eps |ll|: such a step is evaluated
once, and any change of ll within that rounding accepts it.
A step above the rounding is halved until ll does not fall.

Held terms: a term whose Fisher column at the start is spanned by the
earlier free terms (_aliases; a 0 column when it is 0 on every dyad) is
held at 0 outside the Newton system and reported with NaN estimate,
standard error and p-value. A term whose observed statistic is at an end
of its range, or whose coefficient is driven past its bound, is pinned
at the bound so the rest of the model stays estimable, and is reported
as signed infinity with zero standard error. The bound is in the units
of the term's own rows (_pin_bound): a term is pinned once it alone
moves some dyad's log-odds by more than SEPARATION_BOUND, so rescaling a
covariate rescales its coefficient and leaves the fit unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.special import chdtrc, expit, ndtr

from ..errors import DataError, EstimationError
from ..graph import Graph
from .terms import DyadDesign, ErgmSpec

SEPARATION_BOUND = 25.0
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 100
_BOUNDARY_TOL = 1e-8  # an observed statistic this close to an end of its range is at it
_ALIAS_TOL = 1e-10    # a Schur complement this small, relative to its diagonal, is 0
# Dyads per block of a Newton objective's pass. Of 2048-8192, 4096 to 8192
# ran the ergm-fits sequence equally fast on a core with 2 MiB of L2, and
# 8192 slowed the 29-row model4; fewer dyads pay more per-block overhead.
_BLOCK = 4096


@dataclass(frozen=True)
class ErgmFit:
    """Estimation result.

    theta carries signed infinity for separated coefficients;
    theta_pinned holds the finite internal values (pinned at the
    separation bound) that reproduce the reported likelihood.
    """

    labels: tuple[str, ...]
    theta: np.ndarray
    std_err: np.ndarray
    p_values: np.ndarray
    log_likelihood: float
    aic: float
    bic: float
    method: str
    separation: np.ndarray
    theta_pinned: np.ndarray
    n_obs: int
    converged: bool
    iterations: int
    graph_digest: str
    spec: ErgmSpec
    # a NaN term's index -> "0 on every dyad" or "aliased with <the terms that span it>"
    inestimable: dict[int, str] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.labels)


def graph_digest(graph: Graph) -> str:
    src, dst, _ = graph.edge_arrays()
    h = hashlib.sha256()
    h.update(np.int64(graph.n).tobytes())
    order = np.lexsort((dst, src))
    h.update(src[order].tobytes())
    h.update(dst[order].tobytes())
    return h.hexdigest()


def _blocks(n_dyads: int):
    """Consecutive ranges of at most _BLOCK dyads covering 0..n_dyads."""
    return (slice(lo, min(lo + _BLOCK, n_dyads)) for lo in range(0, n_dyads, _BLOCK))


def _dyad_moments(design: DyadDesign, theta: np.ndarray
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """(log normalizing constant, E_theta[g(Y)], Cov_theta[g(Y)]).

    Per dyad g = y1 t1 + y2 t2 + y1 y2 m: its covariance is that of
    (y1, y2, y1 y2) mapped through (t1, t2, m). Complements such as
    1 - P(y1) are summed from the other states, exact near certainty.
    One pass over blocks of _BLOCK dyads.
    """
    k = design.k
    log_kappa, mean, cov = 0.0, np.zeros(k), np.zeros((k, k))
    for dyads in _blocks(design.n_dyads):
        block_kappa, p = design.state_law(theta, dyads)
        log_kappa += block_kappa
        p00, p10, p01, p11 = p
        q = p[1:3] + p11                       # P(y1), P(y2)
        r = p00 + p[2:0:-1]                    # 1 - P(y1), 1 - P(y2)
        var = q * r                            # Var(y1), Var(y2)
        v = p11 * r                            # Cov(y1, y1 y2), Cov(y2, y1 y2)
        block_mean, block_cov = design.weighted_gram(
            dyads, (q[0], q[1], p11),
            (var[0], var[1], p00 * p11 - p10 * p01,     # Cov(y1, y2)
             v[0], v[1], p11 * (r[0] + p10)))           # Var(y1 y2)
        mean += block_mean
        cov += block_cov
    return log_kappa, mean, cov


def _dyad_loglik(design: DyadDesign, theta: np.ndarray,
                 g_obs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(log-likelihood, gradient, observed Fisher information)."""
    log_kappa, mean, cov = _dyad_moments(design, theta)
    return float(theta @ g_obs - log_kappa), g_obs - mean, cov


def _pseudo_loglik(design: DyadDesign,
                   theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(log-pseudolikelihood, gradient, Fisher information) at theta.

    The logistic regression of every tie on its change statistic
    x = t1 + y2 m (tie i->j) or t2 + y1 m (tie j->i), summed over blocks
    of _BLOCK dyads. The sigmoid, its variance and the softplus come
    from e = exp(-|eta|), exact at either tail.
    """
    k = design.k
    ll, grad, fisher = 0.0, np.zeros(k), np.zeros((k, k))
    theta_m = float(design.mvec @ theta)
    for dyads in _blocks(design.n_dyads):
        y = np.stack((design.y1[dyads], design.y2[dyads]))
        reverse = y[::-1]
        eta = design.tie_predictors(theta, dyads)
        eta += theta_m * reverse
        e = np.exp(-np.abs(eta))
        inv = 1.0 / (1.0 + e)
        ll += float(np.vdot(eta, y) - np.maximum(eta, 0.0).sum() - np.log1p(e).sum())
        resid = y - np.where(eta >= 0.0, inv, e * inv)   # y - expit(eta)
        w = e * inv * inv                                 # p (1 - p)
        v = w * reverse
        block_grad, block_fisher = design.weighted_gram(
            dyads, (resid[0], resid[1], np.vdot(resid, reverse)),
            (w[0], w[1], None, v[0], v[1], v.sum()))
        grad += block_grad
        fisher += block_fisher
    return ll, grad, fisher


def _pin_bound(design: DyadDesign) -> np.ndarray:
    """(K,) each term's pin bound, SEPARATION_BOUND over its row scale; a
    term 0 on every dyad has none (inf)."""
    scale = design.row_scale
    return np.divide(SEPARATION_BOUND, scale, out=np.full(design.k, np.inf),
                     where=scale > 0.0)


def _held_terms(design: DyadDesign, g_obs: np.ndarray,
                mutual_count: float) -> tuple[np.ndarray, np.ndarray]:
    """(held, bound), each (K,): the value a held term is fixed at, NaN for a
    free one, and each term's pin bound.

    The range is DyadDesign.statistic_range with the mutual term counted
    in `mutual_count` places. A term with the range [0, 0] stays free:
    its Fisher column is 0, so _newton's screen holds it. A term whose
    observed statistic is at an end of its range has no finite maximizer,
    and its gradient decays exponentially, so iteration alone can stall
    short of the bound: it is pinned at the bound with that end's sign.
    """
    low, high = design.statistic_range(mutual_count)
    bound = _pin_bound(design)
    live = high - low > _BOUNDARY_TOL
    top = live & (g_obs >= high - _BOUNDARY_TOL)
    bottom = live & (g_obs <= low + _BOUNDARY_TOL)
    return np.where(top, bound, np.where(bottom, -bound, np.nan)), bound


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b, by least squares when a is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def _inverse(a: np.ndarray) -> np.ndarray:
    """a^-1, the pseudo-inverse when a is singular."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a)


def _aliases(fisher: np.ndarray, free: np.ndarray) -> dict[int, tuple[int, ...]]:
    """{k: the kept terms that span it} for each free term k, in order, whose
    Schur complement against the earlier kept ones is at most _ALIAS_TOL of its
    diagonal; named are those whose part of k's sd exceeds the residual allowed."""
    kept, inv, found = [], np.zeros((0, 0)), {}   # inv: the kept block's inverse
    for k in np.flatnonzero(free).tolist():
        beta = inv @ fisher[kept, k]
        schur = fisher[k, k] - fisher[kept, k] @ beta
        if schur <= _ALIAS_TOL * fisher[k, k]:
            share = beta * beta * np.diag(fisher)[kept]   # each one's squared sd in k
            found[k] = tuple(j for j, c in zip(kept, share) if c > _ALIAS_TOL * fisher[k, k])
            continue
        u = beta / schur
        inv = np.block([[inv + np.outer(u, beta), -u[:, None]], [-u, 1.0 / schur]])
        kept.append(k)
    return found


def _newton(objective, k: int, held: np.ndarray | None = None,
            bound: np.ndarray | float = SEPARATION_BOUND,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int, dict]:
    """Maximize a concave objective with separation pinning.

    objective(theta) -> (ll, grad, fisher). Returns (theta, frozen,
    fisher, ll, iterations, aliases); a run that does not converge raises
    EstimationError. A coordinate whose `held` entry is not NaN stays at
    it, and one in `aliases` (of the first evaluation) at 0; a free one
    driven past its `bound` (per coordinate, or one for all) is pinned
    there and joins `frozen`. Also converged once a step is applied whose
    Newton decrement is within rounding of ll, since on large dyad sums
    the gradient's rounding floor can sit above _NEWTON_TOL; ll cannot
    rank such a step, so it is evaluated once.
    """
    if held is None:
        held = np.full(k, np.nan)
    frozen = ~np.isnan(held)
    theta = np.where(frozen, held, 0.0)
    ll, grad, fisher = objective(theta)
    aliases = _aliases(fisher, ~frozen)
    frozen[list(aliases)] = True
    for it in range(1, _NEWTON_MAX_ITER + 1):
        free = ~frozen
        if not free.any() or np.abs(grad[free]).max() < _NEWTON_TOL:
            break
        ascent = grad[free]
        step = _solve(fisher[np.ix_(free, free)], ascent)
        decrement = 0.5 * step @ ascent
        rounding = 16.0 * np.finfo(float).eps * abs(ll)
        settled = decrement <= rounding
        slack = max(rounding, 1e-12) if settled else 1e-12
        # step halving keeps the ascent monotone on flat/ill-scaled spots
        for _ in range(40):
            trial = theta.copy()
            trial[free] += step
            over = (np.abs(trial) > bound) & free
            trial[over] = np.copysign(bound, trial)[over]
            new_ll, new_grad, new_fisher = objective(trial)
            ascended = new_ll >= ll - slack
            if ascended or np.abs(step).max() < 1e-12:
                theta, ll, grad, fisher = trial, new_ll, new_grad, new_fisher
                frozen |= over
                break
            step *= 0.5
        else:
            raise EstimationError("line search failed to make progress")
        if ascended and settled:
            break
    else:
        raise EstimationError(f"no convergence after {_NEWTON_MAX_ITER} iterations "
                              f"(gradient norm {np.abs(grad[~frozen]).max():.3g})")
    return theta, frozen, fisher, ll, it, aliases


def _finalize(graph: Graph, design: DyadDesign, method: str, theta: np.ndarray,
              frozen: np.ndarray, fisher: np.ndarray, ll: float, iterations: int,
              inestimable: dict[int, str],
              diagnostics: dict[str, Any] | None = None) -> ErgmFit:
    """Wald inference at theta. A frozen term sits at 0 when it is
    inestimable (NaN) and at its bound when it is separated (infinite)."""
    n_obs = design.n_ordered_pairs
    k = theta.shape[0]
    std_err = np.zeros(k)
    free = ~frozen
    if free.any():
        cov = _inverse(fisher[np.ix_(free, free)])
        std_err[free] = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    p_values = np.zeros(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std_err > 0, theta / std_err, np.inf)
    p_values[free] = 2.0 * ndtr(-np.abs(z[free]))
    held_at_zero = frozen & (theta == 0.0)
    separated = frozen & ~held_at_zero
    reported = theta.copy()
    reported[separated] = np.sign(theta[separated]) * np.inf
    for values in (reported, std_err, p_values):
        values[held_at_zero] = np.nan
    aic = -2.0 * ll + 2.0 * k
    bic = -2.0 * ll + k * np.log(n_obs)
    return ErgmFit(
        labels=design.spec.labels,
        theta=reported,
        std_err=std_err,
        p_values=p_values,
        log_likelihood=ll,
        aic=float(aic),
        bic=float(bic),
        method=method,
        separation=separated,
        theta_pinned=theta.copy(),
        n_obs=n_obs,
        converged=True,
        iterations=iterations,
        graph_digest=graph_digest(graph),
        spec=design.spec,
        inestimable=inestimable,
        diagnostics=dict(diagnostics or {}),
    )


def _newton_fit(graph: Graph, design: DyadDesign, objective, method: str,
                g_obs: np.ndarray, mutual_count: float) -> ErgmFit:
    """Newton fit of `objective`, with the terms `_held_terms` names held."""
    theta, frozen, fisher, ll, it, aliases = _newton(
        objective, design.k, *_held_terms(design, g_obs, mutual_count))
    labels = design.spec.labels
    inestimable = {k: "aliased with " + ", ".join(labels[j] for j in span) if span
                   else "0 on every dyad" for k, span in aliases.items()}
    return _finalize(graph, design, method, theta, frozen, fisher, ll, it, inestimable)


def fit_exact_dyad(graph: Graph, spec: ErgmSpec) -> ErgmFit:
    """Exact MLE through the per-dyad factorization of the likelihood.

    Valid for every term in this algebra: all of them are dyad-local,
    so the likelihood factorizes over unordered pairs.
    """
    design = DyadDesign.from_graph(graph, spec)
    g_obs = design.statistics()
    # the mutual count ranges over all D dyads
    return _newton_fit(graph, design, lambda theta: _dyad_loglik(design, theta, g_obs),
                       "exact-dyad", g_obs, design.n_dyads)


def fit_mple(graph: Graph, spec: ErgmSpec, *,
             design: DyadDesign | None = None) -> ErgmFit:
    """Maximum pseudolikelihood: logistic regression on change statistics.

    For dyad-independent specs the pseudolikelihood is the true
    likelihood, so the result equals the exact MLE. `design` is the
    `DyadDesign` of `graph` and `spec`, for a caller that has built it.
    """
    if design is None:
        design = DyadDesign.from_graph(graph, spec)
    y1, y2 = design.y1, design.y2
    # X'y, the change statistics of the observed ties: both ties of a
    # mutual dyad carry m
    g_obs = design.weighted_sum(y1.astype(np.float64), y2.astype(np.float64),
                                2.0 * (y1 & y2))
    # an ordered pair's change statistic carries m when its reverse is a
    # tie, so on as many pairs as there are ties
    return _newton_fit(graph, design, lambda theta: _pseudo_loglik(design, theta),
                       "mple", g_obs, float(y1.sum() + y2.sum()))


def expected_statistics(graph: Graph, spec: ErgmSpec, theta: np.ndarray) -> np.ndarray:
    """E_theta[g(Y)] via the exact per-dyad state distribution."""
    return _dyad_moments(DyadDesign.from_graph(graph, spec), theta)[1]


def report_effects(fit: ErgmFit) -> list[dict]:
    """Per-term odds and probability transforms of the coefficients.

    Separated coefficients map through the limits (exp and expit of
    -inf are 0, of +inf are inf and 1), and a NaN one stays NaN.
    """
    return [{"term": label, "theta": float(value), "exp": float(np.exp(value)),
             "expit": float(expit(value))}
            for label, value in zip(fit.labels, fit.theta)]


def likelihood_ratio_test(fit: ErgmFit, null_fit: ErgmFit) -> tuple[float, int, float]:
    """(statistic, df, p) of the LRT of `fit` against a nested null.

    A statistic below 0 (the null fit scored higher) has p = 1.
    """
    if fit.graph_digest != null_fit.graph_digest:
        raise DataError("fits come from different graphs")
    df = fit.k - null_fit.k
    if df <= 0:
        raise DataError("null model must have fewer terms")
    stat = 2.0 * (fit.log_likelihood - null_fit.log_likelihood)
    return float(stat), int(df), float(chdtrc(df, max(stat, 0.0)))
