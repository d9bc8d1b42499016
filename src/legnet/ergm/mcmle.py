"""Monte-Carlo maximum likelihood (Geyer-Thompson iteration).

Starting from the pseudolikelihood estimate, each phase draws networks
at the current theta. Convergence is declared when every simulated
mean statistic sits within max(_EE_TOL, 1/sqrt(sample_size)) simulated
standard deviations of its observed value: the second bound is a phase
mean's own Monte-Carlo error, which exceeds _EE_TOL below 100 draws.
Otherwise theta moves by partial stepping (Hummel, Hunter & Handcock
2012): toward gamma g_obs + (1 - gamma) gbar, with gamma as large as
keeps that target inside the hull of the draws, the shared Newton fit
maximizes the importance-sampled log-likelihood ratio. The draws are
exact and independent, so a phase's sample size is its effective sample
size. The log-likelihood for AIC/BIC and the Fisher information behind
the standard errors are exact: every term is dyad-local, so at theta-hat
both are closed-form sums over dyads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax

from ..errors import DataError, EstimationError, require_ints
from ..graph import Graph
from .fit import (ErgmFit, _dyad_loglik, _finalize, _inverse, _newton, _pin_bound,
                  fit_mple)
from .sampler import SimControl, sample_states
from .terms import DyadDesign, ErgmSpec

_MAX_PHASES = 20      # phases before the fit fails
_EE_TOL = 0.1         # converged: each mean statistic within this many sd of g_obs,
                      # or within 1/sqrt(sample_size) sd when that is larger
_HALVINGS = 10        # gamma tries 1, 1/2, ..., 2**-9, then takes 0


@dataclass(frozen=True)
class McmleControl:
    """Monte-Carlo controls: the draws per phase, and the seed of every phase's draws."""

    sample_size: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        require_ints(self, sample_size=2, seed=0)


def _one_line(values: np.ndarray) -> str:
    """A vector printed on one line, so that an error message stays one line."""
    return np.array2string(values, precision=3, max_line_width=np.inf)


def _phase_seed(seed: int, stream: int) -> int:
    # distinct deterministic streams per phase
    return (seed * 1_000_003 + stream) % (2**63)


def _inside_hull(points: np.ndarray, xi: np.ndarray) -> bool:
    """Whether xi is in the relative interior of the hull of points: the
    finite-support recession check of Geyer (2009). It is not when some
    delta has <delta, p - xi> <= 0 for every point p, strictly for one;
    an LP over |delta| <= 1, with unit-range columns, maximizes the sum
    of -<delta, p - xi>, which is 0 exactly when no such delta exists."""
    from scipy.optimize import linprog

    rows = points - xi
    rows /= np.maximum(np.abs(rows).max(axis=0), np.finfo(float).tiny)
    found = linprog(rows.sum(axis=0), A_ub=rows, b_ub=np.zeros(len(rows)),
                    bounds=(-1.0, 1.0), method="highs")
    return found.status == 0 and found.fun > -1e-7


def _hull_target(g_obs: np.ndarray, sample: np.ndarray,
                 free: np.ndarray) -> tuple[np.ndarray, float]:
    """(xi, gamma): xi = gamma g_obs + (1 - gamma) gbar for the first gamma of
    1, 1/2, ... whose free coordinates lie inside the draws' hull, else gbar."""
    gbar = sample.mean(axis=0)
    for halving in range(_HALVINGS):
        gamma = 0.5 ** halving
        xi = gamma * g_obs + (1.0 - gamma) * gbar
        if _inside_hull(sample[:, free], xi[free]):
            return xi, gamma
    return gbar, 0.0


def _ratio_loglik(sample: np.ndarray, xi: np.ndarray,
                  delta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(ll, gradient, Fisher information) at delta of the importance-sampled
    log-likelihood ratio toward xi, -log mean_s exp<delta, g_s - xi>."""
    lw = (sample - xi) @ delta
    w = softmax(lw)
    mean = w @ sample
    centered = sample - mean
    return (float(np.log(len(lw)) - logsumexp(lw)), xi - mean,
            centered.T @ (w[:, None] * centered))


def fit_mcmle(graph: Graph, spec: ErgmSpec,
              control: McmleControl | None = None) -> ErgmFit:
    """Monte-Carlo MLE; deterministic given the control seed.

    The terms the pseudolikelihood fit holds stay held: separated ones
    pinned and reported as signed infinity, inestimable ones (0 on every
    dyad, or aliased) at 0 and reported as NaN with the same reasons.
    """
    control = control or McmleControl()
    design = DyadDesign.from_graph(graph, spec)
    g_obs = design.statistics()
    start = fit_mple(graph, spec, design=design)
    theta = start.theta_pinned.copy()
    free = np.isfinite(start.theta)
    bound = _pin_bound(design)
    if not free.any():
        raise EstimationError("every coefficient is separated or inestimable; "
                              "nothing to estimate")

    tol = max(_EE_TOL, 1.0 / np.sqrt(control.sample_size))
    ee_history: list[float] = []
    gamma_history: list[float] = []
    sample = None
    phases = 0
    for phase in range(_MAX_PHASES):
        phases = phase + 1
        sim = sample_states(
            design, theta,
            SimControl(sample_size=control.sample_size,
                       seed=_phase_seed(control.seed, phase)))
        sample = sim.stats
        gbar = sample.mean(axis=0)
        gsd = sample.std(axis=0, ddof=1)
        if np.any(gsd[free] == 0.0):
            stuck = [spec.labels[k] for k in np.flatnonzero((gsd == 0.0) & free)]
            tail = ", ".join(_one_line(draw) for draw in sample[-5:])
            raise EstimationError(
                f"degenerate simulation: constant statistics for {stuck}; "
                f"last draws: {tail}")
        ee = float(np.abs((gbar - g_obs)[free] / gsd[free]).max())
        ee_history.append(ee)
        if ee < tol:
            break
        xi, gamma = _hull_target(g_obs, sample, free)
        gamma_history.append(gamma)
        try:
            delta, pinned, *_, flat = _newton(lambda d: _ratio_loglik(sample, xi, d),
                                              spec.k, np.where(free, np.nan, 0.0), bound)
        except EstimationError as exc:
            raise EstimationError(f"update of phase {phases}: {exc}") from None
        # a direction that the draws do not span is held at delta 0, not pinned
        far = [spec.labels[k] for k in np.flatnonzero(pinned & free) if k not in flat]
        if far:
            raise EstimationError(f"update of phase {phases}: {far} reached the "
                                  f"separation bound")
        theta += delta
    else:
        raise EstimationError(
            f"estimating equations not met after {_MAX_PHASES} phases "
            f"(discrepancy history {_one_line(np.asarray(ee_history))})")

    # The exact log-likelihood and Fisher information Cov[g(Y)] at theta-hat.
    ll, _, fisher = _dyad_loglik(design, theta, g_obs)

    # Monte-Carlo error of theta-hat: delta method, with the sample size
    # as the ESS of independent draws.
    fisher_free = fisher[np.ix_(free, free)]
    finv = _inverse(fisher_free)
    mc_cov = finv @ np.diag(np.diag(fisher_free) / sample.shape[0]) @ finv
    mc_se = np.zeros(spec.k)
    mc_se[free] = np.sqrt(np.clip(np.diag(mc_cov), 0.0, None))
    mc_se[np.isnan(start.theta)] = np.nan

    diagnostics = {
        "trace": sample,
        "phases": phases,
        "ee_history": ee_history,
        "gamma_history": gamma_history,
        "mc_std_err": mc_se,
    }
    return _finalize(graph, design, "mcmle", theta, ~free, fisher, ll, phases,
                     start.inestimable, diagnostics)


def mcmc_diagnostics(fit: ErgmFit) -> list[dict]:
    """Per-term distribution of the last phase's simulated statistics.

    A term whose simulated statistic never varies (sd 0) is flagged
    `degenerate`: the draws carry no information about it.
    """
    if fit.method != "mcmle" or "trace" not in fit.diagnostics:
        raise DataError("diagnostics need a fit produced by fit_mcmle")
    trace = np.asarray(fit.diagnostics["trace"])
    rows = []
    for k, label in enumerate(fit.labels):
        col = trace[:, k]
        sd = float(col.std(ddof=1))
        q = np.quantile(col, [0.0, 0.25, 0.5, 0.75, 1.0])
        rows.append({
            "term": label,
            "mean": float(col.mean()),
            "sd": sd,
            "min": float(q[0]),
            "q25": float(q[1]),
            "median": float(q[2]),
            "q75": float(q[3]),
            "max": float(q[4]),
            "degenerate": sd == 0.0,
        })
    return rows
