"""Monte-Carlo maximum likelihood (Geyer-Thompson iteration).

Starting from the pseudolikelihood estimate, each phase draws networks
at the current theta and maximizes the importance-sampled
log-likelihood ratio, guarded by the effective sample size of the
importance weights. Convergence is declared when every simulated mean
statistic sits within _EE_TOL simulated standard deviations of its
observed value. The draws are exact and independent, so a phase's
sample size is its effective sample size. The log-likelihood for
AIC/BIC and the Fisher information behind the standard errors are
exact: every term is dyad-local, so at theta-hat both are closed-form
sums over dyads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, EstimationError
from ..graph import Graph
from .fit import (ErgmFit, _dyad_loglik, _finalize, _inverse, _solve, fit_mple,
                  graph_digest)
from .sampler import SimControl, sample_states
from .terms import DyadDesign, ErgmSpec

_MAX_PHASES = 20      # phases before the fit fails
_EE_TOL = 0.1         # converged: each mean statistic within this many sd of g_obs
_STEP_MAX = 1.0       # largest coefficient change of one update step
_MIN_ESS_FRAC = 0.05  # an update ends below this ESS share of the sample (or below 2)


@dataclass(frozen=True)
class McmleControl:
    """Monte-Carlo controls: the draws per phase, and the seed of every phase's draws."""

    sample_size: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("sample_size", 2), ("seed", 0)):
            value = getattr(self, name)
            if not value >= least:
                raise ConfigError(f"McmleControl.{name} must be >= {least}, got {value!r}")


def _one_line(values: np.ndarray) -> str:
    """A vector printed on one line, so that an error message stays one line."""
    return np.array2string(values, precision=3, max_line_width=np.inf)


def _phase_seed(seed: int, stream: int) -> int:
    # distinct deterministic streams per phase
    return (seed * 1_000_003 + stream) % (2**63)


def _weighted_update(g_obs: np.ndarray, sample: np.ndarray, theta: np.ndarray,
                     free: np.ndarray) -> np.ndarray:
    """Maximize the importance-sampled likelihood ratio from theta."""
    eta = theta.copy()
    s = sample.shape[0]
    for _ in range(50):
        lw = sample @ (eta - theta)
        lw -= lw.max()
        w = np.exp(lw)
        w /= w.sum()
        if 1.0 / (w @ w) < max(2.0, _MIN_ESS_FRAC * s):
            break
        gw = w @ sample
        centered = sample - gw
        cov = centered.T @ (w[:, None] * centered)
        grad = (g_obs - gw)[free]
        step = _solve(cov[np.ix_(free, free)], grad)
        biggest = np.abs(step).max()
        if biggest > _STEP_MAX:
            step *= _STEP_MAX / biggest
        eta[free] += step
        if biggest < 1e-10:
            break
    return eta


def fit_mcmle(graph: Graph, spec: ErgmSpec,
              control: McmleControl | None = None) -> ErgmFit:
    """Monte-Carlo MLE; deterministic given the control seed.

    Coefficients separated at the pseudolikelihood stage stay pinned
    and are reported as signed infinity, and inestimable terms are held
    at 0 and reported as NaN, exactly as in the exact-dyad path.
    """
    control = control or McmleControl()
    design = DyadDesign.from_graph(graph, spec)
    g_obs = design.statistics()
    start = fit_mple(graph, spec, design=design)
    theta = start.theta_pinned.copy()
    dead = design.inestimable
    frozen = start.separation | dead
    free = ~frozen
    if not free.any():
        raise EstimationError("every coefficient is separated or inestimable; "
                              "nothing to estimate")

    ee_history: list[float] = []
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
        if ee < _EE_TOL:
            break
        theta = _weighted_update(g_obs, sample, theta, free)
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
    mc_se[dead] = np.nan

    diagnostics = {
        "trace": sample,
        "phases": phases,
        "ee_history": ee_history,
        "mc_std_err": mc_se,
    }
    return _finalize(theta, frozen, fisher, ll, design.n_ordered_pairs,
                     "mcmle", spec, graph_digest(graph), phases, diagnostics, dead)
