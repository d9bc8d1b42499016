"""Exponential random graph modeling: terms, estimators, simulation."""

from .fit import (ErgmFit, expected_statistics, fit_exact_dyad, fit_mple,
                  graph_digest, likelihood_ratio_test, report_effects)
from .mcmle import McmleControl, fit_mcmle, mcmc_diagnostics
from .sampler import SimControl, SimResult, sample_states
from .terms import (AbsDiff, DyadDesign, Edges, ErgmSpec, ErgmTerm, Mutual,
                    NodeCovariate, NodeMatch)

__all__ = [
    "AbsDiff", "DyadDesign", "Edges", "ErgmFit", "ErgmSpec", "ErgmTerm",
    "McmleControl", "Mutual", "NodeCovariate", "NodeMatch", "SimControl",
    "SimResult", "expected_statistics", "fit_exact_dyad", "fit_mcmle",
    "fit_mple", "graph_digest", "likelihood_ratio_test", "mcmc_diagnostics",
    "report_effects", "sample_states",
]
