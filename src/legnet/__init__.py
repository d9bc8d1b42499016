"""Toolkit for directed, weighted legislative interaction networks.

Loads an edge list plus optional member attributes and provides
descriptive topology, mixing/assortativity, exponential-family edge
models, latent blockmodel clustering, and partition agreement scores,
with a batch CLI that emits a reproducible report bundle.
"""

__version__ = "0.1.0"

from .attributes import AttributeTable, subgraph_by_level
from .config import (BUILTIN_MODELS, RunConfig, build_model, config_from_dict,
                     parse_q_range, spec_from_terms)
from .errors import ConfigError, DataError, EstimationError, LegnetError
from .graph import ComponentReport, Graph, components
from .io import load_attributes, load_edge_list, save_edge_list
from .partition import adjusted_rand, contingency, nmi, rand_index
from .ergm import (AbsDiff, DyadDesign, Edges, ErgmFit, ErgmSpec, McmleControl,
                   Mutual, NodeCovariate, NodeMatch, SimControl, SimResult,
                   expected_statistics, fit_exact_dyad, fit_mcmle, fit_mple,
                   likelihood_ratio_test, mcmc_diagnostics, report_effects,
                   sample_states)
from .sbm import SbmFit, classification_icl, community_summary, fit_q, select_q
from .topology import (assortativity_categorical, assortativity_report,
                       assortativity_scalar, betweenness, centrality_report,
                       closeness, connectivity_report, density,
                       eigen_centrality, hits, maximal_cliques, reciprocity,
                       triad_closure)
from .pipeline import Pipeline, compare_models

__all__ = [
    "__version__",
    "AbsDiff", "AttributeTable", "BUILTIN_MODELS", "ComponentReport",
    "ConfigError", "DataError", "DyadDesign", "Edges", "ErgmFit", "ErgmSpec",
    "EstimationError", "Graph", "LegnetError", "McmleControl", "Mutual",
    "NodeCovariate", "NodeMatch", "Pipeline", "RunConfig", "SbmFit",
    "SimControl", "SimResult",
    "adjusted_rand", "assortativity_categorical", "assortativity_report",
    "assortativity_scalar", "betweenness", "build_model", "centrality_report",
    "classification_icl", "closeness", "community_summary", "compare_models",
    "components", "config_from_dict", "connectivity_report", "contingency",
    "density", "eigen_centrality", "expected_statistics", "fit_exact_dyad",
    "fit_mcmle", "fit_mple", "fit_q", "hits", "likelihood_ratio_test",
    "load_attributes", "load_edge_list", "maximal_cliques",
    "mcmc_diagnostics", "nmi", "parse_q_range", "rand_index",
    "reciprocity", "report_effects", "sample_states", "save_edge_list",
    "select_q", "spec_from_terms",
    "subgraph_by_level", "triad_closure",
]
