"""Exact draws from a dyad-local ERGM.

Every supported term is dyad-local, so the model is a product over the
unordered pairs of 4-state categoricals (00, 10, 01, 11), Holland and
Leinhardt's p1 form. A draw from the model is one categorical draw per
pair from its state law (`DyadDesign.state_law`): one uniform per pair,
placed in the pair's cumulative law. Kept states are independent, so
there is no burn-in, thinning or start state, and nothing is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, require_ints
from ..graph import Graph
from .terms import DyadDesign, ErgmSpec


@dataclass(frozen=True)
class SimControl:
    """Draw count and seed; burnin and interval are validated but ignored."""

    burnin: int = 100
    interval: int = 5
    sample_size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        require_ints(self, burnin=0, interval=1, sample_size=1, seed=0)


@dataclass
class SimResult:
    """Independent draws: statistic vectors plus the tie states behind them.

    acceptance_rate is always 1.0: an exact draw is never rejected.
    """

    labels: tuple[str, ...]
    stats: np.ndarray            # (samples, K)
    states: list[tuple[np.ndarray, np.ndarray]] = field(repr=False, default_factory=list)
    acceptance_rate: float = 1.0

    def graph(self, design: DyadDesign, index: int,
              node_ids=None) -> Graph:
        """Materialize one sampled state as a Graph (unit weights)."""
        y1, y2 = self.states[index]
        ids = list(node_ids) if node_ids is not None else list(range(design.n))
        edges = [(ids[int(i)], ids[int(j)], 1.0)
                 for i, j in zip(design.iu[y1], design.ju[y1])]
        edges += [(ids[int(j)], ids[int(i)], 1.0)
                  for i, j in zip(design.iu[y2], design.ju[y2])]
        return Graph(edges, nodes=ids)


def sample_states(design: DyadDesign, theta: np.ndarray, control: SimControl,
                  keep_states: bool = False) -> SimResult:
    """Draw `control.sample_size` independent states at theta, with their statistics."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (design.k,):
        raise ConfigError(f"theta has {theta.shape} entries for {design.k} terms")
    if not np.all(np.isfinite(theta)):
        raise ConfigError("theta must be finite for simulation")
    rng = np.random.default_rng(control.seed)
    cum = design.state_law(theta)[1][:3].cumsum(axis=0)  # P(state <= s), s < 3
    stats = np.empty((control.sample_size, design.k))
    codes = (np.empty((control.sample_size, design.n_dyads), dtype=np.int8)
             if keep_states else None)
    u = np.empty(design.n_dyads)
    for i in range(control.sample_size):
        rng.random(out=u)
        state = (u >= cum).sum(axis=0, dtype=np.int8)
        stats[i] = design.weighted_sum(state & 1, state >> 1, state == 3)
        if keep_states:
            codes[i] = state
    states = [((c & 1).astype(bool), (c >> 1).astype(bool))
              for c in codes] if keep_states else []
    return SimResult(labels=design.spec.labels, stats=stats, states=states)


def simulate(spec: ErgmSpec, theta: np.ndarray, graph_size: int | None = None,
             control: SimControl | None = None, graph: Graph | None = None,
             keep_states: bool = True) -> tuple[SimResult, DyadDesign]:
    """Draw networks from the model at fixed theta.

    Provide either `graph` (its nodes and covariates define the design)
    or `graph_size`. Returns the draws and the dyad design used, so
    sampled states can be materialized.
    """
    control = control or SimControl()
    if graph is not None:
        design = DyadDesign.from_graph(graph, spec)
    elif graph_size is not None:
        design = DyadDesign(graph_size, spec)
    else:
        raise ConfigError("simulate needs a graph or a graph_size")
    return sample_states(design, theta, control, keep_states=keep_states), design
