"""Metropolis-Hastings tie-toggle sampler, drawn through its k-step kernel.

One sweep proposes to toggle one tie of every dyad, direction by a fair
coin, and accepts with probability min(1, exp(+/- theta' delta)). The
terms are dyad-local, so each dyad is its own 4-state chain with a
closed-form one-sweep transition matrix P. Burn-in and interval (in
sweeps) become powers of P by repeated squaring, once per call, and each
thinned state is one categorical draw per dyad: the sweep chain's law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..graph import Graph
from .terms import DyadDesign, ErgmSpec


@dataclass(frozen=True)
class SimControl:
    burnin: int = 100
    interval: int = 5
    sample_size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burnin < 0 or self.interval < 1 or self.sample_size < 1:
            raise ConfigError("simulation control values must be positive")


@dataclass
class SimResult:
    """Thinned draws: statistic vectors plus the tie states behind them."""

    labels: tuple[str, ...]
    stats: np.ndarray            # (samples, K)
    states: list[tuple[np.ndarray, np.ndarray]] = field(repr=False, default_factory=list)
    acceptance_rate: float = 0.0

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


# _NEIGHBOURS[s, t]: one toggle moves dyad state s = y1 + 2 y2 to t.
_NEIGHBOURS = np.array([[s ^ t in (1, 2) for t in range(4)] for s in range(4)])
_BLOCK = 16384  # dyads per block: keeps the (block, 4, 4) kernels to a few MB


def sample_states(design: DyadDesign, theta: np.ndarray, control: SimControl,
                  init: str = "observed",
                  keep_states: bool = False) -> SimResult:
    """Draw the chain's thinned states and record their statistic vectors.

    init "observed" starts from the design's stored tie state,
    "empty" from the empty graph, "random" from fair-coin ties.
    acceptance_rate is exact: the mean over draws and dyads of the
    probability 1 - P[s, s] that a sweep's proposal is accepted at s.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (design.k,):
        raise ConfigError(f"theta has {theta.shape} entries for {design.k} terms")
    if not np.all(np.isfinite(theta)):
        raise ConfigError("theta must be finite for simulation")
    rng = np.random.default_rng(control.seed)
    d = design.n_dyads
    if init == "observed":
        y1, y2 = design.y1, design.y2
    elif init == "empty":
        y1, y2 = np.zeros(d, dtype=bool), np.zeros(d, dtype=bool)
    elif init == "random":
        y1 = rng.random(d) < 0.5
        y2 = rng.random(d) < 0.5
    else:
        raise ConfigError(f"unknown init {init!r}")

    start = y1 + 2 * y2
    log_weights = design.state_log_weights(theta)
    stats = np.zeros((control.sample_size, design.k))
    codes = np.empty((control.sample_size, d), dtype=np.int8) if keep_states else None
    accepted = 0.0
    for lo in range(0, d, _BLOCK):
        block = slice(lo, min(lo + _BLOCK, d))
        w = log_weights[block]
        # P[s, t] = 1/2 min(1, exp(w_t - w_s)) for the neighbours t of s
        p = 0.5 * np.exp(np.minimum(w[:, None, :] - w[:, :, None], 0.0)) * _NEIGHBOURS
        accept = p.sum(axis=2)  # 1 - P[s, s]
        p[:, np.arange(4), np.arange(4)] = 1.0 - accept
        rows = 4 * np.arange(p.shape[0])
        # column 4 * dyad + state holds that row's cumulative law
        burn, step = (np.ascontiguousarray(
            np.linalg.matrix_power(p, k).cumsum(axis=2).reshape(-1, 4).T)
            for k in (control.burnin, control.interval))
        t1, t2 = design.t1[block], design.t2[block]
        at = rows + start[block]
        for i in range(control.sample_size):
            cum = (burn if i == 0 else step).take(at, axis=1)
            u = rng.random(rows.shape[0]) * cum[3]
            state = (u >= cum[:3]).sum(axis=0, dtype=np.int8)
            at = rows + state
            accepted += accept.take(at).sum()
            stats[i] += ((state & 1) @ t1 + (state >> 1) @ t2
                         + np.count_nonzero(state == 3) * design.mvec)
            if keep_states:
                codes[i, block] = state
    states = [((c & 1).astype(bool), (c >> 1).astype(bool))
              for c in codes] if keep_states else []
    return SimResult(labels=design.spec.labels, stats=stats, states=states,
                     acceptance_rate=accepted / (control.sample_size * d))


def simulate(spec: ErgmSpec, theta: np.ndarray, graph_size: int | None = None,
             control: SimControl | None = None, graph: Graph | None = None,
             keep_states: bool = True) -> tuple[SimResult, DyadDesign]:
    """Draw networks from the model at fixed theta.

    Provide either `graph` (simulation starts at its tie state) or
    `graph_size` (starts from fair-coin ties). Returns the draws and
    the dyad design used, so sampled states can be materialized.
    """
    control = control or SimControl()
    if graph is not None:
        design = DyadDesign.from_graph(graph, spec)
        init = "observed"
    elif graph_size is not None:
        design = DyadDesign(graph_size, spec)
        init = "random"
    else:
        raise ConfigError("simulate needs a graph or a graph_size")
    result = sample_states(design, theta, control, init=init, keep_states=keep_states)
    return result, design
