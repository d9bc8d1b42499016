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
from typing import ClassVar

import numpy as np

from ..errors import ConfigError, DataError, require_ints
from ..graph import Graph
from .terms import DyadDesign


@dataclass(frozen=True)
class SimControl:
    """Draw count and seed. The draws are exact: no burn-in, no thinning."""

    burnin: ClassVar[int] = 0    # both read by bench/tracing.py's sweep count
    interval: ClassVar[int] = 1
    sample_size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        require_ints(self, sample_size=1, seed=0)


@dataclass
class SimResult:
    """Independent draws: their statistics and, if kept, their tie states."""

    acceptance_rate: ClassVar[float] = 1.0  # never rejected; read by bench/tracing.py
    stats: np.ndarray  # (draws, K)
    states: np.ndarray | None = field(repr=False, default=None)  # (draws, D) int8 y1 + 2*y2

    def graph(self, design: DyadDesign, index: int) -> Graph:
        """Materialize draw `index` as a Graph on nodes 0..n-1 (unit weights)."""
        if self.states is None:
            raise DataError("no states were kept: draw with keep_states=True")
        if not 0 <= index < len(self.states):
            raise DataError(f"draw index {index} out of range for {len(self.states)} draws")
        code = self.states[index]
        y1, y2 = (code & 1).astype(bool), (code >> 1).astype(bool)
        edges = [(int(i), int(j), 1.0) for i, j in zip(design.iu[y1], design.ju[y1])]
        edges += [(int(j), int(i), 1.0) for i, j in zip(design.iu[y2], design.ju[y2])]
        return Graph(edges, nodes=range(design.n))


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
    return SimResult(stats=stats, states=codes)
