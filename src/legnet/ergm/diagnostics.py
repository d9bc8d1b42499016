"""Per-term summaries of the statistics simulated by a Monte-Carlo fit."""

from __future__ import annotations

import numpy as np

from ..errors import DataError


def mcmc_diagnostics(fit) -> list[dict]:
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
