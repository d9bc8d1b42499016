"""Agreement scores between two node partitions, and the label coding and
pair count that every group count in legnet reads.

Partitions are label sequences aligned by position; labels may be any
sortable values. All scores are label-permutation invariant and
symmetric in their arguments.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np
from scipy.special import xlogy

from .errors import DataError


def label_codes(labels: Sequence[Hashable]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct labels, sorted, and each position's index among them."""
    return np.unique(np.asarray(labels, dtype=object), return_inverse=True)


def count_pairs(a: np.ndarray, b: np.ndarray, ka: int, kb: int) -> np.ndarray:
    """(ka, kb) table of how often each code pair (a[i], b[i]) occurs."""
    if len(a) != len(b):
        raise DataError(f"partitions cover {len(a)} and {len(b)} nodes")
    return np.bincount(a * kb + b, minlength=ka * kb).reshape(ka, kb)


def contingency(a: Sequence[Hashable], b: Sequence[Hashable]) -> np.ndarray:
    """Cross-tabulation of two label sequences."""
    if len(a) == 0:
        raise DataError("empty partitions")
    (la, ca), (lb, cb) = label_codes(a), label_codes(b)
    return count_pairs(ca, cb, len(la), len(lb))


def _comb2(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def _pair_counts(a: Sequence[Hashable],
                 b: Sequence[Hashable]) -> tuple[int, float, float, float]:
    """n, and the node pairs that share a cell, a row and a column of the
    cross-table: the sums of C(n_ij, 2), C(n_i., 2) and C(n_.j, 2)."""
    table = contingency(a, b)
    return (int(table.sum()), _comb2(table).sum(),
            _comb2(table.sum(axis=1)).sum(), _comb2(table.sum(axis=0)).sum())


def rand_index(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    """Fraction of node pairs on which the partitions agree."""
    n, s11, sa, sb = _pair_counts(a, b)
    if n < 2:
        raise DataError("rand index needs at least 2 nodes")
    total = _comb2(np.asarray(n))
    return float((total + 2.0 * s11 - sa - sb) / total)


def adjusted_rand(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    """Hubert-Arabie chance-corrected Rand index.

    When both partitions are single-class (or otherwise leave no room
    for chance), the score is 1 by convention.
    """
    n, s11, sa, sb = _pair_counts(a, b)
    if n < 2:
        raise DataError("adjusted Rand needs at least 2 nodes")
    expected = sa * sb / _comb2(np.asarray(n))
    denom = 0.5 * (sa + sb) - expected
    if denom == 0.0:
        return 1.0
    return float((s11 - expected) / denom)


def nmi(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    """Normalized mutual information between two partitions, over the mean
    of the two entropies. Conventions: 1.0 when both partitions are
    single-class, 0.0 when exactly one is.
    """
    table = contingency(a, b).astype(np.float64)
    n = table.sum()
    p = table / n
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    ha = float(-xlogy(pa, pa).sum())
    hb = float(-xlogy(pb, pb).sum())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    outer = pa[:, None] * pb[None, :]
    mi = float((xlogy(p, p) - xlogy(p, outer)).sum())
    return float(min(max(mi / (0.5 * (ha + hb)), 0.0), 1.0))
