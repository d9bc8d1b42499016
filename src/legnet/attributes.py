"""Node attribute table aligned to a graph's node indexing."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .graph import Graph, NodeId
from .partition import label_codes

CATEGORICAL_COLUMNS = ("party", "chamber", "state", "race",
                       "ethnicity", "religion", "sex", "lgbtq")
NUMERIC_COLUMNS = ("age", "tenure")


class AttributeTable:
    """Per-node attributes, row i describing node index i of the graph.

    Columns are optional; operations that need an absent column raise
    DataError. Tables are immutable: `reassign_party` returns a new table.
    """

    __slots__ = ("_ids", "_cat", "_num")

    def __init__(self,
                 node_ids: Sequence[NodeId],
                 categorical: Mapping[str, Sequence[str]] | None = None,
                 numeric: Mapping[str, Sequence[float]] | None = None) -> None:
        self._ids = tuple(node_ids)
        n = len(self._ids)
        cat: dict[str, tuple[str, ...]] = {}
        for name, col in (categorical or {}).items():
            col = tuple(str(v) for v in col)
            if len(col) != n:
                raise DataError(f"column {name!r} has {len(col)} rows, expected {n}")
            cat[name] = col
        num: dict[str, np.ndarray] = {}
        for name, col in (numeric or {}).items():
            arr = np.asarray(col, dtype=np.float64)
            if arr.shape != (n,):
                raise DataError(f"column {name!r} has {arr.shape[0]} rows, expected {n}")
            for bad, what in ((~np.isfinite(arr), "non-finite"), (arr < 0, "negative")):
                if np.any(bad):
                    raise DataError(f"{what} {name} for node {self._ids[np.argmax(bad)]!r}")
            num[name] = arr
        self._cat = cat
        self._num = num

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        return self._ids

    @property
    def categorical_columns(self) -> tuple[str, ...]:
        return tuple(self._cat)

    @property
    def numeric_columns(self) -> tuple[str, ...]:
        return tuple(self._num)

    def has(self, column: str) -> bool:
        return column in self._cat or column in self._num

    def categorical(self, column: str) -> tuple[str, ...]:
        try:
            return self._cat[column]
        except KeyError:
            if column in self._num:
                raise DataError(f"column {column!r} is numeric, not categorical") from None
            raise DataError(f"categorical column {column!r} not loaded") from None

    def numeric(self, column: str) -> np.ndarray:
        try:
            return self._num[column].copy()
        except KeyError:
            if column in self._cat:
                raise DataError(f"column {column!r} is categorical, not numeric") from None
            raise DataError(f"numeric column {column!r} not loaded") from None

    def levels(self, column: str) -> tuple[str, ...]:
        """Distinct levels of a categorical column, sorted."""
        return tuple(label_codes(self.categorical(column))[0])

    def reassign_party(self, mapping: Mapping[NodeId, str]) -> "AttributeTable":
        """New table with the party of the mapped node ids overridden.

        Target levels must already exist in the party vocabulary.
        """
        current = list(self.categorical("party"))
        vocab = set(current)
        index = {node: i for i, node in enumerate(self._ids)}
        for node, level in mapping.items():
            if node not in index:
                raise DataError(f"unknown node id {node!r} in reassignment")
            if level not in vocab:
                raise DataError(f"level {level!r} not in 'party' vocabulary {sorted(vocab)}")
            current[index[node]] = level
        return AttributeTable(self._ids, {**self._cat, "party": tuple(current)}, self._num)

    def indices_with(self, column: str, level: str) -> list[int]:
        col = self.categorical(column)
        if level not in set(col):
            raise DataError(f"level {level!r} not present in column {column!r}")
        return [i for i, v in enumerate(col) if v == level]


def subgraph_by_level(graph: Graph, attrs: AttributeTable,
                      column: str, level: str) -> Graph:
    """Induced subgraph over the nodes carrying `level` in `column`."""
    if attrs.node_ids != graph.node_ids:
        raise DataError("attribute/graph mismatch")
    idx = attrs.indices_with(column, level)
    if not idx:
        raise DataError(f"empty selection for {column}={level}")
    return graph.induced_subgraph(idx)
