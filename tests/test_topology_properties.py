"""Property suite: when the nodes are relabeled, the geodesic scores follow
them and the assortativity coefficients stay the same."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import legnet  # noqa: E402
from legnet import DataError  # noqa: E402

from conftest import graph_from_matrix  # noqa: E402


@st.composite
def relabeled(draw):
    """A random digraph on 3-12 nodes as a matrix, and a permutation of its nodes."""
    n = draw(st.integers(3, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    # from no edge to dense: sparse draws leave nodes that reach nothing
    pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), unique=True, max_size=40))
    y = np.zeros((n, n), dtype=bool)
    y[tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)] = True
    return y, np.array(draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(relabeled())
def test_path_scores_follow_a_relabeling(case):
    # node k of the relabeled graph is node perm[k] of the original
    y, perm = case
    g, h = graph_from_matrix(y), graph_from_matrix(y[np.ix_(perm, perm)])
    for mode in ("out", "in"):
        # levels and their sums are integers: equal bit for bit, NaN included
        assert np.array_equal(legnet.closeness(h, mode), legnet.closeness(g, mode)[perm],
                              equal_nan=True)
    assert np.allclose(legnet.betweenness(h), legnet.betweenness(g)[perm],
                       rtol=1e-12, atol=1e-15)


def _coefficient(score, graph, values):
    """The coefficient, or the message of the DataError that refuses it."""
    try:
        return score(graph, values)
    except DataError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(relabeled(), st.data())
def test_assortativity_ignores_a_relabeling(case, data):
    y, perm = case
    n = len(perm)
    levels = data.draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    values = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    g, h = graph_from_matrix(y), graph_from_matrix(y[np.ix_(perm, perm)])
    for score, x in ((legnet.assortativity_categorical, levels),
                     (legnet.assortativity_scalar, [float(v) for v in values])):
        want = _coefficient(score, g, x)
        got = _coefficient(score, h, [x[k] for k in perm])
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        else:
            assert got == want
