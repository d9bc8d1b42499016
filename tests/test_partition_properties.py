"""Property suite: the partition scores are symmetric, bounded, and blind to
label names and to the order of the nodes."""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from legnet import adjusted_rand, contingency, nmi, rand_index  # noqa: E402
from legnet.partition import count_pairs, label_codes  # noqa: E402

SCORES = (rand_index, adjusted_rand, nmi)


@st.composite
def partitions(draw):
    """Two partitions of 2-30 nodes into labels 0-5, a renaming of the labels
    of each, and a permutation of the nodes."""
    n = draw(st.integers(2, 30))
    labels = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    names = st.permutations([f"c{k}" for k in range(6)])
    return (draw(labels), draw(labels), draw(names), draw(names),
            draw(st.permutations(range(n))))


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_scores_are_symmetric_and_bounded(case):
    a, b, *_ = case
    for score in SCORES:
        assert score(b, a) == pytest.approx(score(a, b), rel=1e-12, abs=1e-12)
    assert 0.0 <= rand_index(a, b) <= 1.0
    assert 0.0 <= nmi(a, b) <= 1.0
    assert adjusted_rand(a, b) <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_scores_ignore_label_names_and_node_order(case):
    a, b, names_a, names_b, perm = case
    renamed = [names_a[x] for x in a], [names_b[x] for x in b]
    moved = [a[k] for k in perm], [b[k] for k in perm]
    for score in SCORES:
        want = score(a, b)
        assert score(*renamed) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert score(*moved) == pytest.approx(want, rel=1e-12, abs=1e-12)


@st.composite
def aligned_labels(draw):
    """Two aligned label lists of 1-40 entries, each drawn from its own
    levels and from one they share, and 0-2 spare row codes that no label
    uses (a class that labels no node)."""
    n = draw(st.integers(1, 40))
    a = draw(st.lists(st.sampled_from(["zeta", "alpha", "mid", "both"]), min_size=n, max_size=n))
    b = draw(st.lists(st.sampled_from(["omega", "both", "beta"]), min_size=n, max_size=n))
    return a, b, draw(st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(aligned_labels())
@example((["zeta", "alpha", "zeta", "mid"], ["omega", "beta", "both", "omega"], 1))
def test_pair_counts_and_contingency_equal_plain_counts(case):
    # the example's labels are first seen in another order than sorted,
    # and "zeta", "mid", "omega" and "beta" are used by one side only
    a, b, spare = case
    (la, ca), (lb, cb) = label_codes(a), label_codes(b)
    assert list(la) == sorted(set(a)) and [la[c] for c in ca] == a
    counts = Counter(zip(a, b))
    expected = [[counts[x, y] for y in lb] for x in la]
    assert count_pairs(ca, cb, len(la) + spare, len(lb)).tolist() == (
        expected + [[0] * len(lb)] * spare)
    assert contingency(a, b).tolist() == expected
