"""Statistic vectors, change statistics, and the dyad design."""

import itertools

import numpy as np
import pytest

import legnet
from legnet import DataError
from legnet.ergm import (AbsDiff, DyadDesign, Edges, ErgmSpec, Mutual,
                         NodeCovariate, NodeMatch)

from conftest import matrix_of, oracle_statistics, ordered_design_matrix, random_digraph


def full_spec(n, seed=0):
    """One term of every kind over random covariates."""
    rng = np.random.default_rng(seed)
    x = tuple(rng.uniform(0, 5, n))
    z = tuple(rng.uniform(0, 5, n))
    lab = tuple(["p", "q", "r"][i % 3] for i in range(n))
    spec = ErgmSpec([
        Edges(), Mutual(),
        NodeCovariate("x", x, "sender"),
        NodeCovariate("x", x, "receiver"),
        NodeCovariate("z", z, "sum"),
        NodeMatch("grp", lab),
        NodeMatch("grp", lab, level="q"),
        AbsDiff("z", z),
    ])
    terms = [("edges",), ("mutual",), ("cov", x, "sender"),
             ("cov", x, "receiver"), ("cov", z, "sum"), ("match", lab, None),
             ("match", lab, "q"), ("absdiff", z)]
    return spec, terms


def test_global_statistics_match_direct_counting():
    for seed in range(6):
        g = random_digraph(7, p=0.4, seed=seed, mutual_boost=0.3)
        spec, terms = full_spec(7, seed=seed)
        got = DyadDesign.from_graph(g, spec).statistics()
        want = oracle_statistics(matrix_of(g), terms)
        assert np.allclose(got, want)
    # match labels whose sorted order is not their first-seen order, and
    # numeric-looking strings that compare equal only as numbers
    lab = ("10", "9", "010", "9", "10", "010", "9")
    g = random_digraph(7, p=0.6, seed=21, mutual_boost=0.5)
    spec = ErgmSpec([NodeMatch("grp", lab), NodeMatch("grp", lab, level="010"),
                     NodeMatch("grp", lab, level="9")])
    want = oracle_statistics(matrix_of(g), [("match", lab, None),
                                            ("match", lab, "010"),
                                            ("match", lab, "9")])
    assert DyadDesign.from_graph(g, spec).statistics().tolist() == want.tolist()
    assert want.min() > 0


def test_change_statistic_is_a_toggle_difference():
    for seed in range(4):
        g = random_digraph(6, p=0.4, seed=seed + 9)
        spec, terms = full_spec(6, seed=seed)
        design = DyadDesign.from_graph(g, spec)
        y = matrix_of(g)
        for i, j in itertools.permutations(range(6), 2):
            with_edge = y.copy()
            with_edge[i, j] = True
            without = y.copy()
            without[i, j] = False
            want = (oracle_statistics(with_edge, terms)
                    - oracle_statistics(without, terms))
            got = design.change_statistic(i, j)
            assert np.allclose(got, want), (i, j)


def test_change_statistic_rejects_diagonal():
    g = random_digraph(5, p=0.4, seed=1)
    spec, _ = full_spec(5)
    design = DyadDesign.from_graph(g, spec)
    with pytest.raises(DataError):
        design.change_statistic(2, 2)


@pytest.mark.parametrize("i, j", [(0, 12), (0, 40), (12, 0), (-1, 3), (3, -1)])
def test_change_statistic_rejects_indices_outside_the_graph(i, j):
    # 12 and 40 would otherwise land on another dyad's column
    g = random_digraph(12, p=0.3, seed=2)
    spec, _ = full_spec(12)
    design = DyadDesign.from_graph(g, spec)
    with pytest.raises(DataError, match="out of range for 12 nodes"):
        design.change_statistic(i, j)


def test_design_round_trip_and_pair_index():
    g = random_digraph(8, p=0.35, seed=5, mutual_boost=0.4)
    spec, terms = full_spec(8)
    design = DyadDesign.from_graph(g, spec)
    assert np.allclose(design.statistics(), oracle_statistics(matrix_of(g), terms))
    # pair_index enumerates the upper triangle row-major
    seen = [int(design.pair_index(i, j))
            for i in range(8) for j in range(i + 1, 8)]
    assert seen == list(range(design.n_dyads))
    # the stored tie state reproduces the observed edge set
    ties = {(int(design.iu[d]), int(design.ju[d])) for d in np.flatnonzero(design.y1)}
    ties |= {(int(design.ju[d]), int(design.iu[d])) for d in np.flatnonzero(design.y2)}
    src, dst, _ = g.edge_arrays()
    assert ties == set(zip(src.tolist(), dst.tolist()))


def test_ordered_design_matrix_rows_are_change_statistics():
    g = random_digraph(6, p=0.4, seed=13, mutual_boost=0.5)
    spec, _ = full_spec(6)
    design = DyadDesign.from_graph(g, spec)
    x, y = ordered_design_matrix(design)
    assert x.shape == (30, spec.k) and y.shape == (30,)
    row = 0
    for i in range(6):
        for j in range(i + 1, 6):
            assert np.allclose(x[row], design.change_statistic(i, j))
            assert y[row] == float(matrix_of(g)[i, j])
            row += 1
    for i in range(6):
        for j in range(i + 1, 6):
            assert np.allclose(x[row], design.change_statistic(j, i))
            assert y[row] == float(matrix_of(g)[j, i])
            row += 1


def test_mutual_change_depends_on_reverse_tie():
    g = legnet.Graph([("a", "b", 0.5)])
    spec = ErgmSpec([Edges(), Mutual()])
    # b->a closes the dyad; a->c does not
    g3 = legnet.Graph([("a", "b", 0.5), ("c", "a", 0.5)])
    design = DyadDesign.from_graph(g3, spec)
    d_close = design.change_statistic(1, 0)
    d_open = design.change_statistic(1, 2)
    assert d_close.tolist() == [1.0, 1.0]
    assert d_open.tolist() == [1.0, 0.0]


def test_spec_validation():
    with pytest.raises(DataError):
        ErgmSpec([])
    with pytest.raises(DataError):
        ErgmSpec([Edges(), Edges()])
    with pytest.raises(DataError):
        NodeCovariate("x", (1.0,), role="both")
    with pytest.raises(DataError):
        NodeMatch("grp", ("a", "b"), level="zz")


def test_labels_and_dyad_independence():
    x = (1.0, 2.0, 3.0)
    spec = ErgmSpec([Edges(), NodeCovariate("deg", x, "sender"),
                     NodeMatch("p", ("u", "u", "v"), level="u"),
                     AbsDiff("age", x)])
    assert spec.labels == ("edges", "sender(deg)", "match(p=u)", "absdiff(age)")
