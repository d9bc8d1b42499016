"""Partition agreement scores, checked exhaustively at small sizes."""

import csv

import numpy as np
import pytest

import legnet
from legnet import DataError, adjusted_rand, nmi, rand_index
from legnet.cli import main

from conftest import gen, oracle_ari, oracle_nmi, oracle_rand, set_partitions


def test_every_partition_pair_of_five_items():
    partitions = list(set_partitions(5))
    assert len(partitions) == 52  # Bell number B(5)
    for a in partitions:
        for b in partitions:
            assert rand_index(a, b) == pytest.approx(oracle_rand(a, b))
            assert adjusted_rand(a, b) == pytest.approx(oracle_ari(a, b))
            assert nmi(a, b) == pytest.approx(oracle_nmi(a, b), abs=1e-12)


def test_identical_partitions_score_one():
    labels = [0, 1, 1, 2, 0, 2]
    assert rand_index(labels, labels) == 1.0
    assert adjusted_rand(labels, labels) == 1.0
    assert nmi(labels, labels) == 1.0


def test_label_names_do_not_matter():
    a = ["u", "u", "v", "v", "w"]
    b = [9, 9, 4, 4, 7]
    assert adjusted_rand(a, b) == 1.0
    assert nmi(a, b) == 1.0


def test_independent_random_labels_score_near_zero():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, 400).tolist()
    b = rng.integers(0, 4, 400).tolist()
    assert abs(adjusted_rand(a, b)) < 0.05
    assert nmi(a, b) < 0.05


def test_degenerate_partitions():
    ones = [0, 0, 0, 0]
    singles = [0, 1, 2, 3]
    # two copies of the trivial partition agree completely
    assert adjusted_rand(ones, ones) == 1.0
    assert nmi(ones, ones) == 1.0
    assert nmi(singles, singles) == 1.0
    # trivial vs informative: no shared information
    assert nmi(ones, [0, 0, 1, 1]) == 0.0
    assert rand_index(ones, singles) == pytest.approx(oracle_rand(ones, singles))


def test_input_validation():
    with pytest.raises(DataError):
        rand_index([0, 1], [0, 1, 2])
    with pytest.raises(DataError):
        rand_index([0], [0])


def test_contingency_counts():
    table = legnet.contingency([0, 0, 1, 1], ["p", "q", "q", "q"])
    assert table.sum() == 4
    assert table.shape == (2, 2)
    assert table[0, 0] == 1 and table[0, 1] == 1 and table[1, 1] == 2
    with pytest.raises(DataError):
        legnet.contingency([], [])


def test_scores_at_congress_scale_match_the_pair_counting_oracle(tmp_path, capsys):
    # the CLI's scores of the scanned partition of the generator's seed-1
    # congress graph (n=300), against party and chamber as the attribute
    # file gives them
    gen.generate(1, tmp_path, shapes=("congress",))
    out = tmp_path / "out"
    assert main(["score", "--edges", str(tmp_path / "congress_edges.csv"),
                 "--attrs", str(tmp_path / "congress_attrs.csv"), "--q-range", "1:6",
                 "--restarts", "2", "--seed", "1", "--out", str(out)]) == 0, \
        capsys.readouterr().err
    with open(out / "communities.csv", newline="") as fh:
        community = {row["node_id"]: row["community"] for row in csv.DictReader(fh)}
    with open(tmp_path / "congress_attrs.csv", newline="") as fh:
        attrs = list(csv.DictReader(fh))
    with open(out / "partition_scores.csv", newline="") as fh:
        scores = list(csv.DictReader(fh))
    labels = [community[row["node_id"]] for row in attrs]
    assert len(labels) == len(community) == 300 and len(set(labels)) > 1
    assert [row["partition"] for row in scores] == ["party", "chamber"]
    for row in scores:
        other = [member[row["partition"]] for member in attrs]
        assert float(row["rand"]) == pytest.approx(oracle_rand(labels, other), abs=1e-12)
        assert float(row["adjusted_rand"]) == pytest.approx(oracle_ari(labels, other),
                                                            abs=1e-12)
        assert float(row["nmi"]) == pytest.approx(oracle_nmi(labels, other), abs=1e-12)
