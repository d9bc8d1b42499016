"""Attribute table semantics: levels, reassignment, level subgraphs."""

import numpy as np
import pytest

import legnet
from legnet import AttributeTable, DataError, Graph, subgraph_by_level


def table():
    return AttributeTable(
        ("a", "b", "c", "d"),
        {"party": ["Blue", "Gold", "Blue", "Slate"],
         "chamber": ["Upper", "Lower", "Lower", "Lower"]},
        {"age": [50.0, 40.0, 60.0, 45.0]})


def test_column_bookkeeping():
    t = table()
    assert t.categorical_columns == ("party", "chamber")
    assert t.numeric_columns == ("age",)
    assert t.has("party") and not t.has("religion")


def test_levels_and_proportions():
    t = table()
    assert t.levels("party") == ("Blue", "Gold", "Slate")


def test_reassign_levels():
    t = table()
    moved = t.reassign_party({"d": "Blue"})
    assert moved.categorical("party") == ("Blue", "Gold", "Blue", "Blue")
    # the original is untouched
    assert t.categorical("party")[3] == "Slate"


def test_reassign_party_rejects_unknowns():
    t = table()
    with pytest.raises(DataError, match="zz"):
        t.reassign_party({"zz": "Blue"})
    with pytest.raises(DataError, match="Chartreuse"):
        t.reassign_party({"d": "Chartreuse"})


def test_indices_with():
    t = table()
    assert t.indices_with("party", "Blue") == [0, 2]
    with pytest.raises(DataError):
        t.indices_with("party", "Green")


def test_numeric_validation():
    with pytest.raises(DataError):
        AttributeTable(("a",), {}, {"age": [-4.0]})
    with pytest.raises(DataError):
        AttributeTable(("a", "b"), {"party": ["Blue"]}, {})


@pytest.mark.parametrize("value, message", [
    (float("nan"), "non-finite age for node 'b'"),
    (float("inf"), "non-finite age for node 'b'"),
    (-float("inf"), "non-finite age for node 'b'"),
    (-4.0, "negative age for node 'b'"),
])
def test_non_finite_or_negative_numeric_values_are_refused(value, message):
    with pytest.raises(DataError) as exc:
        AttributeTable(("a", "b", "c"), {}, {"age": [50.0, value, 40.0]})
    assert str(exc.value) == message


@pytest.mark.parametrize("value", ["nan", "1e999", "-inf"])
def test_non_finite_age_in_the_attribute_csv_is_a_data_error(value):
    g = Graph([("a", "b", 1.0), ("b", "a", 1.0)])
    with pytest.raises(DataError, match="non-finite age for node 'b'"):
        legnet.load_attributes(f"node_id,age\na,50\nb,{value}\n".encode(), g)


def test_a_column_asked_for_as_the_other_kind_is_named_as_such():
    t = table()
    with pytest.raises(DataError, match="column 'age' is numeric, not categorical"):
        t.categorical("age")
    with pytest.raises(DataError, match="column 'party' is categorical, not numeric"):
        t.numeric("party")
    with pytest.raises(DataError, match="categorical column 'religion' not loaded"):
        t.categorical("religion")
    with pytest.raises(DataError, match="numeric column 'tenure' not loaded"):
        t.numeric("tenure")


def test_subgraph_by_level():
    g = Graph([("a", "b", 0.5), ("b", "c", 0.5), ("c", "a", 0.5),
               ("a", "c", 0.5)])
    t = AttributeTable(("a", "b", "c"),
                       {"party": ["Blue", "Gold", "Blue"]}, {})
    sub = subgraph_by_level(g, t, "party", "Blue")
    assert sub.node_ids == ("a", "c")
    assert list(sub.edge_records()) == [("c", "a", 0.5), ("a", "c", 0.5)]
    with pytest.raises(DataError):
        subgraph_by_level(g, t, "party", "Green")


def test_subgraph_rejects_mismatched_table():
    g = Graph([("a", "b", 0.5)])
    t = AttributeTable(("a", "x"), {"party": ["Blue", "Gold"]}, {})
    with pytest.raises(DataError, match="attribute/graph mismatch"):
        subgraph_by_level(g, t, "party", "Blue")
