"""Undirected graph container, constructors, and the text format."""

from __future__ import annotations

import pytest

from symcirc import (
    CircuitError,
    Graph,
    builtin_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    format_graph,
    is_graph_isomorphism,
    is_two_connected,
    parse_graph,
    path_graph,
    petersen_graph,
)
from symcirc.errors import SchemaError


def test_normalization():
    g = Graph((2, 1, 3), ((3, 1), (1, 3), (2, 1)))
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 2), (1, 3))


def test_self_loops_rejected():
    with pytest.raises(CircuitError):
        Graph((1, 2), ((1, 1), (1, 2)))


def test_unknown_vertex_rejected():
    with pytest.raises(CircuitError):
        Graph((1, 2), ((1, 3),))


def test_adjacency_and_degree():
    g = cycle_graph(4)
    assert g.degree(1) == 2
    assert g.has_edge(1, 2)
    assert not g.has_edge(1, 3)
    assert set(g.incident(1)) == {(1, 2), (1, 4)}


def test_connectivity():
    assert cycle_graph(5).is_connected()
    two = cycle_graph(3).disjoint_union(cycle_graph(3))
    assert not two.is_connected()
    assert len(two.vertices) == 6
    assert len(two.edges) == 6
    assert Graph((), ()).is_connected()
    assert Graph((1,), ()).is_connected()


def test_induced_and_relabel():
    g = complete_graph(4)
    h = g.induced([1, 2, 3])
    assert len(h.edges) == 3
    r = g.relabel({v: v * 10 for v in g.vertices})
    assert r.vertices == (10, 20, 30, 40)
    assert is_graph_isomorphism(g, r, {v: v * 10 for v in g.vertices})


def test_two_connected():
    assert is_two_connected(cycle_graph(4))
    assert is_two_connected(complete_graph(4))
    assert not is_two_connected(path_graph(4))
    # two triangles joined at one vertex have a cut vertex
    tri = Graph((1, 2, 3, 4, 5), ((1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)))
    assert not is_two_connected(tri)
    assert not is_two_connected(Graph((1, 2), ((1, 2),)))
    assert not is_two_connected(cycle_graph(3).disjoint_union(cycle_graph(3)))


def test_isomorphism_check():
    c4 = cycle_graph(4)
    p4 = path_graph(4)
    assert not is_graph_isomorphism(c4, p4, {v: v for v in c4.vertices})
    rot = {1: 2, 2: 3, 3: 4, 4: 1}
    assert is_graph_isomorphism(c4, c4, rot)
    assert not is_graph_isomorphism(c4, c4, {1: 1, 2: 2, 3: 3})


def test_constructor_counts():
    assert len(complete_graph(5).edges) == 10
    k33 = complete_bipartite(3, 3)
    assert len(k33.vertices) == 6
    assert len(k33.edges) == 9
    assert all(k33.degree(v) == 3 for v in k33.vertices)
    pet = petersen_graph()
    assert len(pet.vertices) == 10
    assert len(pet.edges) == 15
    assert all(pet.degree(v) == 3 for v in pet.vertices)


def test_builtin_graphs():
    with pytest.raises(CircuitError):
        builtin_graph("k5")


def test_parse_and_format_round_trip():
    text = format_graph(petersen_graph())
    g = parse_graph(text)
    assert len(g.vertices) == 10
    assert len(g.edges) == 15
    assert format_graph(g) == text


def test_parse_simple():
    g = parse_graph("graph 3 2\n1 2\n2 3\n")
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 2), (2, 3))


def test_parse_errors_have_paths():
    with pytest.raises(SchemaError):
        parse_graph("graph x 2\n1 2\n1 3\n")
    with pytest.raises(SchemaError):
        parse_graph("graph 3 2\n1 2\n")
    try:
        parse_graph("graph 3 2\n1 2\n1 9\n")
    except SchemaError as e:
        assert "edges" in str(e)
    else:
        raise AssertionError("expected SchemaError")


@pytest.mark.parametrize("text, message", [
    ("graph 4 6\n1 2\n1 3\n1 4\n2 1\n2 3\n3 4\n", "$.edges[4]: repeated edge 2 1"),
    ("graph 4 6\n1 2\n1 3\n1 4\n2 3\n1 1\n3 4\n", "$.edges[5]: self-loop at 1"),
])
def test_parse_refuses_repeated_edges_and_self_loops(text, message):
    with pytest.raises(SchemaError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("graph -2 0\n", "$.header: vertex/edge counts must not be negative, got -2 0"),
    ("graph 3 -1\n", "$.header: vertex/edge counts must not be negative, got 3 -1"),
])
def test_parse_refuses_negative_counts(text, message):
    with pytest.raises(SchemaError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


def test_relabel_refuses_a_mapping_that_is_not_injective():
    with pytest.raises(CircuitError, match="relabel maps 1 and 3 to one label 1"):
        path_graph(3).relabel({1: 1, 2: 2, 3: 1})
    assert path_graph(3).relabel({1: 3, 2: 2, 3: 1}).edges == ((1, 2), (2, 3))


def test_relabel_refuses_a_mapping_that_leaves_a_vertex_out():
    with pytest.raises(CircuitError, match="relabel does not map vertex 2"):
        path_graph(3).relabel({1: "a", 3: "c"})
