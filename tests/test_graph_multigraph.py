"""Unit tests for repro.graph.multigraph."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph import DirectedMultigraph


@pytest.fixture
def graph():
    g = DirectedMultigraph()
    g.add_edge("a", "b", "x")
    g.add_edge("a", "b", "y")  # parallel edge
    g.add_edge("b", "c", "z")
    g.add_edge("c", "a", "w")
    return g


class TestNodes:
    def test_add_node_idempotent(self):
        g = DirectedMultigraph()
        g.add_node("a")
        g.add_node("a")
        assert g.node_count == 1

    def test_add_edge_adds_endpoints(self, graph):
        assert graph.has_node("a") and graph.has_node("c")

    def test_contains_and_len(self, graph):
        assert "a" in graph
        assert "zzz" not in graph
        assert len(graph) == 3


class TestEdges:
    def test_parallel_edges_counted(self, graph):
        assert graph.edge_count == 4
        between = [label for s, t, _, label in graph.edges() if (s, t) == ("a", "b")]
        assert between == ["x", "y"]

    def test_edge_keys_unique(self, graph):
        keys = [key for _, _, key, _ in graph.edges()]
        assert len(keys) == len(set(keys))

    def test_labels_preserved(self, graph):
        labels = {label for _, _, _, label in graph.edges()}
        assert labels == {"x", "y", "z", "w"}


class TestAdjacency:
    def test_neighbors_undirected(self, graph):
        assert set(graph.neighbors("a")) == {"b", "c"}

    def test_adjacency_missing_node_raises(self, graph):
        with pytest.raises(NodeNotFoundError):
            list(graph.neighbors("nope"))
