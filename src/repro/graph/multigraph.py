"""A directed multigraph with labelled parallel edges.

This is the structural substrate underneath the paper's schema graph,
which may contain several relationship types between the same pair of
entity types.  The traversal, distance and component helpers accept it
alongside :class:`~repro.graph.simple.UndirectedGraph`.

The implementation is intentionally dependency-free: adjacency is stored
as ``dict[node, dict[node, dict[key, label]]]`` in both directions, which
makes neighbor scans O(degree) and edge insertion O(1).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Tuple

from ..exceptions import NodeNotFoundError

Node = Hashable
EdgeKey = int


class DirectedMultigraph:
    """A directed multigraph with hashable nodes and labelled edges.

    Parallel edges between the same ordered pair of nodes are allowed and
    distinguished by an integer *edge key* assigned at insertion time.
    Each edge carries an arbitrary *label* (the schema graph uses
    relationship-type identifiers).
    """

    def __init__(self) -> None:
        self._succ: Dict[Node, Dict[Node, Dict[EdgeKey, object]]] = {}
        self._pred: Dict[Node, Dict[Node, Dict[EdgeKey, object]]] = {}
        self._next_key: int = 0
        self._edge_count: int = 0

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph; adding an existing node is a no-op."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._succ

    def nodes(self) -> Iterator[Node]:
        """Iterator over nodes in insertion order."""
        return iter(self._succ)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, source: Node, target: Node, label: object = None) -> EdgeKey:
        """Insert a directed edge and return its unique edge key.

        Endpoints are added implicitly when missing, matching the common
        graph-library convention.
        """
        self.add_node(source)
        self.add_node(target)
        key = self._next_key
        self._next_key += 1
        self._succ[source].setdefault(target, {})[key] = label
        self._pred[target].setdefault(source, {})[key] = label
        self._edge_count += 1
        return key

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    def edges(self) -> Iterator[Tuple[Node, Node, EdgeKey, object]]:
        """Yield every edge as ``(source, target, key, label)``."""
        for source, targets in self._succ.items():
            for target, keyed in targets.items():
                for key, label in keyed.items():
                    yield source, target, key, label

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> Iterator[Node]:
        """Yield distinct neighbors in either direction (undirected view)."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        seen = set(self._succ[node])
        yield from seen
        for other in self._pred[node]:
            if other not in seen:
                yield other

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )
