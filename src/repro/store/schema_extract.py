"""Bridge from the triple store to the entity-graph data model.

Mirrors the paper's pipeline: the dataset lives in a database (our triple
store), from which we materialize the entity graph, then derive its schema
graph and precompute scores before any preview discovery runs.
"""

from __future__ import annotations

from ..exceptions import ModelError, StoreError
from ..model.entity_graph import EntityGraph
from ..model.schema_graph import SchemaGraph
from ..model.triples import TYPE_PREDICATE, entity_graph_to_triples
from .triple_store import TripleStore


def store_from_entity_graph(graph: EntityGraph) -> TripleStore:
    """Load an entity graph into a fresh triple store (with multiplicity)."""
    store = TripleStore()
    for triple in entity_graph_to_triples(graph):
        store.add(triple)
    return store


def entity_graph_from_store(store: TripleStore, name: str = "entity-graph") -> EntityGraph:
    """Materialize an entity graph from a triple store.

    Processes all typing triples first, so relationship triples may appear
    in any order in the store.  Relationship multiplicity is honoured.

    Both passes walk ``store.triples()`` — the store's first-assertion
    insertion order — never the index dictionaries, whose innermost
    sets iterate in hash order.  A store loaded from
    :func:`~repro.model.triples.entity_graph_to_triples` therefore
    rebuilds the graph with the original entity insertion order and
    first-seen type order (typing triples are grouped per subject so
    each entity is added once, with its full ordered type list), and a
    store loaded from a sorted dataset file rebuilds it in the file's
    deterministic order.
    """
    from ..model.ids import parse_qualified_name

    graph = EntityGraph(name=name)
    entity_types: dict = {}
    for triple, _count in store.triples():
        # Typing triples are idempotent; multiplicity is ignored.
        if triple.predicate == TYPE_PREDICATE:
            types = entity_types.setdefault(triple.subject, [])
            if triple.object not in types:
                types.append(triple.object)
    with graph.bulk_load():
        for entity, types in entity_types.items():
            graph.add_entity(entity, types)
        for triple, count in store.triples():
            if triple.predicate == TYPE_PREDICATE:
                continue
            try:
                rel_type = parse_qualified_name(triple.predicate)
            except ModelError as exc:
                raise StoreError(
                    f"predicate {triple.predicate!r} is not a qualified "
                    f"relationship type: {exc}"
                ) from exc
            for _ in range(count):
                graph.add_relationship(triple.subject, triple.object, rel_type)
    return graph


def schema_graph_from_store(store: TripleStore, name: str = "entity-graph") -> SchemaGraph:
    """Derive a schema graph directly from a triple store."""
    return SchemaGraph.from_entity_graph(entity_graph_from_store(store, name=name))
