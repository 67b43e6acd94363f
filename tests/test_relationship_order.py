"""Relationship insertion order survives every whole-graph codec.

``EntityGraph.relationships()`` yields relationships in the order they
were added, and the ``.rgs`` store and replica snapshots replay that
sequence.  So a round trip reproduces the source graph exactly: the
same relationship sequence, the same first-seen type orders and the
same ``targets``/``sources`` list for every entity and relationship
type.  Interleaved inserts (``s→A r2``, ``s→B r1``, ``s→A r1``) are the
shape a source-grouped replay would get wrong.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_domain
from repro.model import EntityGraph, RelationshipTypeId
from repro.replicate.snapshot import capture_snapshot, restore_snapshot
from repro.store import STORE_EXTENSION, build_store, open_store

R1 = RelationshipTypeId("r1", "S", "T")
R2 = RelationshipTypeId("r2", "S", "T")


def _minimal():
    graph = EntityGraph("minimal")
    graph.add_entity("s", ["S"])
    graph.add_entity("A", ["T"])
    graph.add_entity("B", ["T"])
    graph.add_relationship("s", "A", R2)
    graph.add_relationship("s", "B", R1)
    graph.add_relationship("s", "A", R1)
    return graph


_SOURCES = {
    "minimal": _minimal,
    "film": lambda: generate_domain("film"),
}


def _via_store(graph, tmp_path):
    path = tmp_path / f"{graph.name}{STORE_EXTENSION}"
    build_store(graph, path)
    with open_store(path) as store:
        return store.entity_graph()


def _via_snapshot(graph, _tmp_path):
    record = json.loads(json.dumps(capture_snapshot(graph, graph.generation)))
    return restore_snapshot(record)


def _adjacency(graph):
    """``targets``/``sources`` under every relationship type.

    Covers every entity that can hold such an edge: one bearing the
    type's source (for ``targets``) or target (for ``sources``) type.
    """
    lists = {}
    for rel in graph.relationship_types():
        for entity in graph.entities_of_type(rel.source_type):
            lists[("out", entity, rel)] = graph.targets(entity, rel)
        for entity in graph.entities_of_type(rel.target_type):
            lists[("in", entity, rel)] = graph.sources(entity, rel)
    return lists


@pytest.fixture(scope="module", params=sorted(_SOURCES))
def source(request):
    return _SOURCES[request.param]()


@pytest.mark.parametrize("round_trip", [_via_store, _via_snapshot])
def test_round_trip_keeps_exact_order(source, round_trip, tmp_path):
    clone = round_trip(source, tmp_path)
    assert list(clone.relationships()) == list(source.relationships())
    assert clone.relationship_types() == source.relationship_types()
    assert clone.entity_types() == source.entity_types()
    assert _adjacency(clone) == _adjacency(source)


def test_minimal_targets_keep_insertion_order(tmp_path):
    for round_trip in (_via_store, _via_snapshot):
        assert round_trip(_minimal(), tmp_path).targets("s", R1) == ["B", "A"]


# One op: add entity e<i> with type T<j>, or relate the i-th and j-th
# entities added so far under relationship name n<k>.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("entity"), st.integers(0, 5), st.integers(0, 2)),
        st.tuples(
            st.just("rel"),
            st.integers(0, 5),
            st.integers(0, 5),
            st.integers(0, 2),
        ),
    ),
    max_size=40,
)


def _apply(graph, ops):
    """Run ``ops`` on ``graph``; return the relationships actually added."""
    added, inserted = [], []
    for op in ops:
        if op[0] == "entity":
            entity = f"e{op[1]}"
            graph.add_entity(entity, [f"T{op[2]}"])
            if entity not in added:
                added.append(entity)
        elif added:
            source = added[op[1] % len(added)]
            target = added[op[2] % len(added)]
            rel = RelationshipTypeId(
                f"n{op[3]}",
                min(graph.types_of(source)),
                min(graph.types_of(target)),
            )
            graph.add_relationship(source, target, rel)
            inserted.append((source, target, rel))
    return inserted


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, bulk=st.booleans())
def test_relationships_follow_insertion_sequence(ops, bulk):
    graph = EntityGraph("g")
    if bulk:
        with graph.bulk_load():
            inserted = _apply(graph, ops)
    else:
        inserted = _apply(graph, ops)
    assert list(graph.relationships()) == inserted
    assert graph.edge_count == len(inserted)
