"""EntityGraph.bulk_load: the one whole-graph build path.

A bulk build runs the same validating ``add_entity``/``add_relationship``
as a per-mutation build, so it must produce the same graph — orders,
adjacency, fingerprint and generation — and differ only in the mutation
log (an empty delta window) and in pausing the garbage collector.
Also covers the cached ``RelationshipTypeId`` hash, which the bulk
builders lean on, across pickling and hash seeds.
"""

import asyncio
import contextlib
import gc
import os
import pickle
import subprocess
import sys
import threading
import weakref

import pytest

from repro.datasets import generate_domain
from repro.datasets.loader import graph_fingerprint
from repro.datasets.tpce_mini import build_tpce_mini
from repro.exceptions import ModelError, SchemaViolationError, UnknownEntityError
from repro.model import EntityGraph, RelationshipTypeId
from repro.model.mutation_log import FULL_DELTA
from repro.replicate import ReplicaHost
from repro.replicate.snapshot import capture_snapshot, restore_snapshot

ACTOR = RelationshipTypeId("Actor", "FILM ACTOR", "FILM")


def _builders():
    return {
        "film": lambda: generate_domain("film", scale=3000, seed=5),
        "tpce-mini": lambda: build_tpce_mini.__wrapped__(0),
    }


def _adjacency(graph):
    """Every (entity, rel type) adjacency list, both directions."""
    out = {}
    for rel in graph.relationship_types():
        for entity in graph.entities_of_type(rel.source_type):
            out[("out", entity, rel)] = graph.targets(entity, rel)
        for entity in graph.entities_of_type(rel.target_type):
            out[("in", entity, rel)] = graph.sources(entity, rel)
    return out


@pytest.fixture(scope="module", params=sorted(_builders()))
def built_pair(request):
    """(bulk-built graph, per-op-built graph) from the same builder."""
    build = _builders()[request.param]
    bulk = build()
    with pytest.MonkeyPatch.context() as patch:
        # A no-op bulk_load() sends the same builder down the per-op path.
        patch.setattr(
            EntityGraph, "bulk_load", lambda self: contextlib.nullcontext(self)
        )
        plain = build()
    return bulk, plain


class TestEquivalence:
    def test_entity_and_type_orders(self, built_pair):
        bulk, plain = built_pair
        assert list(bulk.entities()) == list(plain.entities())
        assert bulk.entity_types() == plain.entity_types()
        # capture_snapshot records each entity's types in global
        # first-seen order: the per-entity type order.
        assert (
            capture_snapshot(bulk, 0)["entities"]
            == capture_snapshot(plain, 0)["entities"]
        )

    def test_relationship_order_and_adjacency(self, built_pair):
        bulk, plain = built_pair
        assert list(bulk.relationships()) == list(plain.relationships())
        assert bulk.relationship_types() == plain.relationship_types()
        assert _adjacency(bulk) == _adjacency(plain)

    def test_fingerprint_and_generation(self, built_pair):
        bulk, plain = built_pair
        assert graph_fingerprint(bulk) == graph_fingerprint(plain)
        assert bulk.generation == plain.generation > 0
        assert bulk.stats() == plain.stats()

    def test_bulk_log_starts_with_an_empty_window(self, built_pair):
        bulk, plain = built_pair
        log = bulk.mutation_log
        assert log.horizon == bulk.generation
        assert len(log) == 0
        assert log.dirty_since(bulk.generation - 1) is FULL_DELTA
        assert log.dirty_since(bulk.generation).empty
        # The per-op build keeps its most recent entries.
        assert plain.mutation_log.dirty_since(plain.generation - 1) is not FULL_DELTA

    def test_mutations_after_a_bulk_build_are_logged(self):
        graph = EntityGraph("g")
        with graph.bulk_load():
            graph.add_entity("a", ["FILM ACTOR"])
            graph.add_entity("m", ["FILM"])
        base = graph.generation
        graph.add_relationship("a", "m", ACTOR)
        delta = graph.mutation_log.dirty_since(base)
        assert graph.generation == base + 1 == 3
        assert delta.rel_types == {ACTOR} and delta.structural

    def test_snapshot_restore_matches_source(self, built_pair):
        bulk, _plain = built_pair
        restored = restore_snapshot(capture_snapshot(bulk, bulk.generation + 7))
        assert list(restored.relationships()) == list(bulk.relationships())
        assert restored.generation == bulk.generation + 7
        assert restored.mutation_log.horizon == restored.generation
        # One interned id per relationship type, shared by every edge.
        ids = {id(rel) for _s, _t, rel in restored.relationships()}
        assert len(ids) == len(restored.relationship_types())


class TestContract:
    def test_generation_is_the_mutation_count(self):
        graph = EntityGraph("g")
        with graph.bulk_load() as same:
            assert same is graph
            graph.add_entity("a", ["FILM ACTOR"])
            graph.add_entity("a", ["FILM ACTOR"])  # idempotent re-add counts
            graph.add_entity("m", ["FILM"])
            graph.add_relationship("a", "m", ACTOR)
        assert graph.generation == 4

    def test_only_on_a_pristine_graph(self):
        graph = EntityGraph("g")
        graph.add_entity("a", ["FILM ACTOR"])
        with pytest.raises(ModelError, match="pristine"):
            with graph.bulk_load():
                pass

    def test_not_reentrant_on_one_graph(self):
        graph = EntityGraph("g")
        with graph.bulk_load():
            with pytest.raises(ModelError, match="already open on 'g'"):
                with graph.bulk_load():
                    pass

    def test_validation_is_unchanged(self):
        graph = EntityGraph("g")
        with pytest.raises(UnknownEntityError):
            with graph.bulk_load():
                graph.add_entity("a", ["FILM ACTOR"])
                graph.add_relationship("a", "nobody", ACTOR)
        with pytest.raises(SchemaViolationError, match="at least one type"):
            with EntityGraph("h").bulk_load() as other:
                other.add_entity("x", [])


class TestCollector:
    def _violating_build(self):
        graph = EntityGraph("g")
        with pytest.raises(SchemaViolationError, match="lacks type"):
            with graph.bulk_load():
                graph.add_entity("a", ["FILM ACTOR"])
                graph.add_entity("m", ["FILM"])
                graph.add_relationship("a", "m", ACTOR)
                graph.add_relationship("m", "a", ACTOR)  # mid-load violation
                graph.add_relationship("a", "m", ACTOR)
        # The mutations applied before the error are still counted.
        assert graph.generation == 3

    def test_paused_inside_and_restored_after(self):
        assert gc.isenabled()
        with EntityGraph("g").bulk_load():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_error_leaves_an_enabled_collector_enabled(self):
        assert gc.isenabled()
        self._violating_build()
        assert gc.isenabled()

    def test_error_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            self._violating_build()
            with EntityGraph("g").bulk_load():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_overlapping_loads_share_one_pause(self):
        first, second = EntityGraph("a"), EntityGraph("b")
        with first.bulk_load():
            with second.bulk_load():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the outer load is still live
        assert gc.isenabled()

    def test_concurrent_loads_restore_the_collector(self):
        barrier = threading.Barrier(4)

        def build(index):
            graph = EntityGraph(f"g{index}")
            with graph.bulk_load():
                barrier.wait()
                graph.add_entity(f"e{index}", ["T"])

        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gc.isenabled()

    def test_replica_bootstrap_releases_the_replaced_graph(self):
        # A bootstrap bulk-loads a new graph while the old one is live;
        # once replaced, the old graph (which forms a reference cycle
        # with its engine) must still be reclaimable by the collector.
        source = build_tpce_mini.__wrapped__(0)
        record = capture_snapshot(source, source.generation)
        host = ReplicaHost("tpce-mini", build_tpce_mini.__wrapped__(0))
        try:
            replaced = []
            for step in (1, 2):
                replaced.append(weakref.ref(host.graph))
                replaced.append(weakref.ref(host.graph.entity_graph))
                generation = source.generation + step
                asyncio.run(host.bootstrap(dict(record, generation=generation)))
            assert host.graph.generation == source.generation + 2
            gc.collect()
            assert [ref() for ref in replaced] == [None] * len(replaced)
        finally:
            host.close()


_PICKLE_IN_CHILD = (
    "import pickle, sys\n"
    "from repro.model import RelationshipTypeId as R\n"
    "rel = R('Actor', 'FILM ACTOR', 'FILM')\n"
    "sys.stdout.buffer.write(pickle.dumps(({rel: 'value'}, rel)))\n"
)


class TestRelationshipTypeIdHash:
    def test_hash_is_the_triple_hash(self):
        assert hash(ACTOR) == hash(("Actor", "FILM ACTOR", "FILM"))

    def test_unpickled_id_hashes_like_a_fresh_one(self):
        clone = pickle.loads(pickle.dumps(ACTOR))
        fresh = RelationshipTypeId("Actor", "FILM ACTOR", "FILM")
        assert clone == fresh and hash(clone) == hash(fresh)
        assert {fresh: 1}[clone] == 1

    def test_pickle_from_another_hash_seed_is_a_usable_key(self):
        env = dict(os.environ, PYTHONHASHSEED="12345")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        blob = subprocess.run(
            [sys.executable, "-c", _PICKLE_IN_CHILD],
            env=env, capture_output=True, check=True,
        ).stdout
        mapping, rel = pickle.loads(blob)
        fresh = RelationshipTypeId("Actor", "FILM ACTOR", "FILM")
        assert hash(rel) == hash(fresh)
        assert mapping[fresh] == "value"
        assert {fresh: 1}[rel] == 1

    def test_id_stays_frozen(self):
        with pytest.raises(AttributeError):
            ACTOR.name = "Director"
