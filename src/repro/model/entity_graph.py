"""The entity graph ``Gd(Vd, Ed)`` — the paper's input data model (Sec. 2).

An entity graph is a directed multigraph whose vertices are *entities*
(each belonging to one or more *entity types*) and whose edges are
*relationships* (each belonging to exactly one *relationship type*).  The
type of a relationship determines the types of both endpoints, so every
edge is labelled with a full :class:`~repro.model.ids.RelationshipTypeId`.

The class maintains the aggregate statistics the scoring measures consume:

* per-type entity counts  — coverage key scoring ``Scov(τ)``;
* per-relationship-type edge counts — coverage non-key scoring;
* per-type-pair edge totals — random-walk edge weights ``w_ij``;
* per-entity typed adjacency — entropy scoring and tuple materialization.

Each relationship is held in one insertion-ordered edge list and in the
typed ``_out``/``_in`` adjacency, nowhere else.  Relationships come out
of :meth:`EntityGraph.relationships` in insertion order, so the codecs
that replay them (the ``.rgs`` store, replica snapshots and the triple
stream of :mod:`repro.model.triples`) rebuild the exact same graph.

Whole-graph builders (dataset generators, store materialization, snapshot
restore) run inside :meth:`EntityGraph.bulk_load`, which keeps every
validating insert but skips the per-mutation changelog and pauses the
cyclic garbage collector for the build.  This module is the one place
that toggles the collector (a lint rule enforces it).
"""

from __future__ import annotations

import gc
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import (
    ModelError,
    SchemaViolationError,
    UnknownEntityError,
    UnknownRelationshipTypeError,
    UnknownTypeError,
)
from .attributes import Direction, NonKeyAttribute
from .ids import EntityId, RelationshipTypeId, TypeId
from .mutation_log import MutationLog

# The collector is process-wide, so overlapping bulk loads (nested, or on
# different threads) share one pause: the first in disables it, the last
# out restores the state the first one found.
_pause_lock = threading.Lock()
_pause_depth = 0
_collector_was_enabled = False


def _pause_collector() -> None:
    global _pause_depth, _collector_was_enabled
    with _pause_lock:
        if _pause_depth == 0:
            _collector_was_enabled = gc.isenabled()
            gc.disable()
        _pause_depth += 1


def _resume_collector() -> None:
    global _pause_depth
    with _pause_lock:
        _pause_depth -= 1
        if _pause_depth == 0 and _collector_was_enabled:
            gc.enable()


class EntityGraph:
    """A typed directed multigraph of entities and relationships.

    Instances are usually constructed through
    :class:`~repro.model.builder.EntityGraphBuilder` or loaded from a
    :class:`~repro.store.triple_store.TripleStore`, but the mutation API
    here is public and validating.

    Every successful mutation is recorded in :attr:`mutation_log` — the
    per-generation changelog of dirty key types and relationship types
    that the incremental scoring pipeline (contexts, candidate pools,
    engine memos) consumes to patch itself in O(delta); see
    :mod:`repro.model.mutation_log`.  A :meth:`bulk_load` build counts
    its mutations instead and starts the log at an empty window.
    """

    def __init__(self, name: str = "entity-graph") -> None:
        self.name = name
        # Every relationship as (source, target, rel_type), insertion order.
        self._edges: List[Tuple[EntityId, EntityId, RelationshipTypeId]] = []
        self._types_of: Dict[EntityId, Set[TypeId]] = {}
        self._entities_by_type: Dict[TypeId, Set[EntityId]] = {}
        self._edge_counts: Counter = Counter()  # RelationshipTypeId -> count
        # (entity, rel_type) -> multiset of neighbor entities, per direction.
        self._out: Dict[Tuple[EntityId, RelationshipTypeId], List[EntityId]] = {}
        self._in: Dict[Tuple[EntityId, RelationshipTypeId], List[EntityId]] = {}
        #: Per-generation changelog of what each mutation dirtied.
        self.mutation_log = MutationLog()
        # Mutations applied inside a live bulk_load(), else None.
        self._bulk_mutations: Optional[int] = None

    @property
    def generation(self) -> int:
        """Total successful mutations — the cache-invalidation epoch."""
        return self.mutation_log.generation

    @contextmanager
    def bulk_load(self) -> Iterator["EntityGraph"]:
        """Build a pristine graph in bulk: ``with graph.bulk_load(): ...``.

        Inside the block :meth:`add_entity` and :meth:`add_relationship`
        validate exactly as always (same checks, same typed errors), but
        each mutation is only *counted*: no changelog entry is written.
        On exit the mutation log is fast-forwarded once to the
        count, so the graph ends at the same :attr:`generation` a
        per-mutation build reaches, with an empty delta window
        (``mutation_log.horizon == generation``; every earlier baseline
        answers :data:`~repro.model.mutation_log.FULL_DELTA`).  The cyclic
        garbage collector is paused for the build and ends in the state
        the build found it in, also when the build raises.

        Raises
        ------
        ModelError
            When the graph has already been mutated (generation > 0) or
            a bulk load is already open on it.
        """
        if self._bulk_mutations is not None:
            raise ModelError(f"a bulk load is already open on {self.name!r}")
        if self.generation != 0:
            raise ModelError(
                f"bulk_load needs a pristine graph; {self.name!r} is at "
                f"generation {self.generation}"
            )
        self._bulk_mutations = 0
        _pause_collector()
        try:
            yield self
        finally:
            mutations, self._bulk_mutations = self._bulk_mutations, None
            self.mutation_log.fast_forward(mutations)
            _resume_collector()

    # ------------------------------------------------------------------
    # Entities and types
    # ------------------------------------------------------------------
    def add_entity(self, entity: EntityId, types: Iterable[TypeId]) -> None:
        """Add an entity with one or more types (idempotent, types union)."""
        type_list = list(dict.fromkeys(types))
        if not type_list:
            raise SchemaViolationError(
                f"entity {entity!r} must belong to at least one type"
            )
        existing = self._types_of.setdefault(entity, set())
        # First-seen order is the caller's list order (deterministic
        # across processes, unlike set iteration) — the schema graph,
        # candidate pool and verification rescans all rely on it.
        new_types = [t for t in type_list if t not in existing]
        structural = False
        for type_name in new_types:
            existing.add(type_name)
            members = self._entities_by_type.get(type_name)
            if members is None:
                # A type first seen here adds a schema-graph vertex.
                members = self._entities_by_type[type_name] = set()
                structural = True
            members.add(entity)
        if self._bulk_mutations is None:
            self.mutation_log.record(key_types=new_types, structural=structural)
        else:
            self._bulk_mutations += 1

    def has_entity(self, entity: EntityId) -> bool:
        """Whether ``entity`` exists in the graph."""
        return entity in self._types_of

    def types_of(self, entity: EntityId) -> FrozenSet[TypeId]:
        """The set of types ``entity`` belongs to."""
        try:
            return frozenset(self._types_of[entity])
        except KeyError:
            raise UnknownEntityError(entity) from None

    def entities(self) -> Iterator[EntityId]:
        """Iterator over entity ids in insertion order."""
        return iter(self._types_of)

    def entity_types(self) -> List[TypeId]:
        """All entity types, in first-seen order."""
        return list(self._entities_by_type)

    def entities_of_type(self, type_name: TypeId) -> FrozenSet[EntityId]:
        """``T.τ`` — the set of entities bearing ``type_name``."""
        try:
            return frozenset(self._entities_by_type[type_name])
        except KeyError:
            raise UnknownTypeError(type_name) from None

    def type_count(self, type_name: TypeId) -> int:
        """``|{v : v has type τ}|`` — the coverage score numerator."""
        try:
            return len(self._entities_by_type[type_name])
        except KeyError:
            raise UnknownTypeError(type_name) from None

    @property
    def entity_count(self) -> int:
        """Number of entities."""
        return len(self._types_of)

    # ------------------------------------------------------------------
    # Relationships
    # ------------------------------------------------------------------
    def add_relationship(
        self,
        source: EntityId,
        target: EntityId,
        rel_type: RelationshipTypeId,
    ) -> None:
        """Add a directed relationship of type ``rel_type``.

        Validates the paper's schema invariant: the source entity must bear
        ``rel_type.source_type`` and the target entity must bear
        ``rel_type.target_type``.
        """
        if source not in self._types_of:
            raise UnknownEntityError(source)
        if target not in self._types_of:
            raise UnknownEntityError(target)
        if rel_type.source_type not in self._types_of[source]:
            raise SchemaViolationError(
                f"source {source!r} lacks type {rel_type.source_type!r} "
                f"required by relationship type {rel_type}"
            )
        if rel_type.target_type not in self._types_of[target]:
            raise SchemaViolationError(
                f"target {target!r} lacks type {rel_type.target_type!r} "
                f"required by relationship type {rel_type}"
            )
        # A relationship type first seen here adds a schema-graph edge
        # (and possibly new candidate attributes): structural.
        structural = rel_type not in self._edge_counts
        self._edges.append((source, target, rel_type))
        self._edge_counts[rel_type] += 1
        self._out.setdefault((source, rel_type), []).append(target)
        self._in.setdefault((target, rel_type), []).append(source)
        if self._bulk_mutations is not None:
            self._bulk_mutations += 1
            return
        # Instance counts feed the non-key scores of both endpoint types
        # (γ appears in Γ_src as OUT and in Γ_tgt as IN): they are the
        # key types this mutation dirties.
        self.mutation_log.record(
            key_types=(rel_type.source_type, rel_type.target_type),
            rel_types=(rel_type,),
            structural=structural,
        )

    def relationship_types(self) -> List[RelationshipTypeId]:
        """All relationship types with at least one edge, first-seen order."""
        return list(self._edge_counts)

    def relationship_count(self, rel_type: RelationshipTypeId) -> int:
        """``|{e : e has type γ}|`` — the non-key coverage score."""
        if rel_type not in self._edge_counts:
            raise UnknownRelationshipTypeError(rel_type)
        return self._edge_counts[rel_type]

    @property
    def edge_count(self) -> int:
        """Number of relationship edges."""
        return len(self._edges)

    def relationships(self) -> Iterator[Tuple[EntityId, EntityId, RelationshipTypeId]]:
        """Yield every relationship as ``(source, target, type)``.

        Relationships come in insertion order, the order the
        :meth:`add_relationship` calls were made in.
        """
        return iter(self._edges)

    # ------------------------------------------------------------------
    # Typed adjacency (materialization + entropy scoring)
    # ------------------------------------------------------------------
    def targets(self, entity: EntityId, rel_type: RelationshipTypeId) -> List[EntityId]:
        """Entities reached from ``entity`` via outgoing ``rel_type`` edges."""
        if entity not in self._types_of:
            raise UnknownEntityError(entity)
        return list(self._out.get((entity, rel_type), ()))

    def sources(self, entity: EntityId, rel_type: RelationshipTypeId) -> List[EntityId]:
        """Entities reaching ``entity`` via incoming ``rel_type`` edges."""
        if entity not in self._types_of:
            raise UnknownEntityError(entity)
        return list(self._in.get((entity, rel_type), ()))

    def attribute_value(
        self, entity: EntityId, attribute: NonKeyAttribute
    ) -> FrozenSet[EntityId]:
        """``t.γ`` — the (set-valued) value of ``entity`` on ``attribute``.

        Definition 1: the set of entities incident from (OUT) or to (IN)
        the tuple's key entity through edges of the attribute's type.
        """
        if attribute.direction is Direction.OUT:
            return frozenset(self.targets(entity, attribute.rel_type))
        return frozenset(self.sources(entity, attribute.rel_type))

    # ------------------------------------------------------------------
    # Aggregates for scoring
    # ------------------------------------------------------------------
    def type_pair_weights(self) -> Dict[Tuple[TypeId, TypeId], int]:
        """``w_ij`` — total relationships between each unordered type pair.

        Keys are unordered pairs normalized with ``sorted``; self-pairs
        (τ, τ) accumulate self-loop relationship types.
        """
        weights: Counter = Counter()
        for rel_type, count in self._edge_counts.items():
            pair = tuple(sorted((rel_type.source_type, rel_type.target_type)))
            weights[pair] += count
        return dict(weights)

    def stats(self) -> Dict[str, int]:
        """Summary statistics in the shape of the paper's Table 2 rows."""
        return {
            "entities": self.entity_count,
            "relationships": self.edge_count,
            "entity_types": len(self._entities_by_type),
            "relationship_types": len(self._edge_counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"EntityGraph(name={self.name!r}, entities={stats['entities']}, "
            f"relationships={stats['relationships']}, "
            f"types={stats['entity_types']}, "
            f"rel_types={stats['relationship_types']})"
        )
