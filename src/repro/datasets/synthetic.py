"""Generic seeded random entity-graph generation.

Lower-level than the Freebase-like domain builders: produces arbitrary
random typed graphs for tests (including property-based tests) and for
users who want quick synthetic workloads with controlled shape.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..exceptions import DatasetError
from ..model.entity_graph import EntityGraph
from ..model.ids import RelationshipTypeId
from ..model.schema_graph import SchemaGraph


def zipf_weights(count: int, exponent: float = 1.05) -> List[float]:
    """Normalized Zipfian weights ``w_i ∝ 1 / (i + 1)^exponent``."""
    if count <= 0:
        return []
    raw = [1.0 / (i + 1) ** exponent for i in range(count)]
    total = sum(raw)
    return [value / total for value in raw]


def allocate_counts(
    total: int,
    weights: Sequence[float],
    minimum: int = 1,
    rng: Optional[random.Random] = None,
    noise: float = 0.0,
) -> List[int]:
    """Split ``total`` into integer counts proportional to ``weights``.

    Each share is floored at ``minimum``; optional multiplicative noise
    (``uniform(1-noise, 1+noise)``) perturbs shares before rounding.  The
    result sums to at least ``minimum * len(weights)`` and approximately
    to ``total``.
    """
    if total < 0:
        raise DatasetError(f"total must be non-negative, got {total}")
    counts = []
    for weight in weights:
        share = total * weight
        if rng is not None and noise > 0:
            share *= rng.uniform(1.0 - noise, 1.0 + noise)
        counts.append(max(minimum, round(share)))
    return counts


def skewed_index(size: int, rng: random.Random, skew: float = 2.5) -> int:
    """A random index in ``[0, size)`` biased toward small indices.

    ``skew > 1`` concentrates mass near 0 (popular entities attract more
    relationships, which is what makes entropy scoring informative).
    """
    if size <= 0:
        raise DatasetError("size must be positive")
    return min(size - 1, int(size * (rng.random() ** skew)))


def random_entity_graph(
    num_types: int,
    num_rel_types: int,
    num_entities: int,
    num_edges: int,
    seed: int = 0,
    name: str = "random",
    connect: bool = True,
) -> EntityGraph:
    """A random typed entity graph with the requested shape.

    * Types are named ``T00 .. T{num_types-1}`` with Zipfian populations.
    * Relationship types connect random ordered type pairs; with
      ``connect=True`` the first ``num_types - 1`` relationship types form
      a spanning chain so the schema graph is connected.
    * Edge counts per relationship type are Zipfian; endpoints are drawn
      uniformly (source) and skewed (target).
    """
    if num_types < 1:
        raise DatasetError("need at least one entity type")
    if num_rel_types < (num_types - 1 if connect else 0):
        raise DatasetError(
            f"{num_rel_types} relationship types cannot connect {num_types} "
            f"types (need at least {num_types - 1})"
        )
    if num_entities < num_types:
        raise DatasetError("need at least one entity per type")
    rng = random.Random(seed)
    types = [f"T{i:02d}" for i in range(num_types)]
    populations = allocate_counts(
        num_entities, zipf_weights(num_types), minimum=1, rng=rng, noise=0.2
    )

    graph = EntityGraph(name=name)
    entities: dict = {}
    for type_name, population in zip(types, populations):
        entities[type_name] = [f"{type_name}#{i}" for i in range(population)]

    rel_types: List[RelationshipTypeId] = []
    used: set = set()
    if connect:
        order = list(range(num_types))
        rng.shuffle(order)
        for i in range(1, num_types):
            source = types[order[i]]
            target = types[order[rng.randrange(i)]]
            rel = RelationshipTypeId(f"link-{len(rel_types)}", source, target)
            rel_types.append(rel)
            used.add((source, target, rel.name))
    while len(rel_types) < num_rel_types:
        source = types[rng.randrange(num_types)]
        target = types[rng.randrange(num_types)]
        rel = RelationshipTypeId(f"link-{len(rel_types)}", source, target)
        rel_types.append(rel)

    edge_counts = allocate_counts(
        num_edges, zipf_weights(len(rel_types)), minimum=1, rng=rng, noise=0.3
    )
    with graph.bulk_load():
        for type_name, members in entities.items():
            for member in members:
                graph.add_entity(member, [type_name])
        for rel, count in zip(rel_types, edge_counts):
            sources = entities[rel.source_type]
            targets = entities[rel.target_type]
            for _ in range(count):
                s = sources[rng.randrange(len(sources))]
                t = targets[skewed_index(len(targets), rng)]
                graph.add_relationship(s, t, rel)
    return graph


def random_schema_graph(
    num_types: int,
    num_rel_types: int,
    seed: int = 0,
    max_entity_count: int = 1000,
    max_edge_count: int = 10_000,
) -> SchemaGraph:
    """A random schema graph with synthetic aggregate counts.

    Useful when only schema-level behaviour matters (algorithm efficiency
    sweeps, constraint feasibility tests) and building a full entity graph
    would waste time.
    """
    if num_types < 1:
        raise DatasetError("need at least one entity type")
    rng = random.Random(seed)
    schema = SchemaGraph(name=f"random-schema-{seed}")
    types = [f"T{i:02d}" for i in range(num_types)]
    for type_name in types:
        schema.add_entity_type(type_name, entity_count=rng.randint(1, max_entity_count))
    for j in range(num_rel_types):
        if j < num_types - 1:
            source = types[j + 1]
            target = types[rng.randrange(j + 1)]
        else:
            source = types[rng.randrange(num_types)]
            target = types[rng.randrange(num_types)]
        schema.add_relationship_type(
            RelationshipTypeId(f"link-{j}", source, target),
            edge_count=rng.randint(1, max_edge_count),
        )
    return schema
