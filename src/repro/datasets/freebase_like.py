"""Freebase-like domain dataset builders.

Generates, per domain, an entity graph whose *schema graph size matches
the paper's Table 2 exactly* (K entity types, N relationship types) and
whose entity/edge counts are Table 2 scaled down by ``scale``.

Generation recipe (all steps seeded and deterministic):

1. **Types** — the profile's named types (gold-standard first) followed by
   filler types up to K.  Populations are Zipfian in importance rank with
   ±20% multiplicative noise, so gold types are *usually but not always*
   the most populous — which is exactly the regime where the paper's
   accuracy numbers (P@10 ≈ 0.6, MRR mostly > 0.5) are meaningful rather
   than trivial.
2. **Relationship types** — named relationships first, then fillers.  The
   first fillers attach every not-yet-connected type to an already
   connected one (schema graphs are near-connected in Freebase; the
   random-walk smoothing handles any remaining islands), the rest connect
   random type pairs.  Edge counts are Zipfian in rank with ±40% noise.
3. **Relationships** — for each relationship type, edges drawn with a
   uniform source entity and a popularity-skewed target entity, making
   value distributions non-degenerate for entropy scoring.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, List

from ..exceptions import DatasetError
from ..model.entity_graph import EntityGraph
from ..model.ids import RelationshipTypeId
from ..model.schema_graph import SchemaGraph
from .profiles import DEFAULT_SCALE, FREEBASE_PROFILES, DomainProfile
from .synthetic import allocate_counts, skewed_index, zipf_weights

#: Domains in the paper's Table 2 order.
DOMAINS = ("books", "film", "music", "tv", "people", "basketball", "architecture")

#: Domains with a Freebase gold standard (Sec. 6.1.2).
GOLD_DOMAINS = ("books", "film", "music", "tv", "people")


def _domain_seed(name: str, seed: int) -> int:
    """Stable per-domain seed (independent of hash randomization)."""
    digest = 0
    for ch in name:
        digest = (digest * 131 + ord(ch)) % (2**31)
    return digest ^ seed


def build_type_list(profile: DomainProfile) -> List[str]:
    """Named types followed by deterministic fillers, exactly K entries."""
    filler_count = profile.filler_type_count()
    if filler_count < 0:
        raise DatasetError(
            f"profile {profile.name!r} declares more named types than K"
        )
    prefix = profile.name.upper()
    fillers = [f"{prefix} TYPE {i:02d}" for i in range(filler_count)]
    return list(profile.named_types) + fillers


def build_relationship_list(
    profile: DomainProfile, types: List[str], rng: random.Random
) -> List[RelationshipTypeId]:
    """Named relationships followed by fillers, exactly N entries.

    Fillers first connect isolated types (so the schema graph is close to
    connected, as in Freebase), then add random links.
    """
    rels: List[RelationshipTypeId] = [
        RelationshipTypeId(named.name, named.source, named.target)
        for named in profile.named_relationships
    ]
    filler_budget = profile.filler_relationship_count()
    if filler_budget < 0:
        raise DatasetError(
            f"profile {profile.name!r} declares more named relationships than N"
        )
    touched = {t for rel in rels for t in (rel.source_type, rel.target_type)}
    connected = [t for t in types if t in touched] or [types[0]]
    counter = 0
    for type_name in types:
        if filler_budget == 0:
            break
        if type_name in touched:
            continue
        anchor = connected[rng.randrange(len(connected))]
        rels.append(
            RelationshipTypeId(f"Related To {counter:03d}", type_name, anchor)
        )
        counter += 1
        filler_budget -= 1
        touched.add(type_name)
        connected.append(type_name)
    while filler_budget > 0:
        source = types[rng.randrange(len(types))]
        target = types[rng.randrange(len(types))]
        rels.append(RelationshipTypeId(f"Link {counter:03d}", source, target))
        counter += 1
        filler_budget -= 1
    return rels


def generate_domain(
    name: str, scale: int = DEFAULT_SCALE, seed: int = 0
) -> EntityGraph:
    """Generate the Freebase-like entity graph for ``name``.

    ``scale`` divides Table 2's entity/edge counts (default 1000).  The
    same ``(name, scale, seed)`` always produces an identical graph.
    """
    try:
        profile = FREEBASE_PROFILES[name]
    except KeyError:
        raise DatasetError(
            f"unknown domain {name!r}; available: {', '.join(DOMAINS)}"
        ) from None
    rng = random.Random(_domain_seed(name, seed))
    types = build_type_list(profile)
    rels = build_relationship_list(profile, types, rng)

    populations = allocate_counts(
        profile.scaled_entities(scale),
        zipf_weights(len(types), exponent=1.05),
        minimum=3,
        rng=rng,
        noise=0.2,
    )
    edge_counts = allocate_counts(
        profile.scaled_relationships(scale),
        zipf_weights(len(rels), exponent=1.05),
        minimum=1,
        rng=rng,
        noise=0.4,
    )

    graph = EntityGraph(name=name)
    members: Dict[str, List[str]] = {}
    with graph.bulk_load():
        for type_name, population in zip(types, populations):
            entity_names = [f"{type_name} #{i}" for i in range(population)]
            members[type_name] = entity_names
            for entity in entity_names:
                graph.add_entity(entity, [type_name])

        for rel, count in zip(rels, edge_counts):
            sources = members[rel.source_type]
            targets = members[rel.target_type]
            for _ in range(count):
                source = sources[rng.randrange(len(sources))]
                target = targets[skewed_index(len(targets), rng)]
                graph.add_relationship(source, target, rel)
    return graph


@lru_cache(maxsize=32)
def load_domain(
    name: str, scale: int = DEFAULT_SCALE, seed: int = 0
) -> EntityGraph:
    """Cached :func:`generate_domain` (domains are reused across benches).

    The returned graph is shared — callers must treat it as read-only.
    """
    return generate_domain(name, scale=scale, seed=seed)


@lru_cache(maxsize=32)
def load_schema(name: str, scale: int = DEFAULT_SCALE, seed: int = 0) -> SchemaGraph:
    """Cached schema graph of a cached domain."""
    return SchemaGraph.from_entity_graph(load_domain(name, scale=scale, seed=seed))


def table2_row(name: str, scale: int = DEFAULT_SCALE, seed: int = 0) -> Dict[str, int]:
    """One row of the reproduced Table 2 for ``name``."""
    graph = load_domain(name, scale=scale, seed=seed)
    stats = graph.stats()
    profile = FREEBASE_PROFILES[name]
    return {
        "domain": name,
        "entities": stats["entities"],
        "relationships": stats["relationships"],
        "entity_types": stats["entity_types"],
        "relationship_types": stats["relationship_types"],
        "paper_entity_types": profile.entity_type_count,
        "paper_relationship_types": profile.relationship_type_count,
    }
