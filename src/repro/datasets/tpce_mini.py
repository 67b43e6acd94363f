"""A miniature TPC-E-like dataset for validating the YPS09 adaptation.

Yang et al. evaluated their relational summarizer on the TPC-E benchmark
schema, and the preview-tables paper validated its reimplementation the
same way (Sec. 6.1.1).  We cannot ship TPC-E, so this module hand-authors
a miniature entity graph with TPC-E's characteristic shape:

* **fact-like hubs** — TRADE (dominant), HOLDING, DAILY MARKET — huge
  populations, joined to everything;
* **core dimensions** — CUSTOMER, CUSTOMER ACCOUNT, SECURITY, COMPANY,
  BROKER — mid-size, semantically central;
* **lookup tables** — STATUS TYPE, TRADE TYPE, EXCHANGE, ZIP CODE,
  SECTOR, INDUSTRY — tiny, low-entropy.

The validation property (mirroring Yang et al.'s reported summaries): the
YPS09 importance walk must rank the hubs and core dimensions above every
lookup table, and a k-center summary must pick centers spanning the
customer/market/broker regions rather than k lookup tables.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, List, Tuple

from ..model.entity_graph import EntityGraph
from ..model.ids import RelationshipTypeId

#: (type name, population) in TPC-E-like proportions (scaled down).
TPCE_TYPES: Tuple[Tuple[str, int], ...] = (
    ("TRADE", 1200),
    ("HOLDING", 700),
    ("DAILY MARKET", 500),
    ("CUSTOMER ACCOUNT", 250),
    ("CUSTOMER", 200),
    ("SECURITY", 150),
    ("COMPANY", 100),
    ("BROKER", 40),
    ("EXCHANGE", 4),
    ("SECTOR", 12),
    ("INDUSTRY", 30),
    ("STATUS TYPE", 5),
    ("TRADE TYPE", 5),
    ("ZIP CODE", 60),
)

#: Hubs + core dimensions that must outrank the lookups under YPS09.
TPCE_CORE = (
    "TRADE",
    "HOLDING",
    "DAILY MARKET",
    "CUSTOMER ACCOUNT",
    "CUSTOMER",
    "SECURITY",
    "COMPANY",
)

TPCE_LOOKUPS = ("STATUS TYPE", "TRADE TYPE", "EXCHANGE", "ZIP CODE", "SECTOR")

#: (name, source, target, edge count) — the join topology of TPC-E's core.
TPCE_RELATIONSHIPS: Tuple[Tuple[str, str, str, int], ...] = (
    ("Placed Through", "TRADE", "CUSTOMER ACCOUNT", 1200),
    ("Trades Security", "TRADE", "SECURITY", 1200),
    ("Trade Status", "TRADE", "STATUS TYPE", 1200),
    ("Trade Kind", "TRADE", "TRADE TYPE", 1200),
    ("Executed By", "TRADE", "BROKER", 1100),
    ("Holds", "HOLDING", "CUSTOMER ACCOUNT", 700),
    ("Holding Of", "HOLDING", "SECURITY", 700),
    ("Quoted Security", "DAILY MARKET", "SECURITY", 500),
    ("Owned By", "CUSTOMER ACCOUNT", "CUSTOMER", 250),
    ("Managed By", "CUSTOMER ACCOUNT", "BROKER", 250),
    ("Customer Zip", "CUSTOMER", "ZIP CODE", 200),
    ("Issued By", "SECURITY", "COMPANY", 150),
    ("Listed On", "SECURITY", "EXCHANGE", 150),
    ("In Industry", "COMPANY", "INDUSTRY", 100),
    ("Company Zip", "COMPANY", "ZIP CODE", 100),
    ("Industry Sector", "INDUSTRY", "SECTOR", 30),
)


@lru_cache(maxsize=1)
def build_tpce_mini(seed: int = 0) -> EntityGraph:
    """Build the miniature TPC-E-like entity graph (deterministic)."""
    rng = random.Random(seed)
    graph = EntityGraph(name="tpce-mini")
    members: Dict[str, List[str]] = {}
    with graph.bulk_load():
        for type_name, population in TPCE_TYPES:
            entities = [f"{type_name} #{i}" for i in range(population)]
            members[type_name] = entities
            for entity in entities:
                graph.add_entity(entity, [type_name])
        for name, source_type, target_type, count in TPCE_RELATIONSHIPS:
            rel = RelationshipTypeId(name, source_type, target_type)
            sources = members[source_type]
            targets = members[target_type]
            for i in range(count):
                # Facts reference sources roughly uniformly; targets follow
                # a mild popularity skew (as FK distributions do in practice).
                source = sources[i % len(sources)]
                target = targets[
                    min(len(targets) - 1, int(len(targets) * rng.random() ** 1.5))
                ]
                graph.add_relationship(source, target, rel)
    return graph
