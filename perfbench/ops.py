"""Seeded operation sequences for the serve-path benchmark.

Everything a workload sends is generated here, from the benchmark's own
constants and a ``random.Random(seed)``; nothing is drawn from the
program under test (``repro.workload`` included), so a change to the
program cannot change the workload.  The dataset seed is pinned
separately (:data:`DATASET_SEED`): the op seed only orders and samples
operations.  Relationship mutations connect entities the writer created
itself, so no op depends on the generated dataset's entity names.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Generation seed and downscale factor of every served dataset.
DATASET_SEED = 0
DATASET_SCALE = 1000


@dataclass
class Op:
    """One request of a workload.

    ``tag`` says how the benchmark accounts for it: ``fresh`` is a
    preview/sweep read no cache can answer (a request never sent before
    to this server, or the writer's read-back after its burst), ``read``
    any other read, ``probe`` the first-preview probe, ``write`` a
    mutation and ``stats`` a service stats call.  ``due`` is the send
    time in seconds from the start of an open loop, ``conn`` the
    connection the op goes out on.
    """

    op: str
    params: Dict = field(default_factory=dict)
    tag: str = "read"
    due: float = 0.0
    conn: int = 0


def preview(k: int, n: int, d: Optional[int] = None, mode: str = "tight", tag="read") -> Op:
    params = {"k": k, "n": n}
    if d is not None:
        params.update(d=d, mode=mode)
    return Op("preview", params, tag)


def sweep(k: int, ns, d: Optional[int] = None, mode: str = "tight", tag="read") -> Op:
    params = {"k": k, "ns": list(ns)}
    if d is not None:
        params.update(d=d, mode=mode)
    return Op("sweep", params, tag)


#: The first request after every launch.  It is fixed, not drawn, so
#: ``first_preview_s`` measures the same lazy set-up under every seed;
#: its n = k keeps it out of every workload's query set.
PROBE = preview(2, 2, 2, "tight", tag="probe")


# ----------------------------------------------------------------------
# music-explore: cold exploration of (k, d, mode) groups
# ----------------------------------------------------------------------
#: (k, d, mode) groups; d None is a concise (distance-free) preview.
EXPLORE_GROUPS: List[Tuple[int, Optional[int], str]] = (
    [(k, 2, "tight") for k in range(2, 7)]
    + [(k, 3, "tight") for k in (2, 3, 4)]
    + [(k, 2, "diverse") for k in (2, 3)]
    + [(k, 3, "diverse") for k in (2, 3, 4)]
    + [(k, 4, "diverse") for k in (2, 3, 4, 5)]
    + [(k, None, "tight") for k in range(2, 9)]
)
#: Groups that end with a budget sweep (builds allocation profiles).
EXPLORE_SWEEPS = {(3, 2, "tight"), (3, 3, "tight"), (3, 3, "diverse"), (4, 4, "diverse")}
#: Preview budgets n = k + e, and disjoint sweep budgets, so no sweep
#: point repeats a preview the engine memoized.
EXPLORE_PREVIEW_EXTRA = range(1, 6)
EXPLORE_SWEEP_EXTRA = range(6, 11)


def explore_pass(rng: random.Random) -> List[Op]:
    """One server lifetime of cold exploration, in seeded order.

    Every pass holds the same previews and sweeps; the seed orders the
    groups and the budgets within each group.  No request repeats
    another, and the server is fresh, so every read is tagged
    ``fresh``: no cache can answer it.
    """
    ops: List[Op] = []
    groups = list(EXPLORE_GROUPS)
    rng.shuffle(groups)
    for k, d, mode in groups:
        budgets = [k + extra for extra in EXPLORE_PREVIEW_EXTRA]
        rng.shuffle(budgets)
        ops.extend(preview(k, n, d, mode, tag="fresh") for n in budgets)
        if (k, d, mode) in EXPLORE_SWEEPS:
            ops.append(sweep(k, [k + extra for extra in EXPLORE_SWEEP_EXTRA], d, mode,
                             tag="fresh"))
    return ops


# ----------------------------------------------------------------------
# film-hot-reads: open-loop Zipf reads over a warm hot set
# ----------------------------------------------------------------------
#: Poisson arrival rate, ops/s.  Below the rate where the generator
#: starts to run late on a 2-CPU host.
FILM_RATE = 400.0
#: Op shares: Zipf-hot reads, never-repeated tail reads, stats.
FILM_SHARES = (("hot", 0.91), ("tail", 0.08), ("stats", 0.01))
#: The hot set in Zipf rank order; ranks 5 and 7 are sweeps, about 10%
#: of the Zipf(1) mass over 16 ranks.
FILM_HOT: List[Op] = [
    preview(2, 4, 2, "tight"),
    preview(3, 6),
    preview(2, 5, 3, "diverse"),
    preview(3, 7, 2, "tight"),
    sweep(2, range(3, 9), 2, "tight"),
    preview(4, 8),
    sweep(3, range(4, 10), 4, "diverse"),
    preview(3, 8, 3, "diverse"),
    preview(2, 6, 1, "tight"),
    preview(4, 9, 2, "tight"),
    preview(5, 10),
    preview(3, 5, 3, "tight"),
    preview(2, 7, 4, "diverse"),
    preview(3, 9, 4, "diverse"),
    preview(2, 8),
    preview(4, 7, 2, "tight"),
]
#: The groups the tail draws from, n = k .. k + 80 each (all feasible).
#: Each answers in about a millisecond: with 3-5 ms tails about 20% of
#: hot reads queued behind one, which put the hot p90 on the knee of
#: the latency curve, where it moved by a third between seeds.
FILM_TAIL_GROUPS: List[Tuple[int, Optional[int], str]] = [
    (1, None, "tight"), (2, None, "tight"), (2, 1, "tight"), (2, 2, "tight"),
    (2, 3, "tight"), (2, 2, "diverse"), (2, 3, "diverse"), (2, 4, "diverse"),
]
FILM_TAIL_SPAN = 81


def _key(op: Op) -> Tuple:
    return (op.op, tuple(sorted((k, str(v)) for k, v in op.params.items())))


def film_tail(rng: random.Random) -> List[Op]:
    """Every tail query, none in the hot set, in seeded order.

    The groups take turns, so any prefix draws evenly from every group
    and the seed changes which budgets are asked, not the group mix.
    """
    hot = {_key(op) for op in FILM_HOT}
    columns = []
    for k, d, mode in FILM_TAIL_GROUPS:
        column = [preview(k, n, d, mode, tag="fresh") for n in range(k, k + FILM_TAIL_SPAN)]
        column = [op for op in column if _key(op) not in hot]
        rng.shuffle(column)
        columns.append(column)
    rng.shuffle(columns)
    return [op for row in itertools.zip_longest(*columns) for op in row if op is not None]


def film_schedule(seed: int, seconds: float) -> List[Op]:
    """The open-loop schedule: Poisson arrivals over two connections."""
    rng = random.Random(seed)
    tail = iter(film_tail(rng))
    weights = [1.0 / rank for rank in range(1, len(FILM_HOT) + 1)]
    kinds = [name for name, _ in FILM_SHARES]
    shares = [share for _, share in FILM_SHARES]
    ops: List[Op] = []
    due = 0.0
    while True:
        due += rng.expovariate(FILM_RATE)
        if due >= seconds:
            return ops
        kind = rng.choices(kinds, shares)[0]
        if kind == "hot":
            base = rng.choices(FILM_HOT, weights)[0]
            op = Op(base.op, dict(base.params), "read")
        elif kind == "tail":
            op = next(tail, None)
            if op is None:
                raise ValueError(
                    f"film tail exhausted: {seconds}s at {FILM_RATE} ops/s needs "
                    "more never-repeated queries than FILM_TAIL_GROUPS holds"
                )
        else:
            op = Op("stats", {}, "stats")
        op.due = due
        op.conn = rng.randrange(2)
        ops.append(op)


# ----------------------------------------------------------------------
# music-writes: a bursty writer reading its writes, plus a reader
# ----------------------------------------------------------------------
#: Existing music relationship types (name, source type, target type)
#: between hot key types; the oracle checks that the dataset has them.
HOT_LINKS: List[Tuple[str, str, str]] = [
    ("Tracks Recorded", "MUSICAL ARTIST", "MUSICAL RECORDING"),
    ("Album Releases", "MUSICAL ALBUM", "MUSICAL RELEASE"),
    ("Releases", "MUSICAL RECORDING", "MUSICAL RELEASE"),
    ("Venue", "CONCERT", "VENUE"),
]
BURST = 4
#: One burst in this many adds a brand-new relationship type.
STRUCTURAL_EVERY = 20
WRITE_HOT: List[Op] = [
    preview(2, 5, 2, "tight"),
    preview(3, 6, 2, "tight"),
    preview(3, 8),
    preview(2, 6, 3, "diverse"),
    preview(4, 9),
    sweep(3, range(4, 12), 2, "tight"),
]


def _mutation(params: Dict) -> Op:
    return Op("mutate", params, "write")


def write_burst(index: int, rng: random.Random) -> List[Op]:
    """Burst ``index``: two new entities, a link between them, and a
    third entity -- or, in one burst of :data:`STRUCTURAL_EVERY`, a
    second link on a brand-new relationship type (structural)."""
    name, source_type, target_type = rng.choice(HOT_LINKS)
    source, target = f"perfbench-{index}-s", f"perfbench-{index}-t"
    link = {"kind": "relationship", "source": source, "target": target,
            "source_type": source_type, "target_type": target_type}
    if index % STRUCTURAL_EVERY == STRUCTURAL_EVERY - 1:
        last = _mutation(dict(link, name=f"Perfbench Link {index}"))
    else:
        last = _mutation({"kind": "entity", "entity": f"perfbench-{index}-x",
                          "types": [source_type]})
    return [
        _mutation({"kind": "entity", "entity": source, "types": [source_type]}),
        _mutation({"kind": "entity", "entity": target, "types": [target_type]}),
        _mutation(dict(link, name=name)),
        last,
    ]


def _hot_cycle(rng: random.Random) -> Iterator[Op]:
    """The hot set over and over, each round in a fresh seeded order, so
    every query keeps its share of the reads under every seed."""
    while True:
        round_ = list(WRITE_HOT)
        rng.shuffle(round_)
        yield from round_


def writer_stream(seed: int) -> Iterator[Tuple[List[Op], Op]]:
    """Endless (burst, read-your-write) pairs for the writer connection."""
    rng = random.Random(seed)
    reads = _hot_cycle(random.Random(seed + 1))
    for index in itertools.count():
        base = next(reads)
        yield write_burst(index, rng), Op(base.op, dict(base.params), "fresh")


def reader_stream(seed: int) -> Iterator[Op]:
    """Endless reads over the hot set for the reader connection."""
    for base in _hot_cycle(random.Random(seed + 2)):
        yield Op(base.op, dict(base.params), "read", conn=1)
