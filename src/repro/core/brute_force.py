"""Brute-force optimal preview discovery (Alg. 1).

Enumerates every k-subset of candidate key attributes; for each subset the
attribute allocation follows Theorem 3 (top-1 per table, then the globally
best remaining candidates via a k-way merge — see
:func:`~repro.core.candidates.best_preview_for_keys`).  The distance-
constrained variant additionally rejects subsets with a violating key
pair, exactly as the paper describes ("performing distance check on every
pair of preview tables in each k-subset").

Complexity: ``O(K N log N + C(K, k) (k + n))`` — exponential in ``k``;
this is the baseline the DP and Apriori algorithms are measured against in
Figs. 8 and 9.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .. import kernel, plan
from ..scoring.preview_score import ScoringContext
from .candidates import (
    best_preview_for_keys,
    eligible_key_types,
    sharded_discover,
)
from .constraints import DistanceConstraint, SizeConstraint, validate_constraints
from .preview import DiscoveryResult
from .registry import register_discovery_algorithm


@register_discovery_algorithm(
    "brute-force",
    shapes=("concise", "tight", "diverse"),
    auto_rank=50,
    notes="exhaustive baseline; supports every constraint shape",
)
def brute_force_discover(
    context: ScoringContext,
    size: SizeConstraint,
    distance: Optional[DistanceConstraint] = None,
    jobs: int = 1,
    executor=None,
) -> Optional[DiscoveryResult]:
    """Find an optimal (concise/tight/diverse) preview by enumeration.

    Returns None when no k-subset is feasible (e.g. a diverse constraint
    nobody satisfies).  Ties in score are broken by enumeration order,
    which is deterministic given the schema construction order — the paper
    likewise returns one optimal preview and notes the extension to all.
    ``jobs`` shards the per-subset allocation across worker processes
    (0 = all CPU cores) with bit-identical results — see
    :mod:`repro.parallel`; the pairwise distance check stays in the
    parent, which holds the distance oracle.  A live
    :class:`~repro.parallel.ShardedExecutor` can be passed as
    ``executor`` to reuse its pool across calls (``jobs`` is then
    ignored; the caller keeps ownership).
    """
    key_pool = eligible_key_types(context)
    validate_constraints(size, distance, key_pool)
    oracle = context.schema.distance_oracle() if distance is not None else None

    qualifying = (
        keys
        for keys in combinations(key_pool, size.k)
        if distance is None or distance.keys_ok(oracle, keys)
    )
    if jobs != 1 or executor is not None:
        # Imported lazily: jobs=1 callers never touch the parallel
        # subsystem.
        from ..parallel import resolve_jobs

        # C(K, k) bounds the qualifying count before anything is
        # materialized: small key pools skip the worker pool outright.
        estimate = plan.estimated_subsets(len(key_pool), size.k)
        effective_jobs = (
            executor.jobs if executor is not None else resolve_jobs(jobs)
        )
        if plan.should_shard(estimate, effective_jobs):
            qualifying = list(qualifying)
            if len(qualifying) > 1:
                return sharded_discover(
                    context,
                    size,
                    qualifying,
                    jobs,
                    "brute-force",
                    executor=executor,
                )
            # 0 or 1 qualifying subsets: fall through to the serial scan
            # over the already-filtered list rather than re-enumerating.

    # Serial path: stream the combination generator through the batched
    # kernel in bounded chunks (the enumeration can be astronomically
    # larger than memory), keeping the first strict maximum across
    # chunks — the same lowest-index tie-break as the old scan.
    pool = context.candidate_pool()
    extra_cap = size.n - size.k
    best_score = float("-inf")
    best_keys = None
    examined = 0
    chunk = []
    append = chunk.append
    for keys in qualifying:
        append(keys)
        if len(chunk) < kernel.BATCH_SIZE:
            continue
        best = kernel.best_allocation(pool, chunk, extra_cap)
        examined += len(chunk)
        if best is not None and best[0] > best_score:
            best_score, best_keys = best[0], chunk[best[1]]
        chunk = []
        append = chunk.append
    if chunk:
        best = kernel.best_allocation(pool, chunk, extra_cap)
        examined += len(chunk)
        if best is not None and best[0] > best_score:
            best_score, best_keys = best[0], chunk[best[1]]
    if best_keys is None:
        return None
    allocation = best_preview_for_keys(context, best_keys, size)
    if allocation is None:  # pragma: no cover - kernel said feasible
        return None
    preview, score = allocation
    return DiscoveryResult(
        preview=preview,
        score=score,
        algorithm="brute-force",
        key_scorer=context.key_scorer_name,
        nonkey_scorer=context.nonkey_scorer_name,
        candidates_examined=examined,
    )
