"""Correctness oracle: every served payload against a serial engine.

Run untimed, after the load.  The oracle holds a private copy of the
served dataset and a serial in-process ``PreviewEngine`` over it.  It
replays the run's mutations in acknowledged-generation order and
evaluates each read at the generation its response reports, then
compares digests of the canonical JSON.  An error response counts as
correct only when the oracle raises the matching error for the same
request.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from client import Sample


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Oracle:
    """Serial reference over a private copy of one dataset.

    ``graph`` is the served dataset as an ``EntityGraph``; the oracle
    wraps it in an ``IncrementalEntityGraph`` so mutations flow through
    the same public mutation API a library user calls.
    """

    def __init__(self, graph) -> None:
        from repro.ext.incremental import IncrementalEntityGraph

        self.graph = IncrementalEntityGraph(base=graph)
        self.engine = self.graph.engine()
        self._memo: Dict[Tuple, Tuple[str, object]] = {}

    @property
    def generation(self) -> int:
        return self.graph.generation

    def _query(self, params: Dict):
        from repro.engine import PreviewQuery

        return PreviewQuery(
            k=params["k"], n=params["n"], d=params.get("d"),
            mode=params.get("mode", "tight"), algorithm=params.get("algorithm", "auto"),
        )

    def expected(self, op: str, params: Dict) -> Tuple[str, object]:
        """``("ok", digest)`` or ``("error", wire code)`` at this generation."""
        from repro.core.serialize import result_to_dict
        from repro.exceptions import InfeasiblePreviewError, ReproError

        key = (self.generation, op, json.dumps(params, sort_keys=True))
        known = self._memo.get(key)
        if known is not None:
            return known
        try:
            if op == "preview":
                answer = ("ok", digest(result_to_dict(self.engine.run(self._query(params)))))
            else:
                ns = params["ns"]
                shared = {name: value for name, value in params.items() if name != "ns"}
                results = self.engine.sweep(
                    [self._query(dict(shared, n=n)) for n in ns], skip_infeasible=True
                )
                answer = ("ok", digest([None if r is None else result_to_dict(r) for r in results]))
        except InfeasiblePreviewError:
            answer = ("error", "infeasible")
        except ReproError:
            answer = ("error", "invalid-query")
        self._memo[key] = answer
        return answer

    def apply(self, params: Dict) -> str:
        """Apply one mutation; returns ``"ok"`` or the wire error code."""
        from repro.exceptions import ReproError
        from repro.model.ids import RelationshipTypeId

        try:
            if params["kind"] == "entity":
                self.graph.add_entity(params["entity"], params["types"])
            else:
                self.graph.add_relationship(
                    params["source"], params["target"],
                    RelationshipTypeId(name=params["name"], source_type=params["source_type"],
                                       target_type=params["target_type"]),
                )
        except ReproError:
            return "invalid-query"
        return "ok"


def served(sample: Sample) -> Tuple[str, object]:
    """The served answer of a read in the oracle's ``expected`` shape."""
    response = sample.response
    if not response.get("ok"):
        return ("error", response.get("error", {}).get("code"))
    result = response["result"]
    if sample.op.op == "preview":
        return ("ok", digest(result["result"]))
    return ("ok", digest(result["results"]))


def check(oracle: Oracle, samples: List[Sample]) -> List[str]:
    """Every mismatch between ``samples`` and the oracle, as messages.

    Mutations are applied in acknowledged-generation order; each read is
    evaluated once the oracle has reached the generation it reports.
    """
    problems: List[str] = []
    events = []
    for sample in samples:
        kind = sample.op.op
        response = sample.response or {}
        if kind == "stats":
            if not response.get("ok"):
                problems.append(f"request {sample.id}: stats failed: {response.get('error')}")
            continue
        if not response.get("ok"):
            if kind == "mutate":
                problems.append(f"request {sample.id}: mutation refused: {response.get('error')}")
                continue
            events.append((None, 1, sample))
            continue
        generation = response["result"]["generation"]
        events.append((generation, 0 if kind == "mutate" else 1, sample))
    # Error responses carry no generation: evaluate them at the
    # generation of the latest event the same connection saw before.
    resolved, last = [], {}
    base = oracle.generation
    for generation, order, sample in sorted(events, key=lambda e: e[2].t_start):
        if generation is None:
            generation = last.get(sample.op.conn, base)
        last[sample.op.conn] = generation
        resolved.append((generation, order, sample))
    for generation, order, sample in sorted(resolved, key=lambda e: (e[0], e[1], e[2].t_start)):
        if sample.op.op == "mutate":
            outcome = oracle.apply(sample.op.params)
            if outcome != "ok" or oracle.generation != generation:
                problems.append(
                    f"request {sample.id}: mutation acked at generation {generation}, "
                    f"oracle {outcome} at {oracle.generation}"
                )
            continue
        if generation != oracle.generation:
            problems.append(
                f"request {sample.id}: read at generation {generation}, "
                f"oracle cannot reach it (at {oracle.generation})"
            )
            continue
        want = oracle.expected(sample.op.op, sample.op.params)
        got = served(sample)
        if got != want:
            problems.append(
                f"request {sample.id} {sample.op.op} {json.dumps(sample.op.params)} "
                f"at generation {generation}: served {got}, oracle {want}"
            )
    return problems
