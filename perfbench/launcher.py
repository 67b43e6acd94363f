"""Traced launcher: ``repro-preview serve`` with a span around each layer.

Run as ``python3 perfbench/launcher.py --trace-out FILE serve ARGS...``
(with the repository's ``src`` on ``PYTHONPATH``).  It wraps the public
functions of each layer *at the name its caller looks up* — a function
imported by name into another module is patched there, since patching
only the defining module would record nothing — then runs the very same
``repro.cli.serve_main``.  When the server stops (SIGINT) it writes the
recorded spans to ``FILE`` as JSON.

Spans stay in memory while the server runs.  For each span name the
recorder keeps a call count, the total time and the self time (total
minus the time of spans nested in it on the same thread).  The serve
layer's per-request boundary is recorded per request, keyed by the
request ``id``, so the client can match it against its own timestamps;
every clock read is ``time.perf_counter``, which is system-wide
monotonic on Linux and so shared with the client process.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter

#: (module, attribute path, span name, kind).  ``kind`` is ``sync``,
#: ``async`` (a coroutine function), ``classmethod``, ``count`` (count
#: calls without timing: hot in bulk loads) or ``cliques`` / ``kernel``
#: (timed, and counting the subsets they handle).
WRAPS: List[Tuple[str, str, str, str]] = [
    ("repro.serve.host", "EngineHost.preview", "serve.host.preview", "async"),
    ("repro.serve.host", "EngineHost.sweep", "serve.host.sweep", "async"),
    ("repro.serve.host", "EngineHost.mutate", "serve.host.mutate", "async"),
    ("repro.serve.host", "EngineHost.stats", "serve.host.stats", "async"),
    ("repro.serve.host", "EngineHost.encoded_response", "serve.host.fast", "sync"),
    ("repro.serve.host", "result_to_dict", "core.serialize", "sync"),
    ("repro.engine.engine", "PreviewEngine.run", "engine", "sync"),
    ("repro.engine.engine", "PreviewEngine.sweep", "engine", "sync"),
    ("repro.engine.engine", "PreviewEngine.cache_info", "engine", "sync"),
    ("repro.engine.engine", "k_cliques", "graph.cliques", "cliques"),
    ("repro.model.schema_graph", "SchemaGraph.distance_oracle", "graph.distance_oracle", "sync"),
    ("repro.kernel", "best_allocation", "kernel", "kernel"),
    ("repro.engine.engine", "build_allocation_profile", "core.profile", "sync"),
    ("repro.core.dynamic_prog", "dynamic_programming_discover", "core.dp", "sync"),
    ("repro.scoring.preview_score", "ScoringContext.__init__", "scoring.context", "sync"),
    ("repro.scoring.candidate_pool", "CandidatePool.build", "scoring.pool_build", "classmethod"),
    ("repro.scoring.candidate_pool", "CandidatePool.patched", "scoring.pool_patch", "sync"),
    ("repro.ext.incremental", "IncrementalEntityGraph.add_entity", "ext.mutate", "sync"),
    ("repro.ext.incremental", "IncrementalEntityGraph.add_relationship", "ext.mutate", "sync"),
    ("repro.ext.incremental", "IncrementalEntityGraph.context", "ext.refresh", "sync"),
    ("repro.model.mutation_log", "MutationLog.record", "model.log_records", "count"),
    ("repro.store", "open_store", "store.open", "sync"),
    ("repro.store.disk", "DiskGraphStore.entity_graph", "store.materialize", "sync"),
    ("repro.cli", "generate_domain", "datasets.generate", "sync"),
    ("repro.parallel.executor", "ShardedExecutor.best_allocation", "parallel", "sync"),
    ("repro.parallel.executor", "ShardedExecutor.build_profiles", "parallel", "sync"),
]

#: Wrapped on the active kernel backend's class at install time.
LOWER_SPAN = "kernel.lower"


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}  # name -> [count, total, self]
        self.counters: Dict[str, int] = {}
        self.hits: Dict[str, int] = {}  # "module:attr" -> calls recorded
        self.requests: List[dict] = []
        #: Time in spans entered with an empty stack on a host worker
        #: thread: the engine-side work every slow request waits for.
        self.worker_root_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self.current = contextvars.ContextVar("perfbench_request", default=None)
        self.pending = contextvars.ContextVar("perfbench_pending", default=None)

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, total: float, self_time: float) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += total
            entry[2] += self_time

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def hit(self, where: str) -> None:
        with self._lock:
            self.hits[where] = self.hits.get(where, 0) + 1

    def timed(self, name: str, where: str, fn: Callable, counter=None) -> Callable:
        """A synchronous span around ``fn``; ``counter(result, args)``
        may return an amount to add to ``name + '.subsets'``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            root = not stack
            stack.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    result, amount = counter(result, args)
                    recorder.count(name + ".subsets", amount)
                return result
            finally:
                elapsed = _clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                elif root and threading.current_thread().name.startswith("repro-serve"):
                    with recorder._lock:
                        recorder.worker_root_s += elapsed
                recorder.add(name, elapsed, elapsed - children)
                recorder.hit(where)
                request = recorder.current.get()
                if request is not None and name.startswith("serve.host"):
                    request["host"] += elapsed

        return wrapper

    def timed_async(self, name: str, where: str, fn: Callable) -> Callable:
        """A span around a coroutine function (no nesting bookkeeping:
        coroutines interleave on the event loop thread)."""
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                recorder.add(name, elapsed, elapsed)
                recorder.hit(where)
                request = recorder.current.get()
                if request is not None:
                    request["host"] += elapsed

        return wrapper

    def counted(self, name: str, where: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.count(name)
            recorder.hit(where)
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self.spans.items()},
                "counters": dict(self.counters),
                "hits": dict(self.hits),
                "requests": list(self.requests),
                "worker_root_s": self.worker_root_s,
            }


def _cliques_counter(result, args):
    subsets = list(result)
    return subsets, len(subsets)


def _kernel_counter(result, args):
    return result, len(args[1])


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _install_serve_boundary(recorder: Recorder) -> None:
    """Per-request spans at the service's line boundary, keyed by id.

    ``t_in`` is taken when the service starts on a line (at the fast
    path's entry when the fast path declines it), ``t_out`` when the
    response object is ready, before it is encoded and written.
    """
    from repro.serve import service

    line_service, preview_service = service.LineService, service.PreviewService
    respond = line_service._respond_to_line
    fast = preview_service._fast_response

    async def respond_wrapper(self, line):
        t_in = recorder.pending.get() or _clock()
        recorder.pending.set(None)
        record = {"id": None, "t_in": t_in, "t_out": None, "host": 0.0}
        token = recorder.current.set(record)
        try:
            response = await respond(self, line)
        finally:
            recorder.current.reset(token)
        record["t_out"] = _clock()
        record["id"] = response.get("id")
        with recorder._lock:
            recorder.requests.append(record)
        recorder.hit("repro.serve.service:LineService._respond_to_line")
        return response

    def fast_wrapper(self, line):
        t_in = _clock()
        record = {"id": None, "t_in": t_in, "t_out": None, "host": 0.0}
        token = recorder.current.set(record)
        try:
            encoded = fast(self, line)
        finally:
            recorder.current.reset(token)
        recorder.hit("repro.serve.service:PreviewService._fast_response")
        if encoded is None:
            recorder.pending.set(t_in)
            return None
        # The spliced frame starts b'{"id": <id>, "ok": true, ...'.
        record["id"] = json.loads(encoded[7:encoded.index(b', "ok"')])
        record["t_out"] = _clock()
        with recorder._lock:
            recorder.requests.append(record)
        recorder.count("serve.fast_hits")
        return encoded

    line_service._respond_to_line = respond_wrapper
    preview_service._fast_response = fast_wrapper


#: The serve-boundary names, checked like the WRAPS entries.
BOUNDARY = [
    "repro.serve.service:LineService._respond_to_line",
    "repro.serve.service:PreviewService._fast_response",
]


def install(recorder: Recorder) -> None:
    """Install every wrapper, for the rest of the process."""
    for module_name, path, span, kind in WRAPS:
        owner, attr = _resolve(module_name, path)
        where = f"{module_name}:{path}"
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "async":
            wrapped = recorder.timed_async(span, where, original)
        elif kind == "classmethod":
            wrapped = classmethod(recorder.timed(span, where, original.__func__))
        elif kind == "count":
            wrapped = recorder.counted(span, where, original)
        elif kind == "cliques":
            wrapped = recorder.timed(span, where, original, _cliques_counter)
        elif kind == "kernel":
            wrapped = recorder.timed(span, where, original, _kernel_counter)
        else:
            wrapped = recorder.timed(span, where, original)
        setattr(owner, attr, wrapped)
    from repro import kernel

    backend = type(kernel.active_backend())
    backend.lower = recorder.timed(
        LOWER_SPAN, f"{backend.__module__}:{backend.__name__}.lower", backend.lower)
    _install_serve_boundary(recorder)


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "serve":
        print("usage: launcher.py --trace-out FILE serve ARGS...", file=sys.stderr)
        return 2
    out = argv[1]
    recorder = Recorder()
    install(recorder)
    from repro.cli import serve_main

    try:
        return serve_main(argv[3:])
    finally:
        tmp = out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(recorder.dump(), handle)
        os.replace(tmp, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
