"""The program under test as a subprocess, and the client's connections.

:class:`Server` launches ``repro-preview serve`` (``python3 -m repro.cli
serve``, or the traced launcher), times it to its serving line, reads
the peak RSS of its process tree and stops it with SIGINT, waiting
until it has exited.  :class:`Connection` speaks the JSON-line protocol
and timestamps every request with ``time.perf_counter``.
"""

from __future__ import annotations

import collections
import json
import os
import selectors
import signal
import socket
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from ops import Op

_clock = time.perf_counter

#: Seconds a server may take to print its serving line.
START_TIMEOUT = 120.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


def server_env(root: Path) -> Dict[str, str]:
    """The environment every server starts with: no ``REPRO_*`` knob set.

    Knob names come from ``repro.config`` (the program's registry of
    them); any other ``REPRO_``-prefixed name is dropped as well.  The
    hash seed is pinned so set iteration order, and with it the run's
    timing, does not change from launch to launch.
    """
    from repro import config

    declared = {knob["name"] for knob in config.knob_catalog()}
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in declared and not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # Worker-pool snapshots are temp files: keep them in the checkout.
    tmp = root / ".perfbench-work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _descendants(pid: int) -> List[int]:
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    children = [int(text) for text in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``serve`` subprocess, from launch to exit."""

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: Path, log: Path) -> None:
        self.argv, self.env, self.cwd, self.log = argv, env, cwd, log
        self.proc: Optional[subprocess.Popen] = None
        self.launched = 0.0
        self.setup_s = 0.0
        self.port = 0

    def start(self) -> "Server":
        log = open(self.log, "wb")
        try:
            self.launched = _clock()
            self.proc = subprocess.Popen(
                self.argv, cwd=self.cwd, env=self.env,
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()
        line = self._serving_line()
        self.setup_s = _clock() - self.launched
        # "serving <names> on <host>:<port> (role=...)"
        try:
            self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise BenchError(f"unexpected serving line {line!r}") from None
        return self

    def _serving_line(self) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT):
                self.stop()
                raise BenchError(f"server printed nothing in {START_TIMEOUT}s: {self.argv}")
        line = self.proc.stdout.readline().decode("utf-8", "replace").strip()
        if not line.startswith("serving "):
            self.stop()
            detail = self.log.read_text(errors="replace")[-2000:]
            raise BenchError(f"server failed to start ({line!r}): {detail}")
        return line

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) summed over the server and its descendants."""
        pids = [self.proc.pid] + _descendants(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if stuck."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


@dataclass
class Sample:
    """One request as the client saw it."""

    op: Op
    id: int
    t_due: float = 0.0
    t_start: float = 0.0
    t_done: float = 0.0
    response: Optional[dict] = None
    #: For a read-your-write: the generation the writer's burst reached.
    token: int = 0

    @property
    def latency_ms(self) -> float:
        """From the due time (open loop) or the send (closed loop)."""
        return (self.t_done - (self.t_due or self.t_start)) * 1e3

    @property
    def ok(self) -> bool:
        return bool(self.response and self.response.get("ok"))


class Connection:
    """One JSON-line connection; ids are unique per connection owner."""

    def __init__(self, port: int, ids) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")
        self.ids = ids

    def close(self) -> None:
        self.file.close()
        self.sock.close()

    def send(self, sample: Sample) -> None:
        frame = {"op": sample.op.op, "id": sample.id, "params": sample.op.params}
        sample.t_start = _clock()
        self.sock.sendall(json.dumps(frame).encode("utf-8") + b"\n")

    def receive(self, sample: Sample) -> Sample:
        line = self.file.readline()
        if not line:
            raise BenchError("server closed the connection")
        return _answer(sample, line)

    def request(self, op: Op) -> Sample:
        sample = Sample(op, next(self.ids))
        self.send(sample)
        return self.receive(sample)


def _answer(sample: Sample, line: bytes) -> Sample:
    sample.response = json.loads(line)
    sample.t_done = _clock()
    if sample.response.get("id") != sample.id:
        raise BenchError(f"response id {sample.response.get('id')} for request {sample.id}")
    return sample


class Multiplexer:
    """Several connections sent on and read from by one thread.

    One thread does both: a sender thread of its own would wait for the
    interpreter lock while a reader thread parses a response, and run
    late by up to the lock's switch interval.
    """

    def __init__(self, conns: List[Connection]) -> None:
        self.conns = conns
        self.pending = [collections.deque() for _ in conns]
        self.buffers = [b"" for _ in conns]
        # select(2), not epoll: epoll rounds its timeout up to a millisecond.
        self.selector = selectors.SelectSelector()
        for at, conn in enumerate(conns):
            self.selector.register(conn.sock, selectors.EVENT_READ, at)

    def close(self) -> None:
        self.selector.close()

    @property
    def outstanding(self) -> int:
        return sum(len(queue) for queue in self.pending)

    def send(self, sample: Sample) -> None:
        self.pending[sample.op.conn].append(sample)
        self.conns[sample.op.conn].send(sample)

    def receive(self, timeout: float) -> List[Sample]:
        """The samples answered within ``timeout`` seconds."""
        answered = []
        for key, _ in self.selector.select(max(timeout, 0)):
            at = key.data
            data = self.conns[at].sock.recv(1 << 20)
            if not data:
                raise BenchError("server closed the connection")
            *lines, self.buffers[at] = (self.buffers[at] + data).split(b"\n")
            for line in lines:
                answered.append(_answer(self.pending[at].popleft(), line))
        return answered


def open_loop(conns: List[Connection], samples: List[Sample]) -> None:
    """Send every sample at its ``t_due`` and collect every response."""
    mux = Multiplexer(conns)
    try:
        sent = 0
        while sent < len(samples) or mux.outstanding:
            now = _clock()
            while sent < len(samples) and samples[sent].t_due <= now:
                mux.send(samples[sent])
                sent += 1
                now = _clock()
            waiting = sent == len(samples)
            if not mux.receive(120 if waiting else samples[sent].t_due - now) and waiting:
                raise BenchError("open loop: responses missing after 120 s")
    finally:
        mux.close()


def closed_loops(conns: List[Connection], streams: List[Iterator[Op]], ids,
                 stop_at: float) -> List[Sample]:
    """One closed loop per connection, driven from one thread.

    Connection ``i`` sends the next op of ``streams[i]`` as soon as its
    previous response is in, until ``stop_at``.  Returns every sample,
    in send order.
    """
    mux = Multiplexer(conns)
    samples: List[Sample] = []

    def issue(at: int) -> None:
        sample = Sample(next(streams[at]), next(ids))
        sample.op.conn = at
        samples.append(sample)
        mux.send(sample)

    try:
        for at in range(len(conns)):
            issue(at)
        while mux.outstanding:
            answered = mux.receive(120)
            if not answered:
                raise BenchError("closed loop: no response in 120 s")
            for sample in answered:
                if _clock() < stop_at:
                    issue(sample.op.conn)
    finally:
        mux.close()
    return samples
