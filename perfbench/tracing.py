"""Span tracing wrapped around the engine's public entry points.

The tracer patches, from outside the engine, the calls each layer
exposes (``BufferPool.fix``, ``LockManager.request``, ``encode_value``
at every name a caller bound it under, ...).  Each call becomes a span
with a name, start, end, parent span, thread and transaction id.  Spans
live in memory and are written out when the run ends.

A span's *self time* is its duration minus the time its same-thread
child spans cover.  A thread is active from the start of its first
top-level span to the end of its last; over that interval the self times
of its spans plus the gaps between its top-level spans (the time no
span covers) add up to the interval exactly, and the thread-seconds of
all threads add up to the self time of every layer plus the
unattributed time.  Calls
that can block (latch and lock requests, log forces, server admission)
also record thread CPU time; their off-CPU share is reported as the
layer's *wait* time.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

#: (layer, span name, module, attribute, blocking).  The attribute is a
#: ``Class.method`` or a module-level function; a function is patched at
#: every module that bound it by name at import time.
TIMED_CALLS = (
    ("btree", "btree.traverse", "repro.btree.tree", "BTree.traverse", False),
    ("btree", "btree.index_insert", "repro.btree.insert", "index_insert", False),
    ("btree", "btree.index_delete", "repro.btree.delete", "index_delete", False),
    ("btree", "btree.index_fetch", "repro.btree.fetch", "index_fetch", False),
    ("btree", "btree.index_fetch_next", "repro.btree.fetch", "index_fetch_next", False),
    ("btree", "btree.split_and_insert", "repro.btree.smo", "split_and_insert", False),
    ("storage.buffer", "buffer.fix", "repro.storage.buffer", "BufferPool.fix", False),
    ("storage.buffer", "buffer.unfix", "repro.storage.buffer", "BufferPool.unfix", False),
    ("storage.disk", "disk.read", "repro.storage.disk", "DiskManager.read", False),
    ("storage.disk", "disk.write", "repro.storage.disk", "DiskManager.write", False),
    ("storage.latch", "latch.acquire", "repro.storage.latch", "Latch.acquire", True),
    ("locks", "locks.request", "repro.locks.manager", "LockManager.request", True),
    ("locks", "locks.release_all", "repro.locks.manager", "LockManager.release_all", False),
    ("wal", "wal.append", "repro.wal.log", "LogManager.append", False),
    ("wal", "wal.force", "repro.wal.log", "LogManager.force", True),
    ("wal", "wal.force_for_commit", "repro.wal.log", "LogManager.force_for_commit", True),
    ("codec", "codec.encode_value", "repro.codec.values", "encode_value", False),
    ("codec", "codec.decode_value", "repro.codec.values", "decode_value", False),
    ("codec", "codec.encode_frame", "repro.codec.frames", "encode_frame", False),
    ("codec", "codec.try_parse_frame", "repro.codec.frames", "try_parse_frame", False),
    ("data", "heap.insert", "repro.data.heap", "HeapFile.insert", False),
    ("data", "heap.delete", "repro.data.heap", "HeapFile.delete", False),
    ("data", "heap.fetch", "repro.data.heap", "HeapFile.fetch", False),
    ("txn", "txn.begin", "repro.txn.manager", "TransactionManager.begin", False),
    ("txn", "txn.commit", "repro.txn.manager", "TransactionManager.commit", False),
    ("txn", "txn.commit_deferred", "repro.txn.manager", "TransactionManager.commit_deferred", False),
    ("txn", "txn.finish_deferred", "repro.txn.manager", "TransactionManager.finish_deferred", False),
    ("recovery", "recovery.analysis", "repro.recovery.analysis", "run_analysis", False),
    ("recovery", "recovery.redo", "repro.recovery.redo", "run_redo", False),
    ("recovery", "recovery.undo", "repro.recovery.undo", "run_undo", False),
    ("server", "server.submit", "repro.server.server", "DatabaseServer.submit", True),
    ("server", "server.submit_batch", "repro.server.server", "DatabaseServer.submit_batch", True),
    ("server", "server.execute", "repro.server.session", "Session.execute", False),
    ("server", "server.execute_batch", "repro.server.session", "Session.execute_batch", False),
)

#: Spans the benchmark opens itself around each transaction, request or
#: pipeline flush; their self time is engine glue no timed call covers.
BENCH_LAYER = "bench"

#: A server job's execute span is linked to the submit span that queued
#: it (same session object), across the executor thread hand-off.
_LINK_OUT = {"server.submit": 1, "server.submit_batch": 1}
_LINK_IN = {"server.execute": 0, "server.execute_batch": 0}


#: Calls whose returned bytes are summed (``codec.bytes_encoded``).
_SIZED = {"codec.encode_value"}


class _ThreadState:
    __slots__ = ("name", "stack", "self_s", "wait_s", "calls", "bytes", "txn",
                 "uncovered_s", "last_end", "paused_mark")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Open spans: [span_id, child_seconds, child_wait_seconds, parent_id].
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.wait_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.txn: int | None = None
        #: Gaps between top-level spans, minus time the tracer was paused.
        self.uncovered_s = 0.0
        self.last_end: float | None = None
        self.paused_mark = 0.0


class Tracer:
    """Collects spans from patched entry points; see module docstring."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        #: (span_id, parent_id, name, thread, txn_id, start, end)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.layer_of: dict[str, str] = {BENCH_LAYER: BENCH_LAYER}
        self.started = 0.0
        self.stopped = 0.0
        self.paused_s = 0.0
        self._paused = False
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._links: dict[int, int] = {}
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        for layer, name, module_name, attr, blocking in TIMED_CALLS:
            self.layer_of[name] = layer
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(name, original, blocking))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, blocking)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "") or ""
                if mod_name.split(".")[0] == "repro" and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapped)
        self.started = time.perf_counter()

    def uninstall(self) -> None:
        self.stopped = time.perf_counter()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run untraced (oracle checks); the interval leaves the window."""
        self._paused = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0
            self._paused = False

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def _close(self, state, name, frame, start, end, wait) -> None:
        stack = state.stack
        stack.pop()
        duration = end - start
        state.self_s[name] += duration - frame[1]
        state.calls[name] += 1
        if wait is not None:
            state.wait_s[name] += max(0.0, wait - frame[2])
        if stack:
            parent = stack[-1]
            parent[1] += duration
            if wait is not None:
                parent[2] += wait
        txn = state.txn
        if not stack:
            state.txn = None
            if state.last_end is not None:
                paused = self.paused_s - state.paused_mark
                state.uncovered_s += max(0.0, start - state.last_end - paused)
            state.last_end = end
            state.paused_mark = self.paused_s
        if len(self.spans) < self.span_cap:
            self.spans.append(
                (frame[0], frame[3], name, state.name, txn, start, end)
            )
        else:
            self.spans_dropped += 1

    def _open(self, state, link_key):
        stack = state.stack
        if stack:
            parent = stack[-1][0]
        elif link_key is not None:
            parent = self._links.get(link_key)
        else:
            parent = None
        frame = [next(self._ids), 0.0, 0.0, parent]
        stack.append(frame)
        return frame

    def _wrap(self, name: str, fn, blocking: bool):
        tracer = self
        perf = time.perf_counter
        cpu = time.thread_time
        link_out = _LINK_OUT.get(name)
        link_in = _LINK_IN.get(name)
        is_begin = name == "txn.begin"
        sized = name in _SIZED

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            state = tracer._state()
            frame = tracer._open(
                state, id(args[link_in]) if link_in is not None else None
            )
            if link_out is not None:
                tracer._links[id(args[link_out])] = frame[0]
            c0 = cpu() if blocking else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if is_begin:
                    state.txn = result.txn_id
                elif sized:
                    state.bytes[name] += len(result)
                return result
            finally:
                t1 = perf()
                wait = (t1 - t0) - (cpu() - c0) if blocking else None
                tracer._close(state, name, frame, t0, t1, wait)

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str = BENCH_LAYER) -> "_BenchSpan":
        """Context manager for a span opened by the benchmark itself."""
        return _BenchSpan(self, name)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Self and wait seconds and call counts per span name and per
        layer, plus the time no span covers (per-thread accounting)."""
        wall = self.stopped - self.started - self.paused_s
        by_name: dict[str, dict] = {}
        sizes: dict[str, int] = defaultdict(int)
        threads = []
        with self._threads_lock:
            states = list(self._threads)
        for state in states:
            threads.append({
                "thread": state.name,
                "self_s": sum(state.self_s.values()),
                "uncovered_s": state.uncovered_s,
            })
            for name, count in state.bytes.items():
                sizes[name] += count
            for name, seconds in state.self_s.items():
                entry = by_name.setdefault(name, {"self_s": 0.0, "wait_s": 0.0, "calls": 0})
                entry["self_s"] += seconds
                entry["wait_s"] += state.wait_s.get(name, 0.0)
                entry["calls"] += state.calls[name]
        layers: dict[str, dict] = {}
        for name, entry in by_name.items():
            layer = layers.setdefault(
                self.layer_of.get(name, BENCH_LAYER), {"self_s": 0.0, "wait_s": 0.0, "calls": 0}
            )
            for key in layer:
                layer[key] += entry[key]
        unattributed = sum(t["uncovered_s"] for t in threads)
        return {
            "wall_s": wall,
            "threads": len(states),
            "thread_s": sum(t["self_s"] for t in threads) + unattributed,
            "unattributed_s": unattributed,
            "layers": layers,
            "calls": by_name,
            "bytes": dict(sizes),
            "per_thread": threads,
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }


class _BenchSpan:
    __slots__ = ("tracer", "name", "state", "frame", "t0")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_BenchSpan":
        self.state = self.tracer._state()
        self.frame = self.tracer._open(self.state, None)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer._close(
            self.state, self.name, self.frame, self.t0, time.perf_counter(), None
        )
