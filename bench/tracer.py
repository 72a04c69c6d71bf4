"""Outside-in tracing of interval_lab for the benchmark's traced run.

The tracer rebinds module attributes through which one layer calls
another (for example ``interval_lab.credible.posterior_cdf``) and the
benchmark's own entry points, wrapping each with a span: name, start,
end, parent span, thread and op.  Nothing under ``src/`` is edited; the
original attributes are restored by ``Tracer.restore``.

Spans live in compact in-memory arrays and are written out once, at the
end of the run.  A span's self time is its duration minus the union of
the intervals its child spans cover, where children include tasks that
ran on a thread pool the parent submitted to.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import Counter

import numpy as np

_NO_PARENT = -1


class Tracer:
    """Span recorder plus per-name counters, safe to call from pool threads."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.absent: list[str] = []
        self.samples: dict[str, list] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state -------------------------------------------------

    def _state(self):
        """This thread's span buffer, open-span stack, op tag and counters.

        Each thread appends only to its own buffer, so recording a span
        takes no lock; a span is addressed as (thread index, position).
        """
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.op = -1
            loc.counts = Counter()
            loc.name, loc.start, loc.end = array("H"), array("d"), array("d")
            loc.ptid, loc.pidx, loc.ops = array("i"), array("i"), array("i")
            with self._lock:
                loc.tid = len(self._threads)
                self._threads.append(loc.__dict__)
        return loc

    def begin_op(self, index: int) -> None:
        """Tag spans opened on the calling thread (and pools it submits to) with op ``index``."""
        self._state().op = index

    def add(self, key: str, amount: float = 1) -> None:
        self._state().counts[key] += amount

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def counts(self) -> Counter:
        total = Counter()
        for buf in self._threads:
            total.update(buf["counts"])
        return total

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, loc) -> int:
        ptid, pidx = loc.stack[-1] if loc.stack else (_NO_PARENT, _NO_PARENT)
        idx = len(loc.start)
        loc.name.append(nid)
        loc.ptid.append(ptid)
        loc.pidx.append(pidx)
        loc.ops.append(loc.op)
        t = time.perf_counter()
        loc.start.append(t)
        loc.end.append(t)
        loc.stack.append((loc.tid, idx))
        return idx

    def _close(self, idx: int, loc) -> None:
        loc.end[idx] = time.perf_counter()
        loc.stack.pop()

    # -- rebinding --------------------------------------------------------

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanned call.

        ``count(args, kwargs, result)`` may return {counter: amount} to add;
        it also runs for a call that raises, with result None, and such a
        call adds 1 to ``<span>.errors``.  A missing attribute
        is recorded in ``absent`` so metrics built on it are left out.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(span)
            return
        nid = self._name_id(span)
        err_key = span + ".errors"
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            loc = tracer._state()
            sid = tracer._open(nid, loc)
            out = None
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                loc.counts[err_key] += 1
                raise
            finally:
                tracer._close(sid, loc)
                if count is not None:
                    loc.counts.update(count(args, kwargs, out))
            return out

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def wrap_pool(self, owner, layer: str) -> None:
        """Replace ``owner.ThreadPoolExecutor`` so pool tasks become child spans.

        Each task is a ``<layer>.task`` span whose parent is the span that
        was open on the submitting thread; ``<layer>.pools`` counts pools.
        """
        orig = getattr(owner, "ThreadPoolExecutor", None)
        if orig is None:
            self.absent.append(layer + ".task")
            return
        nid = self._name_id(layer + ".task")
        tracer = self

        class TracedPool(orig):
            def __init__(self, *args, **kwargs):
                tracer.add(layer + ".pools")
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                src = tracer._state()
                parent = src.stack[-1] if src.stack else (_NO_PARENT, _NO_PARENT)
                op = src.op

                def task(*a, **k):
                    loc = tracer._state()
                    saved = (loc.stack, loc.op)
                    loc.stack, loc.op = [parent], op
                    sid = tracer._open(nid, loc)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._close(sid, loc)
                        loc.stack, loc.op = saved

                return super().submit(task, *args, **kwargs)

        self._patches.append((owner, "ThreadPoolExecutor", orig))
        owner.ThreadPoolExecutor = TracedPool

    def wrap_warnings(self, owner, key: str) -> None:
        """Count ``owner.warnings.warn`` calls under ``key`` and pass them on."""
        orig = getattr(owner, "warnings", None)
        if orig is None:
            self.absent.append(key)
            return
        tracer = self

        class CountingWarnings:
            def __getattr__(self, attr):
                return getattr(orig, attr)

            @staticmethod
            def warn(*args, **kwargs):
                tracer.add(key)
                kwargs["stacklevel"] = kwargs.get("stacklevel", 1) + 1
                return orig.warn(*args, **kwargs)

        self._patches.append((owner, "warnings", orig))
        owner.warnings = CountingWarnings()

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes into the same arrays."""
        bufs = self._threads
        sizes = [len(b["start"]) for b in bufs]
        offset = np.concatenate(([0], np.cumsum(sizes)))

        def cat(key, dtype):
            parts = [np.frombuffer(b[key], dtype=dtype) for b in bufs]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        ptid = cat("ptid", np.int32)
        parent = np.where(ptid >= 0, offset[np.maximum(ptid, 0)] + cat("pidx", np.int32), -1)
        return {
            "name": cat("name", np.uint16),
            "start": cat("start", np.float64),
            "end": cat("end", np.float64),
            "parent": parent.astype(np.int64),
            "thread": np.repeat(np.arange(len(bufs)), sizes),
            "op": cat("ops", np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length of the union of intervals [starts[i], ends[i]]."""
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s = starts[order]
    e = np.maximum.accumulate(ends[order])
    # a new merged block starts where an interval begins after all earlier ones end
    new_block = np.ones(s.size, dtype=bool)
    new_block[1:] = s[1:] > e[:-1]
    block = np.cumsum(new_block) - 1
    block_start = s[new_block]
    block_end = np.zeros(block_start.size)
    np.maximum.at(block_end, block, e)
    return float(np.sum(block_end - block_start))


def self_times(sp: dict[str, np.ndarray]) -> np.ndarray:
    """Self time of every span, thread-aware.

    Children on the parent's own thread run one after another, so their
    durations add.  A parent whose children ran on other threads (pool
    tasks) subtracts the union of all its children's intervals instead.
    """
    dur = sp["end"] - sp["start"]
    parent = sp["parent"]
    n = dur.size
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    remote = has_parent.copy()
    remote[has_parent] = sp["thread"][has_parent] != sp["thread"][parent[has_parent]]
    for p in np.unique(parent[remote]):
        kids = np.nonzero(parent == p)[0]
        lo, hi = sp["start"][p], sp["end"][p]
        covered[p] = union_length(
            np.clip(sp["start"][kids], lo, hi), np.clip(sp["end"][kids], lo, hi)
        )
    return dur - covered
