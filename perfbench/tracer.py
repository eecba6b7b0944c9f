"""In-memory span tracer that wraps library functions at the names callers look up.

A span is (thread, seq, parent, site, start_ns, end_ns).  While the program
runs the wrapper only appends that record; everything else is computed from
the stored spans afterwards.  Self time is computed per thread: a span's
self time is its duration minus the durations of the spans nested directly
inside it on the same thread.  A span opened on a worker thread with nothing
open on that thread takes the main thread's innermost open span as its
parent; the part of the parent's interval that such cross-thread children
cover (the union of their intervals) is subtracted from the parent.
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter_ns, thread_time_ns

import numpy as np

SPAN_FIELDS = ("thread", "seq", "parent", "site", "start_ns", "end_ns")
NO_PARENT = -1  # parents <= -2 encode a main-thread span seq as -2 - seq

# per-thread counters filled by the hooks below
TESTED, VISIBLE, CANDIDATES, KEPT = range(4)


def _count_visible(counts, args, result):
    counts[TESTED] += len(args[0].landmarks)
    counts[VISIBLE] += len(result)


def _count_kept(counts, args, result):
    counts[CANDIDATES] += len(args[0].keys() & args[1].observations.keys())
    counts[KEPT] += len(result)


HOOKS = {"visible_set": _count_visible, "match": _count_kept}


class _ThreadState:
    __slots__ = ("no", "seq", "stack", "spans", "counts", "cpu_ns")

    def __init__(self, no: int, n_sites: int):
        self.no = no
        self.seq = 0  # spans are numbered 0, 1, ... per thread, in opening order
        self.stack = []  # seqs of the open spans
        self.spans = array("q")  # flat (seq, parent, site, start, end) records
        self.counts = [0] * 4
        self.cpu_ns = [0] * n_sites  # thread CPU time of the cpu_sites


class Tracer:
    """Records spans for the sites it wraps between install() and uninstall().

    sites: (owner, attribute, site name) triples; owner is a module or class.
    cpu_sites: site names whose thread CPU time is also recorded (a system
    call per boundary, so only for coarse spans); wall minus CPU is the time
    the thread waited, for the interpreter lock among others.
    The thread that calls install() is the main thread.
    """

    def __init__(self, sites, cpu_sites=()):
        self.sites = list(sites)
        self.names = [name for _, _, name in self.sites]
        self._cpu_sites = set(cpu_sites)
        self._saved = []
        self._tls = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main: _ThreadState | None = None

    def _new_state(self) -> _ThreadState:
        with self._lock:
            st = _ThreadState(len(self._threads), len(self.sites))
            self._threads.append(st)
        self._tls.state = st
        return st

    def _wrap(self, site: int, attr: str, fn):
        hook = HOOKS.get(attr)
        tls = self._tls
        new_state = self._new_state
        main = self._main
        main_stack = main.stack

        def traced(*args, **kwargs):
            try:
                th = tls.state
            except AttributeError:
                th = new_state()
            seq = th.seq
            th.seq = seq + 1
            stack = th.stack
            if stack:
                parent = stack[-1]
            elif th is not main and main_stack:
                parent = -2 - main_stack[-1]
            else:
                parent = NO_PARENT
            stack.append(seq)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                th.spans.extend((seq, parent, site, t0, t1))
            if hook is not None:
                hook(th.counts, args, result)
            return result

        traced.__wrapped__ = fn
        if self.names[site] not in self._cpu_sites:
            return traced

        def traced_cpu(*args, **kwargs):
            c0 = thread_time_ns()
            try:
                return traced(*args, **kwargs)
            finally:
                tls.state.cpu_ns[site] += thread_time_ns() - c0

        traced_cpu.__wrapped__ = fn
        return traced_cpu

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._main = self._new_state()
        for site, (owner, attr, _) in enumerate(self.sites):
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(site, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All spans as an (n, 6) int64 array with columns SPAN_FIELDS."""
        parts = [np.zeros((0, len(SPAN_FIELDS)), dtype=np.int64)]
        for th in self._threads:
            a = np.frombuffer(th.spans, dtype=np.int64).reshape(-1, 5)
            parts.append(np.column_stack([np.full(len(a), th.no, dtype=np.int64), a]))
        return np.concatenate(parts)

    def summary(self) -> dict:
        """Per-site calls, total, self and CPU seconds, the hook counters, and
        'root_s': the union of the main thread's root spans, which the
        accounting check compares with the timed wall time."""
        n = len(self.sites)
        calls = np.zeros(n)
        total = np.zeros(n)
        self_ns = np.zeros(n)
        cpu_ns = np.zeros(n)
        counts = [0] * 4
        main_site_of_seq = None
        for th in self._threads:
            a = np.frombuffer(th.spans, dtype=np.int64).reshape(-1, 5)
            order = np.argsort(a[:, 0])
            seq, parent, site = a[order, 0], a[order, 1], a[order, 2]
            if not np.array_equal(seq, np.arange(len(seq))):
                raise RuntimeError(f"thread {th.no}: spans were lost")
            dur = (a[order, 4] - a[order, 3]).astype(float)
            nested = parent >= 0
            own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(seq))
            calls += np.bincount(site, minlength=n)
            total += np.bincount(site, weights=dur, minlength=n)
            self_ns += np.bincount(site, weights=own, minlength=n)
            cpu_ns += th.cpu_ns
            for i in range(4):
                counts[i] += th.counts[i]
            if th is self._main:
                main_site_of_seq = site

        spans = self.spans()
        cross = spans[spans[:, 2] <= -2]
        if len(cross):
            parents = -2 - cross[:, 2]
            for p in np.unique(parents):
                self_ns[main_site_of_seq[p]] -= _union_ns(cross[parents == p][:, 4:6])
        main = self._main.no if self._main is not None else -1
        roots = spans[(spans[:, 0] == main) & (spans[:, 2] == NO_PARENT)]
        return {
            "names": self.names,
            "calls": [int(c) for c in calls],
            "total_s": (total / 1e9).tolist(),
            "self_s": (self_ns / 1e9).tolist(),
            "cpu_s": (cpu_ns / 1e9).tolist(),
            "counts": {
                "tested": counts[TESTED],
                "visible": counts[VISIBLE],
                "candidates": counts[CANDIDATES],
                "kept": counts[KEPT],
            },
            "root_s": _union_ns(roots[:, 4:6]) / 1e9,
        }


def _union_ns(intervals: np.ndarray) -> int:
    """Length of the union of [start, end) intervals, in the input's unit."""
    if len(intervals) == 0:
        return 0
    iv = intervals[np.argsort(intervals[:, 0], kind="stable")]
    total = 0
    cur_s, cur_e = int(iv[0, 0]), int(iv[0, 1])
    for s, e in iv[1:].tolist():
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return total + cur_e - cur_s
