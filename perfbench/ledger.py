"""Per-layer time ledger, installed from outside the program.

The benchmark never edits ``repro``: it replaces a module's public
entry points (functions, methods, iterators) with timing wrappers for
the length of a traced run, then puts the originals back.  Each wrapped
call adds to one aggregate row per layer -- calls, total seconds and
self seconds (total minus the time spent in wrapped calls it made) --
so no span object is created per record.  Rows live in per-thread
tables, which keeps the wrappers lock-free when the service's threads
run them concurrently; :meth:`Ledger.snapshot` merges the tables.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

Row = List[float]  # [calls, total_s, self_s]


class Ledger:
    """Aggregated count / total / self time per layer name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._tables: List[Dict[str, Row]] = []
        self._tables_lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        self.counters: Dict[str, float] = {}
        self._counters_lock = threading.Lock()

    # -- accounting ----------------------------------------------------------

    def _frame(self) -> Tuple[List[float], Dict[str, Row]]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def _close(
        self,
        layer: str,
        stack: List[float],
        table: Dict[str, Row],
        elapsed: float,
    ) -> None:
        child = stack.pop()
        row = table.get(layer)
        if row is None:
            row = table[layer] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += elapsed
        row[2] += elapsed - child
        if stack:
            stack[-1] += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Merged rows: ``{layer: {"calls", "total_s", "self_s"}}``."""
        merged: Dict[str, Row] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for layer, row in list(table.items()):
                acc = merged.setdefault(layer, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += row[i]
        return {
            layer: {"calls": int(r[0]), "total_s": r[1], "self_s": r[2]}
            for layer, r in merged.items()
        }

    # -- wrappers ------------------------------------------------------------

    def timed(
        self,
        layer: str,
        fn: Callable,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        clock = self.clock
        frame = self._frame
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table = frame()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, stack, table, clock() - start)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def timed_iterator(self, layer: str, fn: Callable) -> Callable:
        """Wrap a function returning an iterator: every ``next`` on the
        iterator it returns is charged to ``layer``."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIterator(ledger, layer, iter(fn(*args, **kwargs)))

        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, owner: object, name: str, replacement: object) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        self._undo.append((owner, name, raw))
        setattr(owner, name, replacement)

    def wrap(
        self,
        owner: object,
        name: str,
        layer: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Charge every call of ``owner.name`` to ``layer``."""
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        if isinstance(raw, classmethod):
            replacement: object = classmethod(
                self.timed(layer, raw.__func__, on_result)
            )
        else:
            replacement = self.timed(layer, raw, on_result)
        self.patch(owner, name, replacement)

    def wrap_iterator(self, owner: object, name: str, layer: str) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        self.patch(owner, name, self.timed_iterator(layer, raw))

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


class _TimedIterator:
    __slots__ = ("_ledger", "_layer", "_it")

    def __init__(self, ledger: Ledger, layer: str, it) -> None:
        self._ledger = ledger
        self._layer = layer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        ledger = self._ledger
        stack, table = ledger._frame()
        stack.append(0.0)
        start = ledger.clock()
        try:
            return next(self._it)
        finally:
            ledger._close(self._layer, stack, table, ledger.clock() - start)


class TimedLock:
    """Stand-in for a ``threading.RLock`` that adds the seconds spent
    waiting to acquire it to ``ledger.counters[counter]`` whenever
    ``watched()`` is true for the acquiring thread."""

    def __init__(
        self, lock, ledger: Ledger, counter: str, watched: Callable[[], bool]
    ) -> None:
        self._lock = lock
        self._ledger = ledger
        self._counter = counter
        self._watched = watched

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not self._watched():
            return self._lock.acquire(blocking, timeout)
        start = time.perf_counter()
        acquired = self._lock.acquire(blocking, timeout)
        self._ledger.count(self._counter, time.perf_counter() - start)
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()
