"""Deterministic cooperative scheduler for simulated distributed systems.

The paper instruments real JVM systems whose nondeterminism comes from OS
scheduling and the network.  Our substitute is a CHESS-style cooperative
scheduler: simulated threads are real Python threads, but exactly one runs
at a time and control transfers only at *yield points* — every runtime API
call and every shared-memory access.  A seeded strategy picks the next
runnable thread at each step, so:

* a run is fully deterministic given its seed,
* different seeds explore different interleavings (DCbugs manifest only
  under some schedules, as in the real systems), and
* the trigger module can steer the schedule by blocking threads on
  controller-owned predicates.

Time is logical: the clock is the step counter, and ``sleep`` blocks until
the clock passes a deadline.  When every thread is sleeping, the clock
jumps forward discrete-event style.
"""

from __future__ import annotations

import random
import threading
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.errors import (
    DeadlockError,
    HangError,
    SchedulerError,
    SimFailure,
    ThreadKilled,
)

# How long (real seconds) the scheduler waits for a simulated thread to
# reach its next yield point before declaring the simulation wedged.  This
# only fires on bugs in the substrate itself, never on modeled deadlocks.
_WATCHDOG_SECONDS = 60.0


class ThreadState(Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    DONE = "done"
    FAILED = "failed"


_current = threading.local()


def current_sim_thread() -> "SimThread":
    """The simulated thread executing the caller, or raise."""
    t = getattr(_current, "thread", None)
    if t is None:
        raise SchedulerError("not running inside a simulated thread")
    return t


def maybe_current_sim_thread() -> Optional["SimThread"]:
    return getattr(_current, "thread", None)


class SimThread:
    """A simulated thread: a real Python thread gated by the scheduler."""

    def __init__(
        self,
        scheduler: "Scheduler",
        target: Callable[[], None],
        name: str,
        node: Optional[object] = None,
        daemon: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.target = target
        self.name = name
        self.node = node
        self.daemon = daemon
        self.tid = scheduler._allocate_tid()
        self.state = ThreadState.NEW
        self.wait_pred: Optional[Callable[[], bool]] = None
        self.wait_reason: str = ""
        self.wake_at: Optional[int] = None
        self.exc: Optional[BaseException] = None
        # Stack of handler contexts; each entry is a fresh segment id.
        # Used for Rule-Pnreg: program order holds only within a segment.
        self.segment_stack: List[int] = [scheduler._allocate_segment()]
        self._go = threading.Event()
        self._stop = False
        self._os_thread = threading.Thread(
            target=self._bootstrap, name=f"sim-{name}", daemon=True
        )

    # -- identity ---------------------------------------------------------

    @property
    def segment(self) -> int:
        return self.segment_stack[-1]

    @property
    def in_handler(self) -> bool:
        """True while executing an event/RPC/message handler body."""
        return len(self.segment_stack) > 1

    def push_segment(self) -> int:
        seg = self.scheduler._allocate_segment()
        self.segment_stack.append(seg)
        return seg

    def pop_segment(self) -> None:
        if len(self.segment_stack) <= 1:
            raise SchedulerError(f"segment underflow on {self.name}")
        self.segment_stack.pop()

    def __repr__(self) -> str:
        return f"<SimThread {self.tid}:{self.name} {self.state.value}>"

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self.state = ThreadState.RUNNABLE
        self._os_thread.start()

    def _bootstrap(self) -> None:
        _current.thread = self
        try:
            self._await_grant()
        except ThreadKilled:
            # Torn down before its first grant: it never ran, so there
            # is nothing to report and no exit to announce.
            return
        try:
            self.target()
            self.state = ThreadState.DONE
        except ThreadKilled:
            self.state = ThreadState.DONE
        except SimFailure as exc:
            self.state = ThreadState.FAILED
            self.exc = exc
            self.scheduler._on_thread_failure(self, exc)
        except BaseException as exc:  # noqa: BLE001 - report, don't lose it
            self.state = ThreadState.FAILED
            self.exc = exc
            self.scheduler._on_thread_failure(self, exc)
        finally:
            self.scheduler._on_thread_exit(self)
            self.scheduler._done.set()

    def _await_grant(self) -> None:
        # During teardown the scheduler wakes each thread exactly once;
        # a thread may yield *again* while unwinding (finally blocks that
        # emit operations) — it must not wait for a grant that will never
        # come.
        if self._stop:
            raise ThreadKilled()
        self._go.wait()
        self._go.clear()
        if self._stop:
            raise ThreadKilled()

    # -- yielding (called from within the simulated thread) ---------------

    def yield_control(self) -> None:
        """Return control to the scheduler; stay runnable."""
        self.state = ThreadState.RUNNABLE
        self.scheduler._done.set()
        self._await_grant()

    def block_until(self, pred: Callable[[], bool], reason: str) -> None:
        """Block until ``pred()`` is true (evaluated by the scheduler)."""
        if pred():
            self.yield_control()
            return
        self.wait_pred = pred
        self.wait_reason = reason
        self.state = ThreadState.BLOCKED
        self.scheduler._done.set()
        self._await_grant()

    def sleep_until(self, deadline: int) -> None:
        self.wake_at = deadline
        self.state = ThreadState.SLEEPING
        self.scheduler._done.set()
        self._await_grant()


class SchedulingStrategy:
    """Chooses which runnable thread runs next."""

    def pick(self, runnable: List[SimThread], step: int) -> SimThread:
        raise NotImplementedError


class RandomStrategy(SchedulingStrategy):
    """Seeded uniform choice — the default exploration strategy."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self, runnable: List[SimThread], step: int) -> SimThread:
        return runnable[self._rng.randrange(len(runnable))]


class RoundRobinStrategy(SchedulingStrategy):
    """Deterministic round-robin; useful for reproducible examples."""

    def __init__(self) -> None:
        self._last_tid = -1

    def pick(self, runnable: List[SimThread], step: int) -> SimThread:
        for t in runnable:
            if t.tid > self._last_tid:
                self._last_tid = t.tid
                return t
        self._last_tid = runnable[0].tid
        return runnable[0]


class PreferredThreadStrategy(SchedulingStrategy):
    """Run a preferred thread whenever runnable; else fall back.

    Used by tests and by the trigger explorer to bias schedules.
    """

    def __init__(self, preferred: List[str], fallback: SchedulingStrategy):
        self.preferred = list(preferred)
        self.fallback = fallback

    def pick(self, runnable: List[SimThread], step: int) -> SimThread:
        for name in self.preferred:
            for t in runnable:
                if t.name == name:
                    return t
        return self.fallback.pick(runnable, step)


class Scheduler:
    """Owns all simulated threads of one cluster run."""

    def __init__(
        self,
        strategy: Optional[SchedulingStrategy] = None,
        seed: int = 0,
        max_steps: int = 200_000,
    ) -> None:
        self.strategy = strategy or RandomStrategy(seed)
        self.max_steps = max_steps
        self.clock = 0
        self.steps = 0
        self.threads: Dict[int, SimThread] = {}
        self.current: Optional[SimThread] = None
        self._next_tid = 0
        self._next_segment = 0
        self._done = threading.Event()
        self._failure_handlers: List[Callable[[SimThread, BaseException], None]] = []
        self._exit_handlers: List[Callable[[SimThread], None]] = []
        self._idle_handlers: List[Callable[[], None]] = []
        self._wake_hints: List[Callable[[], Optional[int]]] = []
        self._finished = False

    # -- registration ------------------------------------------------------

    def _allocate_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _allocate_segment(self) -> int:
        seg = self._next_segment
        self._next_segment += 1
        return seg

    def spawn(
        self,
        target: Callable[[], None],
        name: str,
        node: Optional[object] = None,
        daemon: bool = False,
        start: bool = True,
    ) -> SimThread:
        """Create (and by default start) a simulated thread.

        ``start=False`` registers the thread without making it runnable —
        the caller emits its fork record first, so ``Create(t)`` always
        precedes ``Begin(t)`` in execution order.
        """
        t = SimThread(self, target, name, node=node, daemon=daemon)
        self.threads[t.tid] = t
        from repro import obs

        obs.counter(
            "scheduler_threads_spawned_total", "simulated threads created"
        ).inc()
        if start:
            t.start()
        return t

    def on_thread_failure(
        self, handler: Callable[[SimThread, BaseException], None]
    ) -> None:
        self._failure_handlers.append(handler)

    def on_thread_exit(self, handler: Callable[[SimThread], None]) -> None:
        self._exit_handlers.append(handler)

    def on_idle(self, handler: Callable[[], None]) -> None:
        """Called when only blocked threads remain, before deadlock checks.

        The trigger controller uses this to release gates that would
        otherwise stall the whole system.
        """
        self._idle_handlers.append(handler)

    def add_wake_hint(self, hint: Callable[[], Optional[int]]) -> None:
        """Register a source of future wake times (e.g. delayed message
        deliveries), consulted when all threads are blocked or asleep."""
        self._wake_hints.append(hint)

    def _on_thread_failure(self, thread: SimThread, exc: BaseException) -> None:
        for h in self._failure_handlers:
            h(thread, exc)

    def _on_thread_exit(self, thread: SimThread) -> None:
        for h in self._exit_handlers:
            h(thread)

    # -- the main loop ------------------------------------------------------

    def run(self) -> None:
        """Drive the simulation until all non-daemon threads finish.

        Raises ``DeadlockError`` or ``HangError`` for modeled failures;
        the cluster converts those into failure events.
        """
        if self._finished:
            raise SchedulerError("scheduler cannot be reused")
        try:
            self._loop()
        finally:
            self._finished = True
            self._teardown()
            # Aggregate accounting only — nothing per-step, so the hot
            # loop costs the same whether observability is on or off.
            from repro import obs

            obs.counter(
                "scheduler_steps_total", "scheduling decisions executed"
            ).inc(self.steps)
            obs.counter(
                "scheduler_clock_ticks_total", "logical clock advancement"
            ).inc(self.clock)

    def _loop(self) -> None:
        while True:
            self._wake_sleepers()
            self._unblock_ready()
            runnable = self._runnable()
            if not runnable:
                # Let time pass first: sleeping threads and pending
                # delayed deliveries (wake hints) still count as work.
                if self._advance_clock_to_next_wake():
                    continue
                # Truly quiescent: non-daemon work finished and the
                # daemons (queue consumers, servers) drained and blocked.
                if self._all_work_done():
                    return
                for h in self._idle_handlers:
                    h()
                self._unblock_ready()
                runnable = self._runnable()
                if not runnable:
                    blocked = self._blocked_non_daemon()
                    raise DeadlockError(
                        "deadlock: blocked threads "
                        + ", ".join(f"{t.name}[{t.wait_reason}]" for t in blocked),
                        blocked,
                    )
            thread = self.strategy.pick(runnable, self.steps)
            self._step(thread)
            self.steps += 1
            self.clock += 1
            if self.steps > self.max_steps:
                live = [
                    t.name
                    for t in self.threads.values()
                    if not t.daemon
                    and t.state not in (ThreadState.DONE, ThreadState.FAILED)
                ]
                raise HangError(
                    f"hang: step budget exceeded; live threads: {live}", self.steps
                )

    def _step(self, thread: SimThread) -> None:
        self._done.clear()
        self.current = thread
        thread._go.set()
        if not self._done.wait(timeout=_WATCHDOG_SECONDS):
            raise SchedulerError(
                f"watchdog: thread {thread.name} did not reach a yield point"
            )
        self.current = None

    def _runnable(self) -> List[SimThread]:
        return sorted(
            (t for t in self.threads.values() if t.state == ThreadState.RUNNABLE),
            key=lambda t: t.tid,
        )

    def _blocked_non_daemon(self) -> List[SimThread]:
        return [
            t
            for t in self.threads.values()
            if not t.daemon and t.state == ThreadState.BLOCKED
        ]

    def _all_work_done(self) -> bool:
        return all(
            t.state in (ThreadState.DONE, ThreadState.FAILED)
            for t in self.threads.values()
            if not t.daemon
        )

    def _unblock_ready(self) -> None:
        for t in self.threads.values():
            if t.state == ThreadState.BLOCKED and t.wait_pred is not None:
                if t.wait_pred():
                    t.wait_pred = None
                    t.wait_reason = ""
                    t.state = ThreadState.RUNNABLE

    def _wake_sleepers(self) -> None:
        for t in self.threads.values():
            if t.state == ThreadState.SLEEPING and t.wake_at is not None:
                if t.wake_at <= self.clock:
                    t.wake_at = None
                    t.state = ThreadState.RUNNABLE

    def _advance_clock_to_next_wake(self) -> bool:
        """Discrete-event jump: if threads are sleeping, skip to first wake."""
        wakes = [
            t.wake_at
            for t in self.threads.values()
            if t.state == ThreadState.SLEEPING and t.wake_at is not None
        ]
        for hint in self._wake_hints:
            value = hint()
            if value is not None and value > self.clock:
                wakes.append(value)
        if not wakes:
            return False
        self.clock = max(self.clock, min(wakes))
        self._wake_sleepers()
        return True

    def _teardown(self) -> None:
        """Kill any still-live threads (daemons and stragglers)."""
        for t in self.threads.values():
            if t.state in (ThreadState.DONE, ThreadState.FAILED):
                continue
            t._stop = True
            t._go.set()
        for t in self.threads.values():
            if t._os_thread.is_alive():
                t._os_thread.join(timeout=5.0)
