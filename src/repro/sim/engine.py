"""The discrete-event core: an integer-nanosecond clock and an event queue.

Everything above (scheduler, NICs, timers) is expressed as callbacks
scheduled on a single :class:`Engine`.  Two simulated *nodes* of a cluster
share one engine — they share a clock, exactly like two real machines share
wall-clock time — while each node has its own :class:`~repro.sim.machine.Machine`.

Determinism: ties at equal timestamps are broken by insertion order, so a
given program always produces the same trace.  Insertion order is carried
by an integer *key*, ``(scheduling time << KEY_BITS) + n`` with ``n`` the
order of scheduling within that timestamp.  Events are scheduled in time
order, so the key is plain insertion order for every ordinary event; it
exists so that a component that skips simulating work can file an event
*as of* the instant the skipped code would have scheduled it
(:meth:`Engine.file_as_of`), and ask whether such an event would have run
yet (:meth:`Engine.ran`).  The key layout is private to this module.

Queue layout (the hot path of the whole simulator):

* future events live in a heap of ``(time, key, fn, args, handle)``
  tuples — tuple comparison resolves on the leading ints in C, so heap
  operations never call back into Python comparison methods;
* events scheduled *at the current timestamp* (the delay-0 dispatch/wake
  traffic) bypass the heap entirely: they append to a FIFO *now bucket*
  drained after the heap's entries for that timestamp.  Sequence order is
  structural — every heap entry at time *t* predates the clock reaching
  *t*, so it outranks every bucket entry, and the bucket itself is FIFO;
* fire-and-forget events (:meth:`Engine.call_after` / :meth:`Engine.call_at`
  — the scheduler/NIC/PIOMan fast path for the dominant short fixed-delay
  events) carry no :class:`EventHandle` at all: the old per-event handle
  allocation is gone, and the cancel token survives only on the
  user-facing :meth:`schedule` API, shrunk to a two-slot object.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.sim.errors import SimDeadlock, SimTimeLimit

#: low bits of an event key: the order of scheduling within one timestamp.
#: Ordinary events count up from 1; events filed as of a skipped instant
#: without a reserved key use the upper half (``AS_OF_BIT``), after every
#: ordinary event of that instant.
KEY_BITS = 20
AS_OF_BIT = 1 << (KEY_BITS - 1)


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("cancelled", "_engine", "_entry")

    def __init__(self, engine: "Engine | None") -> None:
        self.cancelled = False
        #: back-reference for O(1) pending() accounting; cleared when the
        #: event fires so a late cancel() is a no-op
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing."""
        engine = self._engine
        if engine is not None:
            self._engine = None
            self.cancelled = True
            engine._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self._engine is None:
            state = "fired"
        else:
            state = "pending"
        return f"<EventHandle {state}>"


class Engine:
    """Discrete-event loop with an integer nanosecond clock."""

    def __init__(self) -> None:
        self.now: int = 0
        #: future events: (time, seq, fn, args, handle-or-None) tuples
        self._heap: list[tuple] = []
        #: events at the *current* timestamp: (fn, args, handle-or-None,
        #: origin key), FIFO, drained after the heap's entries for this
        #: timestamp
        self._bucket: list[tuple] = []
        #: index of the next unconsumed bucket entry (persisted so an
        #: `until` exit can resume mid-bucket)
        self._pos = 0
        #: last key issued; reset to ``now << KEY_BITS`` when the clock moves
        self._key = 0
        #: order among the events filed as of one instant (:meth:`file_as_of`)
        self._as_of = 0
        #: key of the running event.  A now-bucket event gets
        #: ``now << KEY_BITS``: it runs after every heap event of this
        #: timestamp, all of which were scheduled earlier.
        self._current = 0
        #: key of the event that queued the running now-bucket event (the
        #: bucket runs in this order); ``now << KEY_BITS`` if that event
        #: was itself a bucket event
        self._origin = 0
        #: scheduled, not-yet-run, not-cancelled events (O(1) pending())
        self._live = 0
        self._events_run = 0
        self._running = False

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise ValueError(f"cannot schedule in the past: delay {delay_ns}")
        handle = EventHandle(self)
        self._live += 1
        if delay_ns:
            self._key = key = self._key + 1
            heappush(self._heap, (self.now + delay_ns, key, fn, args, handle))
        else:
            self._bucket.append((fn, args, handle, self._current))
        return handle

    def call_after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancel token is created, so
        the event costs one heap tuple (or one bucket entry for delay 0)
        and nothing else.

        This is the interface the scheduler/NIC/PIOMan hot paths use for
        the dominant short fixed-delay events (context switches, lock
        costs, poll ticks, delay-0 dispatches).
        """
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise ValueError(f"cannot schedule in the past: delay {delay_ns}")
        self._live += 1
        if delay_ns:
            self._key = key = self._key + 1
            heappush(self._heap, (self.now + delay_ns, key, fn, args, None))
        else:
            self._bucket.append((fn, args, None, self._current))

    def call_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule` at absolute time ``time_ns``
        (no cancel token)."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise ValueError(f"cannot schedule in the past: t={time_ns} < now={self.now}")
        self._live += 1
        if time_ns > self.now:
            self._key = key = self._key + 1
            heappush(self._heap, (time_ns, key, fn, args, None))
        else:
            self._bucket.append((fn, args, None, self._current))

    def reserve_key(self) -> int:
        """Consume and return the key an event scheduled now would get.

        Code that skips an event it would schedule now reserves its key
        here for :meth:`ran` and :meth:`file_as_of`.
        """
        self._key = key = self._key + 1
        return key

    def ran(self, time_ns: int, since: int, key: int | None, queued: bool = False) -> bool:
        """Has the event at ``time_ns`` scheduled at instant ``since`` run
        by now — or, with ``queued``, the now-bucket entry it queued?

        ``key`` is the event's key if it was reserved (:meth:`reserve_key`)
        at ``since``; ``None`` stands for the place right after every
        ordinary event scheduled at ``since``.  The running event itself
        counts as not run.
        """
        now = self.now
        if time_ns != now:
            return time_ns < now
        if key is None:
            key = since << KEY_BITS | AS_OF_BIT
        current = self._current
        if current < now << KEY_BITS:
            # a heap event runs: the now bucket is still ahead
            return not queued and current > key
        return not queued or self._origin > key

    def file_as_of(
        self, time_ns: int, since: int, key: int | None, fn: Callable[..., Any],
        args: tuple = (), queued: bool = False,
    ) -> EventHandle:
        """File ``fn(*args)`` at ``time_ns`` where the event scheduled at
        instant ``since`` under ``key`` runs (see :meth:`ran`); events filed
        as of one instant without a key run in filing order.

        The event goes to the heap even at the current timestamp, so it
        must not sort before the running event.  With ``queued`` it is the
        entry that event queued in the now bucket instead (``time_ns`` is
        now and that entry's place is still ahead).
        """
        if time_ns < self.now:
            raise ValueError(f"cannot schedule in the past: t={time_ns} < now={self.now}")
        if key is None:
            self._as_of = n = (self._as_of + 1) & (AS_OF_BIT - 1)
            key = since << KEY_BITS | AS_OF_BIT | n
        handle = EventHandle(self)
        self._live += 1
        if queued:
            bucket = self._bucket
            i = len(bucket)
            while i and bucket[i - 1][3] > key:
                i -= 1
            bucket.insert(i, (fn, args, handle, key))
            return handle
        handle._entry = entry = (time_ns, key, fn, args, handle)
        heappush(self._heap, entry)
        return handle

    def withdraw(self, handle: EventHandle) -> None:
        """Take a pending :meth:`file_as_of` heap event out of the queue.

        Unlike a cancelled event, which stays queued until its time comes,
        a withdrawn one leaves no trace: the clock never visits its time.
        """
        heap = self._heap
        heap.remove(handle._entry)
        heapify(heap)
        handle.cancel()

    def pending(self) -> int:
        """Number of queued, not-yet-cancelled events (O(1))."""
        return self._live

    @property
    def events_run(self) -> int:
        return self._events_run

    # -- execution -------------------------------------------------------------

    def run(
        self,
        until: Callable[[], bool] | None = None,
        *,
        max_time: int | None = None,
        max_events: int | None = None,
    ) -> str:
        """Process events until a stop condition holds.

        Args:
            until: optional predicate checked after every event; the loop
                stops as soon as it returns True.
            max_time: raise :class:`SimTimeLimit` if the clock would pass
                this absolute time (safety net against runaway idle loops).
            max_events: raise :class:`SimTimeLimit` after this many events.

        Returns:
            ``"until"`` if the predicate stopped the run, ``"drained"`` if
            the event queue emptied first.

        Raises:
            SimDeadlock: the queue drained while ``until`` was given and
                still false — the awaited condition can never happen.
            SimTimeLimit: a safety limit tripped.  The queue stays
                consistent: the event that would have crossed the limit is
                *not* consumed, so a caught limit can be followed by
                diagnostics (or a resumed run with a larger limit).
        """
        if self._running:
            raise RuntimeError("Engine.run is not reentrant")
        if until is not None and until():
            return "until"
        self._running = True
        # the loop below is the simulator's hottest code: locals shave an
        # attribute lookup per touch, and the unlimited/no-predicate run —
        # the common case — skips every guard it can
        heap = self._heap
        bucket = self._bucket
        pos = self._pos
        bucket_key = self.now << KEY_BITS
        events_this_run = 0
        try:
            while True:
                if heap:
                    entry = heap[0]
                    if entry[0] == self.now:
                        # heap entries at the current time predate the
                        # clock reaching it: they outrank the now bucket
                        heappop(heap)
                        handle = entry[4]
                        if handle is not None:
                            if handle.cancelled:
                                continue
                            handle._engine = None
                        if max_events is not None and events_this_run >= max_events:
                            heappush(heap, entry)  # leave the event queued
                            raise SimTimeLimit(
                                f"simulation exceeded max_events={max_events}"
                            )
                        self._live -= 1
                        events_this_run += 1
                        self._current = entry[1]
                        entry[2](*entry[3])
                        if until is not None and until():
                            return "until"
                        continue
                if pos < len(bucket):
                    entry = bucket[pos]
                    pos += 1
                    handle = entry[2]
                    if handle is not None:
                        if handle.cancelled:
                            continue
                        handle._engine = None
                    if max_events is not None and events_this_run >= max_events:
                        pos -= 1  # leave the event queued
                        raise SimTimeLimit(
                            f"simulation exceeded max_events={max_events}"
                        )
                    self._live -= 1
                    events_this_run += 1
                    self._current = bucket_key
                    self._origin = entry[3]
                    entry[0](*entry[1])
                    if until is not None and until():
                        return "until"
                    continue
                if heap:
                    # bucket drained: advance the clock to the next time
                    time = heap[0][0]
                    if max_time is not None and time > max_time:
                        handle = heap[0][4]
                        if handle is not None and handle.cancelled:
                            heappop(heap)  # cancelled: drop silently
                            continue
                        raise SimTimeLimit(
                            f"simulation exceeded max_time={max_time} ns "
                            f"(now={self.now})"
                        )
                    self.now = time
                    self._key = bucket_key = time << KEY_BITS
                    if bucket:
                        del bucket[:]
                    pos = 0
                    continue
                break
            if until is not None:
                raise SimDeadlock(
                    f"event queue drained at t={self.now} ns but the awaited "
                    f"condition never became true"
                )
            return "drained"
        finally:
            self._pos = pos
            self._events_run += events_this_run
            self._running = False
