"""Simulated synchronisation primitives with calibrated costs.

Three families, matching the mechanisms §3 of the paper compares:

* :class:`SpinLock` — the paper's choice for the very short critical
  sections of the communication library ("for such very short critical
  sections, spinlocks are more efficient than plain mutex").  An
  uncontended acquire/release cycle costs 70 ns; contention burns core
  time actively (no context switch), accounted as ``"spin"``.
* :class:`NullLock` — the "no locking" baseline; free, for single-threaded
  configurations and for structurally-unneeded lock points under a given
  locking policy.
* :class:`Semaphore` / :class:`Condition` — blocking primitives.  Blocking
  releases the core (a context switch, 375 ns each way — the 750 ns round
  trip of Fig. 7) and lets the idle loop poll.

:class:`Completion` is the one-shot completion flag used by communication
requests; it models *cache visibility*: a completion fired from core *k*
becomes visible to core *c* only after ``topology.transfer_ns(k, c)`` —
the effect measured by Fig. 8.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.costs import SimCosts
from repro.sim.machine import Core, Machine, SkippedLoop
from repro.sim.process import Acquire, Block, Delay, Release, SimGen, SimThread


class _LockBase:
    """Common interface consumed by the scheduler.

    ``__slots__``: every lock-point acquire/release crosses these objects,
    and fine-grained policies create one lock per point — the per-instance
    dict is measurable allocation and lookup traffic.
    """

    __slots__ = (
        "name",
        "acquire_ns",
        "release_ns",
        "owner",
        "spinners",
        "acquisitions",
        "contentions",
        "holds",
        "hold_ns_total",
        "hold_max_ns",
        "hold_hist",
        "_granted_at",
    )

    is_null = False

    def __init__(self, name: str, acquire_ns: int, release_ns: int) -> None:
        self.name = name
        self.acquire_ns = acquire_ns
        self.release_ns = release_ns
        self.owner: SimThread | None = None
        self.spinners: deque[SimThread] = deque()
        self.acquisitions = 0
        self.contentions = 0
        #: hold-time statistics (scheduler-granted holds; inline-context
        #: holds have no clock and stay untracked)
        self.holds = 0
        self.hold_ns_total = 0
        self.hold_max_ns = 0
        #: log2-bucket histogram: bucket b counts holds of [2^(b-1), 2^b) ns
        self.hold_hist: dict[int, int] = {}
        self._granted_at: int | None = None

    def _grant(self, thread: SimThread) -> None:
        self.owner = thread
        self.acquisitions += 1

    def record_hold(self, now_ns: int) -> None:
        """Close the hold opened at the last scheduler grant (no-op when
        the grant time is unknown, e.g. inline-context grants)."""
        if self._granted_at is None:
            return
        held = now_ns - self._granted_at
        self._granted_at = None
        self.holds += 1
        self.hold_ns_total += held
        if held > self.hold_max_ns:
            self.hold_max_ns = held
        bucket = held.bit_length()
        self.hold_hist[bucket] = self.hold_hist.get(bucket, 0) + 1

    @property
    def held(self) -> bool:
        return self.owner is not None

    def __repr__(self) -> str:
        owner = self.owner.name if self.owner else None
        return f"<{type(self).__name__} {self.name!r} owner={owner!r}>"


class NullLock(_LockBase):
    """A lock that costs nothing and excludes nobody.

    Locking policies install it at every lock point they do not need, so the
    library code paths are identical across policies — only the price of the
    lock objects differs, exactly like compiling the real library with a
    no-op lock macro.
    """

    __slots__ = ()

    is_null = True

    def __init__(self, name: str = "null") -> None:
        super().__init__(name, 0, 0)

    # inline context helpers (TryAcquire in interrupt hooks)
    def try_acquire_inline(self) -> bool:
        return True

    def release_inline(self) -> None:
        return None


class SpinLock(_LockBase):
    """A costed test-and-set spinlock.

    Acquire with ``yield Acquire(lock)``, release with ``yield
    Release(lock)``; the scheduler charges :attr:`acquire_ns` /
    :attr:`release_ns` (35 ns each by default — a 70 ns cycle) and makes
    contending threads spin in place.
    """

    __slots__ = ()

    def __init__(
        self,
        name: str = "spinlock",
        *,
        costs: SimCosts | None = None,
        acquire_ns: int | None = None,
        release_ns: int | None = None,
    ) -> None:
        costs = costs or SimCosts()
        super().__init__(
            name,
            costs.spin_acquire_ns if acquire_ns is None else acquire_ns,
            costs.spin_release_ns if release_ns is None else release_ns,
        )

    # inline context helpers (used by interrupt-style hooks via TryAcquire)
    def try_acquire_inline(self) -> bool:
        if self.owner is None:
            self._grant_inline()
            return True
        self.contentions += 1
        return False

    def _grant_inline(self) -> None:
        self.owner = _INLINE_OWNER
        self.acquisitions += 1

    def release_inline(self) -> None:
        if self.owner is not _INLINE_OWNER:
            from repro.sim.errors import SimProtocolError

            raise SimProtocolError(f"inline release of {self.name!r} not inline-owned")
        self.owner = None


class _InlineOwner:
    """Sentinel owner for locks taken from interrupt context."""

    name = "<interrupt>"
    placed_on = None
    bound = False

    def __repr__(self) -> str:  # pragma: no cover
        return "<interrupt-context>"


_INLINE_OWNER: Any = _InlineOwner()


def with_lock(lock: _LockBase, body: SimGen) -> SimGen:
    """Run a generator under ``lock`` (acquire → body → release).

    The release is *not* exception-safe by design: a simulated thread dying
    with a held lock is a bug we want loud, mirroring the real library.
    """
    yield Acquire(lock)
    result = yield from body
    yield Release(lock)
    return result


class Semaphore:
    """Counting semaphore with blocking waiters.

    ``wait``/``signal`` are generator methods (they charge the fast-path
    cost); :meth:`post` is a plain function for completion paths that run
    outside a simulated thread (e.g. straight from a NIC delivery event).
    """

    __slots__ = ("machine", "value", "name", "waiters")

    def __init__(self, machine: Machine, value: int = 0, name: str = "sem") -> None:
        if value < 0:
            raise ValueError(f"semaphore value must be >= 0, got {value}")
        self.machine = machine
        self.value = value
        self.name = name
        self.waiters: deque[SimThread] = deque()

    def wait(self) -> SimGen:
        """Decrement, blocking while the count is zero."""
        yield Delay(self.machine.costs.sem_fast_ns, "overhead")
        if self.value > 0:
            self.value -= 1
            return
        yield Block(queue=self.waiters, reason=f"sem:{self.name}")

    def try_wait(self) -> SimGen:
        """Non-blocking decrement; returns True on success."""
        yield Delay(self.machine.costs.sem_fast_ns, "overhead")
        if self.value > 0:
            self.value -= 1
            return True
        return False

    def signal(self, count: int = 1) -> SimGen:
        """Increment, waking blocked waiters first."""
        yield Delay(self.machine.costs.sem_fast_ns, "overhead")
        self.post(count)

    def post(self, count: int = 1, *, wake_delay_ns: int = 0) -> None:
        """Signal callable from any context.

        Waking a blocked thread pays the scheduler's wake-up path
        (:attr:`~repro.sim.costs.SimCosts.wake_latency_ns`) on top of any
        caller-supplied delay.
        """
        for _ in range(count):
            if self.waiters:
                waiter = self.waiters.popleft()
                self.machine.scheduler.wake(
                    waiter,
                    delay_ns=wake_delay_ns + self.machine.costs.wake_latency_ns,
                )
            else:
                self.value += 1


class Condition:
    """Condition variable used with an external :class:`SpinLock`.

    ``wait`` releases the lock, blocks, and re-acquires before returning —
    the classic monitor protocol.
    """

    __slots__ = ("machine", "lock", "name", "waiters")

    def __init__(self, machine: Machine, lock: _LockBase, name: str = "cond") -> None:
        self.machine = machine
        self.lock = lock
        self.name = name
        self.waiters: deque[SimThread] = deque()

    def wait(self) -> SimGen:
        yield Release(self.lock)
        yield Block(queue=self.waiters, reason=f"cond:{self.name}")
        yield Acquire(self.lock)

    def notify(self, count: int = 1) -> None:
        """Wake up to ``count`` waiters (plain function; caller holds the
        lock by convention)."""
        for _ in range(count):
            if not self.waiters:
                break
            self.machine.scheduler.wake(self.waiters.popleft())

    def notify_all(self) -> None:
        self.notify(len(self.waiters))


class Completion:
    """One-shot completion flag with cache-visibility semantics.

    A completion *fired* from core ``k`` at time ``t`` becomes *visible* to
    core ``c`` at ``t + topology.transfer_ns(k, c)``:

    * blocked waiters are woken with exactly that delay;
    * busy-wait loops must poll :meth:`visible` (not :attr:`fired`) so the
      same cost applies — this is what Fig. 8 measures;
    * flag spinners (:meth:`spin`) keep their core and file no events;
      the fire files one event per spinner, at its first re-read that
      sees the flag.

    ``fire_core=None`` means "fired from outside any core" (e.g. test
    drivers); visibility is then immediate.
    """

    __slots__ = (
        "machine",
        "name",
        "fired",
        "value",
        "fire_time",
        "fire_core",
        "waiters",
        "spinners",
        "_transfer_seen",
    )

    def __init__(self, machine: Machine, name: str = "completion") -> None:
        self.machine = machine
        self.name = name
        self.fired = False
        self.value: Any = None
        self.fire_time: int | None = None
        self.fire_core: int | None = None
        self.waiters: deque[SimThread] = deque()
        self.spinners: list[SkippedLoop] = []
        #: reader cores whose cache-line transfer has been attributed
        self._transfer_seen: set[int] = set()

    def fire(self, value: Any = None, *, core: int | None = None) -> None:
        """Mark complete; wake blocked waiters with the transfer cost.

        Idempotent firing is a protocol error (completions are one-shot).
        """
        if self.fired:
            from repro.sim.errors import SimProtocolError

            raise SimProtocolError(f"completion {self.name!r} fired twice")
        self.fired = True
        self.value = value
        self.fire_time = self.machine.engine.now
        self.fire_core = core
        while self.waiters:
            waiter = self.waiters.popleft()
            # a blocked waiter pays the scheduler wake-up path plus the
            # firing-core -> waiter-core cache transfer (Fig. 8)
            delay = self.machine.costs.wake_latency_ns
            if core is not None and waiter.placed_on is not None:
                transfer = self.machine.transfer_ns(core, waiter.placed_on)
                delay += transfer
                self.machine.transfer_charged_ns += transfer
            self.machine.scheduler.wake(waiter, value, delay_ns=delay)
        for spinner in self.spinners:
            self._resume_at_sight(spinner)
        self.spinners.clear()

    def spin(self, thread: SimThread, core: Core, check_ns: int) -> None:
        """Start ``thread`` re-reading this flag every ``check_ns`` on
        ``core``, the first period beginning now (see
        :class:`~repro.sim.process.SpinRead`)."""
        spin = SkippedLoop(thread, core, 0, check_ns, "poll")
        spin.settle()
        if self.fired:
            self._resume_at_sight(spin)
        else:
            self.spinners.append(spin)

    def _resume_at_sight(self, spin: SkippedLoop) -> None:
        """File the spin's resumption at its first re-read at or after the
        moment the flag becomes visible to its core."""
        visible_at = self.fire_time
        if self.fire_core is not None:
            visible_at += self.machine.transfer_ns(self.fire_core, spin.core.index)
        spin.file_from(visible_at, self._resume, spin)

    def _resume(self, spin: SkippedLoop) -> None:
        """The re-read that sees the flag: the spin's one event."""
        spin.settle()
        spin.core._lazy = None
        self.machine.scheduler._advance(spin.thread)

    def visible(self, core_index: int, now: int | None = None) -> bool:
        """Is the completion visible to a reader on ``core_index`` yet?"""
        if not self.fired:
            return False
        if self.fire_core is None:
            return True
        now = self.machine.engine.now if now is None else now
        transfer = self.machine.transfer_ns(self.fire_core, core_index)
        if now < self.fire_time + transfer:
            return False
        # the polled path pays the transfer implicitly (visibility latency);
        # attribute it once per reader core so repro.obs can decompose it
        if transfer and core_index not in self._transfer_seen:
            self._transfer_seen.add(core_index)
            self.machine.transfer_charged_ns += transfer
        return True

    def wait(self) -> SimGen:
        """Block until fired; returns the completion value.

        The waiter pays the fire-core → waiter-core transfer cost via its
        delayed wake.
        """
        if self.fired:
            # already fired: a late joiner still pays any residual visibility
            # delay (normally zero by the time anyone re-checks)
            return self.value
        value = yield Block(queue=self.waiters, reason=f"completion:{self.name}")
        return value
