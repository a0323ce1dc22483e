"""A simulated multicore node: cores, accounting, hooks, tasklets, scheduler.

One :class:`Machine` models one cluster node (e.g. one quad-core Xeon X5460
box).  Several machines share a single :class:`~repro.sim.engine.Engine` —
they share simulated wall-clock time, like real nodes do — but each has its
own cores, scheduler (:class:`~repro.sim.scheduler.Marcel`), hook registry
and tasklet engine.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.costs import SimCosts
from repro.sim.engine import Engine
from repro.sim.errors import SimThreadError
from repro.sim.hooks import HookRegistry
from repro.sim.rng import RngHub
from repro.sim.topology import CacheTopology, single_core

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import SimThread
    from repro.sim.scheduler import Marcel
    from repro.sim.tasklet import TaskletEngine

#: accounting categories used by :class:`Core`
BUSY_CATEGORIES = (
    "compute",
    "poll",
    "lock",
    "spin",
    "ctxswitch",
    "idle",
    "overhead",
    "net",
    "timer",
)


class Core:
    """One CPU core: a run queue, the currently-placed thread, and a
    per-category busy-time ledger used by the utilization experiments."""

    def __init__(self, machine: "Machine", index: int) -> None:
        self.machine = machine
        self.index = index
        self.runq: deque[SimThread] = deque()
        #: thread currently occupying the core (running, delayed or spinning)
        self.current: SimThread | None = None
        #: the thread that ran last (idle threads included), for
        #: context-switch charging
        self.last_thread: SimThread | None = None
        self.idle_thread: SimThread | None = None
        self._busy: dict[str, int] = {}
        #: the skipped loop (a quiet nap or a flag spin) running here, if
        #: any; reads settle its busy time first
        self._lazy: SkippedLoop | None = None

    def account(self, category: str, ns: int) -> None:
        """Add ``ns`` of busy time under ``category``."""
        if ns:
            self._busy[category] = self._busy.get(category, 0) + ns

    def busy_ns(self, category: str | None = None) -> int:
        """Total accounted time, optionally restricted to one category."""
        if self._lazy is not None:
            self._lazy.settle()
        if category is None:
            return sum(self._busy.values())
        return self._busy.get(category, 0)

    def busy_breakdown(self) -> dict[str, int]:
        if self._lazy is not None:
            self._lazy.settle()
        return dict(self._busy)

    def __repr__(self) -> str:
        cur = self.current.name if self.current else None
        return f"<Core {self.machine.name}/{self.index} current={cur!r} runq={len(self.runq)}>"


class SkippedLoop:
    """A thread on ``core`` repeating a fixed-cost step every ``period`` ns
    from ``start``, simulated with one engine event instead of the events
    of every step.

    Period ``i`` runs from step ``i`` (the start, for i = 0) to step
    ``i + 1``, at ``start + (i + 1) * period``.  It spends ``lag`` ns off
    the core (a quiet nap's sleep; none for a flag spin), then pays
    ``cost`` ns of ``category``, billed by the skipped event that also
    schedules step ``i + 1``: with a lag, the dispatch queued by the
    wake-up that step ``i`` scheduled; without, step ``i`` itself.
    ``key`` is reserved at ``start`` for the event the skipped code
    scheduled then; an event it scheduled at a later instant sorts after
    that instant's ordinary events.  ``billed`` periods are on the core's
    ledger; ``last`` is the step of the one event, ``handle``, once filed.
    """

    __slots__ = ("thread", "core", "engine", "lag", "cost", "category",
                 "period", "start", "key", "billed", "last", "handle")

    def __init__(
        self, thread: SimThread, core: Core, lag: int, cost: int, category: str
    ) -> None:
        self.thread = thread
        self.core = core
        self.engine = core.machine.engine
        self.lag = lag
        self.cost = cost
        self.category = category
        self.period = lag + cost
        self.last: int | None = None
        self.handle = None
        self.begin()

    def begin(self) -> None:
        """(Re)start the loop at the present instant, on the core's slot."""
        engine = self.engine
        self.start = engine.now
        self.key = engine.reserve_key()
        self.billed = 0
        self.core._lazy = self

    def settle(self) -> None:
        """Bill every period whose cost has been paid by the present
        instant (at most ``last`` periods)."""
        now = self.engine.now
        last = self.last
        if last is not None and now >= self.start + last * self.period:
            periods = last  # the loop's one event has come: all is paid
        else:
            start, period, lag = self.start, self.period, self.lag
            i = (now - start - lag) // period
            if i >= 0 and now == start + i * period + lag:
                # period i's cost is billed at this very instant: has it
                # been?  (by the dispatch of the wake-up step i scheduled,
                # or by step i, scheduled at step i - 1)
                since = now - (lag or period)
                key = self.key if since == start else None
                if lag:
                    paid = self.engine.ran(now, since, key, True)
                else:
                    paid = not i or self.engine.ran(now, since, key)
                if not paid:
                    i -= 1
            periods = i + 1
        billed = self.billed
        if periods > billed:
            self.core.account(self.category, (periods - billed) * self.cost)
            self.billed = periods

    def file_from(self, t: int, fn: Callable[..., Any], *args: Any) -> None:
        """File the loop's one event, ``fn(*args)``, at its first step at or
        after instant ``t`` that has not run yet."""
        period, start, engine = self.period, self.start, self.engine
        i = -(-(t - start) // period)
        if i < 1:
            i = 1
        at = start + i * period
        since = at - period + self.lag
        key = self.key if since == start else None
        if at == engine.now and engine.ran(at, since, key):
            # a tie: that step ran just before ``t``
            i += 1
            at += period
            since += period
            key = None
        self.last = i
        self.handle = engine.file_as_of(at, since, key, fn, args)


class Machine:
    """A simulated SMP node.

    Args:
        engine: shared discrete-event engine.
        topology: cache topology (defaults to a single core).
        costs: substrate cost calibration.
        name: node name used in thread names and diagnostics.
        rng: optional jitter hub (deterministic when omitted).
        jitter_ns: half-normal jitter scale applied by components that opt
            into noise (0 = fully deterministic).
    """

    def __init__(
        self,
        engine: Engine,
        topology: CacheTopology | None = None,
        *,
        costs: SimCosts | None = None,
        name: str = "node",
        rng: RngHub | None = None,
        jitter_ns: int = 0,
    ) -> None:
        from repro.sim.scheduler import Marcel
        from repro.sim.tasklet import TaskletEngine

        self.engine = engine
        self.topology = topology or single_core()
        self.costs = costs or SimCosts()
        self.name = name
        self.rng = rng or RngHub(0)
        self.jitter_ns = jitter_ns
        self.active = True
        self.cores = [Core(self, i) for i in range(self.topology.ncores)]
        self.hooks = HookRegistry()
        self.scheduler: Marcel = Marcel(self)
        self.tasklets: TaskletEngine = TaskletEngine(self)
        self._failures: list[SimThread] = []
        #: optional execution tracer (see :mod:`repro.sim.trace`)
        self.tracer = None
        #: total cache-distance transfer ns charged on this node (completion
        #: visibility + cross-core descriptor hand-offs) — read by repro.obs
        self.transfer_charged_ns = 0
        #: last request id issued on this node (ids are per machine)
        self.req_counter = 0

    # -- convenience ---------------------------------------------------------

    @property
    def ncores(self) -> int:
        return len(self.cores)

    def core(self, index: int) -> Core:
        return self.cores[index]

    def transfer_ns(self, src_core: int, dst_core: int) -> int:
        """Inter-core completion-notification cost (cache distance)."""
        return self.topology.transfer_ns(src_core, dst_core)

    def jitter(self, stream: str) -> int:
        """Sample this machine's configured jitter (0 when disabled)."""
        return self.rng.jitter_ns(f"{self.name}:{stream}", self.jitter_ns)

    # -- idle loops -------------------------------------------------------------

    def enable_idle_loops(self, cores: list[int] | None = None) -> None:
        """Spawn the per-core idle threads that drive idle hooks.

        Idempotent per core.  Required for passive waiting, background
        progression and tasklets; plain busy-wait benchmarks can skip it.
        """
        targets = self.cores if cores is None else [self.cores[i] for i in cores]
        for core in targets:
            if core.idle_thread is None:
                self.scheduler.spawn_idle(core)

    def shutdown(self) -> None:
        """Stop idle loops so the event queue can drain."""
        for core in self.cores:
            if core._lazy is not None:
                self.scheduler.realize_nap(core)
        self.active = False
        for core in self.cores:
            if core.idle_thread is not None and not core.idle_thread.done:
                self.scheduler.kick(core.idle_thread)

    # -- tracing ---------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Record scheduler events into ``tracer`` from now on."""
        self.tracer = tracer

    def _trace(self, kind: str, thread, core_index: int | None, detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.record(self.engine.now, kind, thread, core_index, detail)

    # -- failure tracking ----------------------------------------------------------

    def _record_failure(self, thread: SimThread) -> None:
        self._failures.append(thread)

    def check_failures(self) -> None:
        """Re-raise the first simulated-thread exception, if any."""
        if self._failures:
            t = self._failures[0]
            raise SimThreadError(t, f"thread {t.name!r} failed") from t.exc

    # -- reporting --------------------------------------------------------------------

    def utilization(self) -> dict[int, dict[str, int]]:
        """Per-core busy-time breakdown (ns by category)."""
        return {c.index: c.busy_breakdown() for c in self.cores}

    def __repr__(self) -> str:
        return f"<Machine {self.name!r} {self.topology.name} x{self.ncores}>"
