"""A simulated multicore node: cores, accounting, hooks, tasklets, scheduler.

One :class:`Machine` models one cluster node (e.g. one quad-core Xeon X5460
box).  Several machines share a single :class:`~repro.sim.engine.Engine` —
they share simulated wall-clock time, like real nodes do — but each has its
own cores, scheduler (:class:`~repro.sim.scheduler.Marcel`), hook registry
and tasklet engine.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

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
        #: last non-idle... last thread that ran, for context-switch charging
        self.last_thread: SimThread | None = None
        self.idle_thread: SimThread | None = None
        self._busy: dict[str, int] = {}
        #: the idle thread's quiet nap, if it is taking one (see
        #: :meth:`repro.sim.scheduler.Marcel.realize_nap`)
        self._nap = None
        #: a quiet nap or flag spin whose busy time is billed lazily; its
        #: ``bill()`` brings the ledger up to the present before a read
        self._owed = None

    def account(self, category: str, ns: int) -> None:
        """Add ``ns`` of busy time under ``category``."""
        if ns:
            self._busy[category] = self._busy.get(category, 0) + ns

    def busy_ns(self, category: str | None = None) -> int:
        """Total accounted time, optionally restricted to one category."""
        if self._owed is not None:
            self._owed.bill()
        if category is None:
            return sum(self._busy.values())
        return self._busy.get(category, 0)

    def busy_breakdown(self) -> dict[str, int]:
        if self._owed is not None:
            self._owed.bill()
        return dict(self._busy)

    def __repr__(self) -> str:
        cur = self.current.name if self.current else None
        return f"<Core {self.machine.name}/{self.index} current={cur!r} runq={len(self.runq)}>"


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
            if core._nap is not None:
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
