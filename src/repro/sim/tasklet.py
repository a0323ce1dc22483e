"""Tasklets: softirq-style deferred execution (paper §4.2).

The paper's earlier PIOMan designs offloaded communication processing to
other cores with Linux-style *tasklets* ("I'll do it later", Wilcox 2003):
a tasklet is scheduled from anywhere, cheaply, and later executed by the
softirq machinery of a chosen core.  Figure 9 shows the price of that
convenience: ~2 µs per offloaded submission, attributed to "the complex
locking mechanism involved when a tasklet is invoked" — versus ~400 ns when
an idle core picks the work up directly through scheduler hooks.

The model charges :attr:`~repro.sim.costs.SimCosts.tasklet_schedule_ns` on
the scheduling core and :attr:`~repro.sim.costs.SimCosts.tasklet_invoke_ns`
on the executing core (state checks, the tasklet spinlock, softirq entry);
the remaining 400 ns of the paper's 2 µs emerges from the inter-core cache
transfer, which the offloaded work pays anyway.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, TYPE_CHECKING

from repro.sim.errors import SimProtocolError
from repro.sim.process import Delay, SimGen

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Core, Machine

TaskletFn = Callable[["Core"], SimGen]


class TaskletState(enum.Enum):
    IDLE = "idle"
    SCHEDULED = "scheduled"
    RUNNING = "running"


class Tasklet:
    """A deferrable unit of work.

    ``fn(core)`` is a generator function run in full effect context on the
    core that executes the tasklet.
    """

    def __init__(self, fn: TaskletFn, name: str = "tasklet") -> None:
        self.fn = fn
        self.name = name
        self.state = TaskletState.IDLE
        self.runs = 0
        self.rescheduled_while_running = False

    def __repr__(self) -> str:
        return f"<Tasklet {self.name!r} {self.state.value} runs={self.runs}>"


class TaskletEngine:
    """Per-machine tasklet scheduler, driven from the idle loops.

    Machines create one automatically; its softirq hook registers *first*
    in the hook registry so deferred work runs before ordinary idle polling,
    like real softirqs preempt the idle loop.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._pending: list[deque[Tasklet]] = [deque() for _ in machine.cores]
        self.scheduled_total = 0
        self.executed_total = 0
        # armed on a core only while it has queued tasklets, so cores
        # without deferred work stay quiet (see HookRegistry.quiet)
        machine.hooks.register_idle(self._softirq_hook, cores=())
        machine.hooks.register_demand(self._demand)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, tasklet: Tasklet, core_index: int) -> SimGen:
        """Generator: schedule ``tasklet`` for execution on ``core_index``.

        Charges the schedule-side protocol cost to the calling core.
        Scheduling an already-scheduled tasklet is a no-op (Linux
        semantics); scheduling a *running* one marks it for re-run.
        """
        yield Delay(self.machine.costs.tasklet_schedule_ns, "lock")
        self.schedule_from_event(tasklet, core_index)

    def schedule_from_event(self, tasklet: Tasklet, core_index: int) -> None:
        """Cost-free scheduling entry point for non-thread contexts."""
        if not (0 <= core_index < self.machine.ncores):
            raise ValueError(f"no such core: {core_index}")
        if tasklet.state is TaskletState.SCHEDULED:
            return
        if tasklet.state is TaskletState.RUNNING:
            tasklet.rescheduled_while_running = True
            return
        tasklet.state = TaskletState.SCHEDULED
        self.scheduled_total += 1
        self._pending[core_index].append(tasklet)
        self.machine.hooks.arm_idle(self._softirq_hook, core_index)
        self.machine.scheduler.poke_idle(core_index)

    def pending_count(self, core_index: int | None = None) -> int:
        if core_index is None:
            return sum(len(q) for q in self._pending)
        return len(self._pending[core_index])

    def _demand(self) -> bool:
        return any(self._pending)

    # -- execution --------------------------------------------------------------

    def _softirq_hook(self, core: "Core") -> SimGen:
        """Idle hook: drain this core's pending tasklets."""
        queue = self._pending[core.index]
        ran = False
        while queue:
            tasklet = queue.popleft()
            if tasklet.state is not TaskletState.SCHEDULED:
                raise SimProtocolError(
                    f"tasklet {tasklet.name!r} in queue with state {tasklet.state.value}"
                )
            tasklet.state = TaskletState.RUNNING
            # softirq entry, tasklet state machine and its spinlock
            yield Delay(self.machine.costs.tasklet_invoke_ns, "lock")
            yield from tasklet.fn(core)
            tasklet.runs += 1
            self.executed_total += 1
            ran = True
            if tasklet.rescheduled_while_running:
                tasklet.rescheduled_while_running = False
                tasklet.state = TaskletState.SCHEDULED
                queue.append(tasklet)
            else:
                tasklet.state = TaskletState.IDLE
        self.machine.hooks.disarm_idle(self._softirq_hook, core.index)
        return ran
