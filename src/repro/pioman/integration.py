"""Binding PIOMan to Marcel's scheduler hooks.

"In NewMadeleine, this is implemented by the PIOMan progression engine that
is called from the thread scheduler ... hooks at key points (CPU idleness,
context switches, timer interrupts)" (paper §3.3).

:func:`attach_pioman` creates the PIOMan, attaches the node's libraries,
registers the idle hook + demand provider, and starts idle loops on the
chosen cores.  ``poll_cores`` restricts *where* background polling happens —
the independent variable of Figure 8 (polling on CPU 0/1/2/3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.pioman.manager import PIOMan
from repro.sim.process import SimGen
from repro.sim.timer import TimerSystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.library import NewMadeleine
    from repro.sim.machine import Core, Machine


def attach_pioman(
    machine: "Machine",
    libs: list["NewMadeleine"],
    *,
    poll_cores: list[int] | None = None,
    enable_idle: bool = True,
    timers: bool = False,
    timer_period_ns: int | None = None,
) -> PIOMan:
    """Wire a PIOMan into ``machine``'s scheduler.

    Args:
        libs: this node's libraries (usually one).
        poll_cores: cores whose idle loops poll (default: all cores).
        enable_idle: spawn the idle threads now (disable only when the
            caller manages idle loops itself).
        timers: also start per-core timer ticks that re-poke the idle
            loops (a liveness backstop when every core computes).

    Returns the attached :class:`PIOMan`.
    """
    if not libs:
        raise ValueError("attach_pioman needs at least one library")
    pioman = PIOMan(machine, libs[0].costs)
    for lib in libs:
        pioman.attach(lib)
    poll_set = set(range(machine.ncores)) if poll_cores is None else set(poll_cores)
    for idx in poll_set:
        if not (0 <= idx < machine.ncores):
            raise ValueError(f"no such core: {idx}")

    def pioman_idle_hook(core: "Core") -> SimGen:
        if not pioman.demand():
            return False
        did = yield from pioman.poll(core)
        return did

    machine.hooks.register_idle(pioman_idle_hook, cores=poll_set)
    machine.hooks.register_demand(pioman.demand)
    if enable_idle:
        # idle loops run on EVERY core (a blocked thread always switches to
        # the idle task, like on a real machine); only the polling hook is
        # restricted to poll_cores
        machine.enable_idle_loops()
    if timers:

        def pioman_timer_hook(core: "Core") -> SimGen:
            """Interrupt-context poll: non-blocking, arrivals only.

            This is the paper's third hook point — "timer interrupts" —
            the backstop that keeps communication progressing even when
            every core runs compute threads and no idle loop ever gets
            scheduled.
            """
            did = False
            for lib in pioman.libs:
                result = yield from lib.try_progress_inline()
                did = did or result
            return did

        machine.hooks.register_timer(pioman_timer_hook)
        TimerSystem(machine, timer_period_ns).start(sorted(poll_set))
    return pioman
