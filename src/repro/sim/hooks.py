"""Marcel's scheduler hooks.

The paper (§3.3) describes the key enabler for passive waiting: *"This
optimization requires modifications of the thread scheduler in order to add
a few hooks at key points (CPU idleness, context switches, timer
interrupts). These hooks are used to call PIOMan so as to poll the
networks."*

Three hook points are modelled:

* **idle hooks** — generator functions ``fn(core)`` run by a core's idle
  thread with the full effect vocabulary available (they may take spinlocks,
  signal semaphores, ...).  They return truthy when they performed work.
* **context-switch hooks** and **timer hooks** — *interrupt-context*
  generator functions restricted to the inline vocabulary (``Delay``,
  ``TryAcquire``/``Release``; see :func:`repro.sim.process.run_inline`),
  because a real scheduler cannot block inside a switch or an interrupt.

*Demand providers* tell idle loops whether frequent polling is currently
useful (e.g. PIOMan has pending requests); with no demand, idle threads
park until kicked, which keeps the event count of long simulations low.

An idle hook may be registered for a subset of cores (PIOMan's hook runs
only on its ``poll_cores``) and *armed* on further cores while it has
work there (the softirq hook, on cores with queued tasklets).  The
registry keeps a per-core count of the hooks that can run, so
:meth:`HookRegistry.quiet` — "no idle hook can run on this core" — is one
lookup; the scheduler lets idle loops on quiet cores nap without
simulating each empty pass.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Core

HookFn = Callable[["Core"], Generator[Any, Any, Any]]
DemandFn = Callable[[], bool]


class HookRegistry:
    """Per-machine registry of scheduler hooks."""

    def __init__(self) -> None:
        #: idle hooks in registration order, each with the cores it runs
        #: on (None: every core)
        self._idle: list[tuple[HookFn, set[int] | None]] = []
        #: idle hooks that run on every core
        self._everywhere = 0
        #: core index -> idle hooks that run on that core only
        self._on_core: dict[int, int] = {}
        self._ctx_switch: list[HookFn] = []
        self._timer: list[HookFn] = []
        self._demand: list[DemandFn] = []

    # -- registration ----------------------------------------------------------

    def register_idle(self, fn: HookFn, cores: Iterable[int] | None = None) -> None:
        """Run ``fn`` from the idle loops of ``cores`` (default: every core)."""
        if cores is None:
            self._idle.append((fn, None))
            self._everywhere += 1
            return
        self._idle.append((fn, set()))
        for core in cores:
            self.arm_idle(fn, core)

    def _cores_of(self, fn: HookFn) -> set[int] | None:
        for hook, cores in self._idle:
            if hook == fn:
                return cores
        raise ValueError(f"{fn!r} is not a registered idle hook")

    def arm_idle(self, fn: HookFn, core: int) -> None:
        """Let the registered hook ``fn`` run on ``core`` too (idempotent)."""
        cores = self._cores_of(fn)
        if cores is not None and core not in cores:
            cores.add(core)
            self._on_core[core] = self._on_core.get(core, 0) + 1

    def disarm_idle(self, fn: HookFn, core: int) -> None:
        """Stop running ``fn`` on ``core`` (idempotent)."""
        cores = self._cores_of(fn)
        if cores is not None and core in cores:
            cores.remove(core)
            self._on_core[core] -= 1

    def register_ctx_switch(self, fn: HookFn) -> None:
        self._ctx_switch.append(fn)

    def register_timer(self, fn: HookFn) -> None:
        self._timer.append(fn)

    def register_demand(self, fn: DemandFn) -> None:
        self._demand.append(fn)

    def unregister_idle(self, fn: HookFn) -> None:
        cores = self._cores_of(fn)
        self._idle.remove((fn, cores))
        if cores is None:
            self._everywhere -= 1
        else:
            for core in cores:
                self._on_core[core] -= 1

    @property
    def has_idle_hooks(self) -> bool:
        return bool(self._idle)

    def quiet(self, core_index: int) -> bool:
        """True when no idle hook can run on ``core_index`` (O(1))."""
        return not self._everywhere and not self._on_core.get(core_index)

    # -- invocation ---------------------------------------------------------------

    def idle_demand(self) -> bool:
        """True when some component wants the idle loops to keep polling."""
        for fn in self._demand:
            if fn():
                return True
        return False

    def run_idle(self, core: "Core") -> Generator[Any, Any, bool]:
        """Run every idle hook once (full effect context).

        Returns True if any hook reports having done work.
        """
        ran = False
        index = core.index
        for fn, cores in list(self._idle):
            if cores is None or index in cores:
                result = yield from fn(core)
                ran = ran or bool(result)
        return ran

    def inline_hooks(self, kind: str) -> list[HookFn]:
        """The interrupt-context hooks of the given kind
        (``"ctx_switch"`` or ``"timer"``)."""
        if kind == "ctx_switch":
            return list(self._ctx_switch)
        if kind == "timer":
            return list(self._timer)
        raise ValueError(f"unknown inline hook kind {kind!r}")
