"""Waiting strategies: busy, passive, and fixed-spin (paper §3.3).

How ``nm_wait`` passes the time is the subject of Figures 6 and 7:

* :class:`BusyWait` — the classic approach: keep calling the progress
  engine until the request completes.  Fastest alone, wasteful with many
  threads.
* :class:`PiomanBusyWait` — same, but polling goes through PIOMan's
  request lists; costs the +200 ns management overhead of Fig. 6.
* :class:`PassiveWait` — block on the request's completion; PIOMan polls
  from the scheduler hooks and wakes the thread.  Pays the 750 ns context
  switch round trip of Fig. 7 but frees the core.
* :class:`FixedSpinWait` — Karlin et al.'s competitive spinning: poll for
  a bounded interval (default 5 µs), then block.  The switch is avoided
  whenever the event arrives within the spin window, and amortised
  otherwise.

Busy strategies poll *visibility* (:meth:`Completion.visible`), so a
completion produced on a remote core is seen only after the cache-transfer
delay — the Fig. 8 effect applies to spinners and blockers alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.process import SimGen, SpinRead, WhereAmI

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.library import NewMadeleine
    from repro.core.requests import Request


class WaitError(RuntimeError):
    """A wait strategy's requirements are not met (e.g. no PIOMan)."""


class WaitStrategy:
    """Base class; ``wait`` runs on the waiting thread."""

    name: str = "abstract"

    def wait(self, lib: "NewMadeleine", req: "Request") -> SimGen:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<WaitStrategy {self.name}>"


class BusyWait(WaitStrategy):
    """Drive the library's progress engine until the request is visible."""

    name = "busy"

    def wait(self, lib: "NewMadeleine", req: "Request") -> SimGen:
        core = yield WhereAmI()
        visible = lambda: req.completion.visible(core)  # noqa: E731
        while not visible():
            yield from lib.progress(early_exit=visible)


class FlagSpinWait(WaitStrategy):
    """Spin on the request's completion flag without entering the library.

    The Fig. 8 instrument: the bound application thread does *no* polling
    itself — all progression is delegated (to PIOMan on a chosen core) —
    and simply re-reads the completion word.  The flag becomes visible
    after the poller-to-waiter cache transfer, so the measured latency
    delta between polling cores is exactly the cache distance.

    Requires someone else to actually poll; spinning forever otherwise.
    """

    name = "flag-spin"

    #: price of one flag re-read (a cached load + pause)
    SPIN_CHECK_NS = 30

    def wait(self, lib: "NewMadeleine", req: "Request") -> SimGen:
        if lib.pioman is None:
            raise WaitError(
                "FlagSpinWait requires a PIOMan: nobody else would poll"
            )
        core = yield WhereAmI()
        yield from lib.pioman.register(req)
        completion = req.completion
        while not completion.visible(core):
            # one engine event for the whole spin: the completion resumes
            # the thread at its first re-read that sees the flag
            yield SpinRead(completion, self.SPIN_CHECK_NS)


class PiomanBusyWait(WaitStrategy):
    """Busy waiting through PIOMan's request management (Fig. 6).

    The request is registered with the I/O manager and every poll goes
    through its lists; the +200 ns per message is the register/complete
    bookkeeping.
    """

    name = "pioman-busy"

    def wait(self, lib: "NewMadeleine", req: "Request") -> SimGen:
        if lib.pioman is None:
            raise WaitError("PiomanBusyWait requires a PIOMan attached to the library")
        core = yield WhereAmI()
        yield from lib.pioman.register(req)
        visible = lambda: req.completion.visible(core)  # noqa: E731
        while not visible():
            yield from lib.pioman.poll(early_exit=visible)


class PassiveWait(WaitStrategy):
    """Block on the completion; PIOMan polls from the scheduler hooks.

    Requires idle loops (or timers) to be running, otherwise nobody makes
    progress while the thread sleeps.
    """

    name = "passive"

    def wait(self, lib: "NewMadeleine", req: "Request") -> SimGen:
        if lib.pioman is None:
            raise WaitError("PassiveWait requires a PIOMan attached to the library")
        yield from lib.pioman.register(req)
        if req.completion.fired:
            return
        yield from req.completion.wait()


class FixedSpinWait(WaitStrategy):
    """Spin for a fixed interval, then block (competitive spinning).

    ``spin_ns=None`` uses the cost model's threshold (5 µs, the paper's
    example value).
    """

    name = "fixed-spin"

    def __init__(self, spin_ns: int | None = None) -> None:
        if spin_ns is not None and spin_ns < 0:
            raise ValueError("spin_ns must be >= 0")
        self.spin_ns = spin_ns
        #: diagnostics: how often each path resolved the wait
        self.resolved_spinning = 0
        self.resolved_blocking = 0

    def wait(self, lib: "NewMadeleine", req: "Request") -> SimGen:
        core = yield WhereAmI()
        spin_ns = self.spin_ns if self.spin_ns is not None else lib.costs.fixed_spin_ns
        deadline = lib.machine.engine.now + spin_ns
        while lib.machine.engine.now < deadline:
            if req.completion.visible(core):
                self.resolved_spinning += 1
                return
            yield from lib.progress()
        if req.completion.visible(core):
            self.resolved_spinning += 1
            return
        self.resolved_blocking += 1
        yield from PassiveWait().wait(lib, req)
