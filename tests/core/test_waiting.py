"""Unit tests for wait strategies (busy / pioman / passive / fixed-spin /
flag-spin)."""

import pytest

from repro.bench.pingpong import run_pingpong
from repro.core import BusyWait, FixedSpinWait, PassiveWait, PiomanBusyWait, WaitError
from repro.core.session import build_testbed
from repro.core.waiting import FlagSpinWait
from repro.pioman import attach_pioman
from repro.sim.process import Delay, WhereAmI


def bed_with_pioman(policy="fine", poll_cores=None, jitter_ns=0):
    bed = build_testbed(policy=policy, jitter_ns=jitter_ns)
    for node in (0, 1):
        attach_pioman(bed.machine(node), [bed.lib(node)], poll_cores=poll_cores)
    return bed


class TestBusyWait:
    def test_pingpong(self):
        bed = build_testbed(policy="none")
        res = run_pingpong(bed, 64, iterations=6, warmup=2, wait_factory=BusyWait)
        assert res.latency_us > 0

    def test_requires_nothing(self):
        bed = build_testbed(policy="none")
        assert bed.lib(0).pioman is None  # works without PIOMan


class TestPiomanBusyWait:
    def test_requires_pioman(self):
        bed = build_testbed(policy="none")
        res = {}

        def waiter():
            lib = bed.lib(0)
            req = yield from lib.isend(1, 0, 8)
            try:
                yield from lib.wait(req, PiomanBusyWait())
            except WaitError:
                res["raised"] = True

        t = bed.machine(0).scheduler.spawn(waiter(), name="w", core=0)
        bed.run(until=lambda: t.done)
        assert res.get("raised")

    def test_pingpong_with_pioman(self):
        bed = bed_with_pioman()
        res = run_pingpong(bed, 64, iterations=6, warmup=2, wait_factory=PiomanBusyWait)
        assert res.latency_us > 0
        assert bed.lib(0).pioman.completed_total > 0

    def test_fig6_pioman_costs_about_200ns(self):
        """Fig. 6: PIOMan management adds ~200 ns over direct progress."""

        def lat(wait_factory, with_pioman, size):
            if with_pioman:
                bed = bed_with_pioman(poll_cores=[0], jitter_ns=150)
            else:
                bed = build_testbed(policy="fine", jitter_ns=150)
            return run_pingpong(
                bed, size, iterations=32, warmup=4, wait_factory=wait_factory
            ).latency_ns

        deltas = [
            lat(PiomanBusyWait, True, size) - lat(BusyWait, False, size)
            for size in (8, 256)
        ]
        mean = sum(deltas) / len(deltas)
        assert mean == pytest.approx(200, abs=150)


class TestPassiveWait:
    def test_requires_pioman(self):
        bed = build_testbed(policy="none")
        res = {}

        def waiter():
            lib = bed.lib(0)
            req = yield from lib.isend(1, 0, 8)
            try:
                yield from lib.wait(req, PassiveWait())
            except WaitError:
                res["raised"] = True

        t = bed.machine(0).scheduler.spawn(waiter(), name="w", core=0)
        bed.run(until=lambda: t.done)
        assert res.get("raised")

    def test_pingpong_passive(self):
        """Both sides block; idle-core hooks do all the polling."""
        bed = bed_with_pioman()
        res = run_pingpong(bed, 64, iterations=6, warmup=2, wait_factory=PassiveWait)
        assert res.latency_us > 0
        # the application threads context-switched every iteration
        assert bed.machine(0).scheduler.ctx_switches > 6

    def test_fig7_passive_costs_about_750ns_over_active(self):
        """Fig. 7: semaphore-based waiting adds ~750 ns of switches."""

        def lat(wait_factory):
            bed = bed_with_pioman(policy="fine", poll_cores=[0], jitter_ns=150)
            return run_pingpong(
                bed, 8, iterations=32, warmup=4, wait_factory=wait_factory
            ).latency_ns

        active = lat(PiomanBusyWait)
        passive = lat(PassiveWait)
        delta = passive - active
        assert 350 <= delta <= 1_200


class TestFixedSpinWait:
    def test_short_events_resolve_spinning(self):
        """Events within the spin window avoid the context switch."""
        bed = bed_with_pioman()
        strategies = []

        def factory():
            s = FixedSpinWait(spin_ns=1_000_000)
            strategies.append(s)
            return s

        run_pingpong(bed, 8, iterations=6, warmup=2, wait_factory=factory)
        assert sum(s.resolved_spinning for s in strategies) > 0
        assert sum(s.resolved_blocking for s in strategies) == 0

    def test_long_events_fall_back_to_blocking(self):
        bed = bed_with_pioman()
        outcome = {}

        def receiver():
            lib = bed.lib(1)
            req = yield from lib.irecv(0, 5, 8)
            strat = FixedSpinWait(spin_ns=2_000)
            yield from lib.wait(req, strat)
            outcome["blocking"] = strat.resolved_blocking

        def sender():
            from repro.sim.process import Delay

            lib = bed.lib(0)
            yield Delay(200_000)  # way beyond the spin window
            req = yield from lib.isend(1, 5, 8)
            yield from lib.wait(req)

        tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0)
        ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0)
        bed.run(until=lambda: tr.done and ts.done)
        assert outcome["blocking"] == 1

    def test_default_threshold_from_costmodel(self):
        bed = bed_with_pioman()
        assert bed.costs.fixed_spin_ns == 5_000

    def test_negative_spin_rejected(self):
        with pytest.raises(ValueError):
            FixedSpinWait(spin_ns=-1)

    def test_fixed_spin_beats_pure_passive_for_fast_events(self):
        """§3.3: the switch is avoided when the event lands inside the
        spin window, so fixed-spin tracks active waiting.

        Polling is pinned to the waiting core (the Figs. 6/7 methodology);
        with free-roaming pollers the comparison would mix in the Fig. 8
        cache-affinity effects.
        """

        def lat(wait_factory):
            bed = bed_with_pioman(poll_cores=[0], jitter_ns=150)
            return run_pingpong(
                bed, 8, iterations=24, warmup=4, wait_factory=wait_factory
            ).latency_ns

        fixed = lat(lambda: FixedSpinWait(spin_ns=50_000))
        passive = lat(PassiveWait)
        assert fixed < passive


class TestFlagSpinWait:
    """The Fig. 8 waiter re-reads the completion flag every 30 ns while
    PIOMan polls elsewhere; the wait must end at the first re-read that
    sees the flag, exactly as a loop of 30 ns re-reads would."""

    CHECK = FlagSpinWait.SPIN_CHECK_NS

    def _spin(self, fire_at, *, fire_core, deferred=False, plan=None, strategy=None):
        """Wait on an irecv on core 0 of node A (polling on core 1) that
        is completed at ``fire_at`` from ``fire_core`` (None: before the
        wait starts); ``deferred`` fires from a delay-0 event, after every
        queued event of that instant; ``plan(engine, fire)``, if given,
        schedules the fire instead.  ``strategy`` defaults to :class:`FlagSpinWait`.

        Returns (spin start, wait end, poll ns and transfer ns charged
        during the wait)."""
        bed = bed_with_pioman(poll_cores=[1])
        machine, lib = bed.machine(0), bed.lib(0)
        core0 = machine.cores[0]
        out = {}

        def waiter():
            req = yield from lib.irecv(1, 5, 8)
            out["req"] = req
            out["t0"] = bed.engine.now
            out["poll0"] = core0.busy_ns("poll")
            out["transfer0"] = machine.transfer_charged_ns
            if fire_at is None:
                fire()
            yield from lib.wait(req, strategy or FlagSpinWait())
            out["end"] = bed.engine.now
            out["poll"] = core0.busy_ns("poll") - out["poll0"]
            out["transfer"] = machine.transfer_charged_ns - out["transfer0"]

        def fire():
            out["req"].complete(core=fire_core)

        if plan is not None:
            plan(bed.engine, fire)
        elif deferred:
            bed.engine.call_at(fire_at, bed.engine.call_after, 0, fire)
        elif fire_at is not None:
            bed.engine.call_at(fire_at, fire)
        t = machine.scheduler.spawn(waiter(), name="w", core=0, bound=True)
        bed.run(until=lambda: t.done)
        start = out["t0"] + lib.costs.pioman_register_ns
        return start, out["end"], out["poll"], out["transfer"]

    @pytest.mark.parametrize("fire_core", [None, 0, 1, 2])
    @pytest.mark.parametrize("offset", [7, 300, 1001])
    def test_ends_at_first_reread_after_visibility(self, fire_core, offset):
        start, _, _, _ = self._spin(10_000, fire_core=None)
        fire_at = start + offset
        start, end, poll, transfer = self._spin(fire_at, fire_core=fire_core)
        transfer_ns = 0 if fire_core is None else [0, 400, 1200][fire_core]
        visible_at = fire_at + transfer_ns
        rereads = max(1, -(-(visible_at - start) // self.CHECK))
        assert end == start + rereads * self.CHECK
        assert end - self.CHECK < visible_at <= end
        assert poll == rereads * self.CHECK
        # the cache transfer is attributed once, by the read that sees it
        assert transfer == transfer_ns

    @pytest.mark.parametrize("rereads", [1, 2, 9])
    def test_fire_from_outside_on_a_reread_instant(self, rereads):
        """A fire queued before the re-read of its instant is seen by that
        re-read; one queued after it waits for the next."""
        start, _, _, _ = self._spin(10_000, fire_core=None)
        fire_at = start + rereads * self.CHECK
        _, end, poll, _ = self._spin(fire_at, fire_core=None)
        assert end == fire_at
        assert poll == rereads * self.CHECK
        _, end, poll, _ = self._spin(fire_at, fire_core=None, deferred=True)
        assert end == fire_at + self.CHECK
        assert poll == (rereads + 1) * self.CHECK

    @pytest.mark.xfail(
        strict=True,
        reason="a re-read filed as of the re-read before it sorts after "
        "every ordinary event scheduled at that instant",
    )
    def test_fire_scheduled_at_the_reread_before(self):
        """A fire scheduled at a re-read instant, after that re-read, for
        the next re-read instant comes after that next re-read in a loop
        of 30 ns re-reads."""

        class DelayLoop(FlagSpinWait):
            """The reference: one event per re-read."""

            def wait(self, lib, req):
                core = yield WhereAmI()
                yield from lib.pioman.register(req)
                while not req.completion.visible(core):
                    yield Delay(self.SPIN_CHECK_NS, "poll")

        start, _, _, _ = self._spin(10_000, fire_core=None)
        reread = start + 30 * self.CHECK

        def plan(engine, fire):
            engine.call_at(
                reread - self.CHECK, engine.call_after, 0,
                engine.call_after, self.CHECK, fire,
            )

        ref = self._spin(reread, fire_core=None, plan=plan, strategy=DelayLoop())
        assert ref[1:3] == (reread + self.CHECK, 31 * self.CHECK)
        assert self._spin(reread, fire_core=None, plan=plan) == ref

    def test_fired_before_the_wait_is_free(self):
        start, end, poll, transfer = self._spin(None, fire_core=None)
        assert end == start and poll == 0 and transfer == 0

    def test_requires_pioman(self):
        bed = build_testbed(policy="none")
        res = {}

        def waiter():
            req = yield from bed.lib(0).isend(1, 0, 8)
            try:
                yield from bed.lib(0).wait(req, FlagSpinWait())
            except WaitError:
                res["raised"] = True

        t = bed.machine(0).scheduler.spawn(waiter(), name="w", core=0)
        bed.run(until=lambda: t.done)
        assert res.get("raised")
