"""Unit tests for the Marcel scheduler: threads, effects, switching, idle."""

import pytest

from repro.sim import (
    Delay,
    Engine,
    Machine,
    SimDeadlock,
    SimThreadError,
    Sleep,
    ThreadState,
    YieldCore,
    quad_xeon_x5460,
    uniform,
)
from repro.sim.process import Block


def make_machine(ncores=4, **kw):
    eng = Engine()
    topo = quad_xeon_x5460() if ncores == 4 else uniform(ncores)
    return eng, Machine(eng, topo, **kw)


class TestSpawnAndRun:
    def test_thread_runs_to_completion(self):
        eng, m = make_machine()

        def work():
            yield Delay(100)
            return 42

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert t.result == 42
        assert t.state is ThreadState.DONE
        assert eng.now == 100

    def test_spawn_requires_generator(self):
        _, m = make_machine()
        with pytest.raises(TypeError):
            m.scheduler.spawn(lambda: None, name="bad")

    def test_spawn_bad_core(self):
        _, m = make_machine()
        with pytest.raises(ValueError):
            m.scheduler.spawn(iter([]), core=99)

    def test_delays_accumulate_time(self):
        eng, m = make_machine()

        def work():
            yield Delay(100)
            yield Delay(250)

        t = m.scheduler.spawn(work(), name="w", core=0)
        eng.run(until=lambda: t.done)
        assert eng.now == 350
        assert m.cores[0].busy_ns("compute") == 350

    def test_delay_category_accounting(self):
        eng, m = make_machine()

        def work():
            yield Delay(100, "poll")
            yield Delay(50, "compute")

        t = m.scheduler.spawn(work(), name="w", core=2)
        eng.run(until=lambda: t.done)
        assert m.cores[2].busy_ns("poll") == 100
        assert m.cores[2].busy_ns("compute") == 50

    def test_zero_delay_is_inline(self):
        eng, m = make_machine()

        def work():
            for _ in range(5):
                yield Delay(0)
            return "ok"

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert t.result == "ok"
        assert eng.now == 0

    def test_exception_propagates_as_sim_thread_error(self):
        eng, m = make_machine()

        def bad():
            yield Delay(10)
            raise RuntimeError("boom")

        m.scheduler.spawn(bad(), name="bad")
        with pytest.raises(SimThreadError):
            eng.run(until=lambda: False)
        with pytest.raises(SimThreadError):
            m.check_failures()

    def test_two_threads_on_different_cores_run_in_parallel(self):
        eng, m = make_machine()

        def work():
            yield Delay(1000)

        t1 = m.scheduler.spawn(work(), name="a", core=0, bound=True)
        t2 = m.scheduler.spawn(work(), name="b", core=1, bound=True)
        eng.run(until=lambda: t1.done and t2.done)
        assert eng.now == 1000  # true parallelism

    def test_two_threads_one_core_serialize(self):
        eng, m = make_machine()
        costs = m.costs

        def work():
            yield Delay(1000)

        t1 = m.scheduler.spawn(work(), name="a", core=0, bound=True)
        t2 = m.scheduler.spawn(work(), name="b", core=0, bound=True)
        eng.run(until=lambda: t1.done and t2.done)
        # serialized plus one context switch between them
        assert eng.now == 2000 + costs.ctx_switch_ns

    def test_unbound_threads_balance_across_cores(self):
        eng, m = make_machine()

        def work():
            yield Delay(500)

        threads = [m.scheduler.spawn(work(), name=f"t{i}") for i in range(4)]
        eng.run(until=lambda: all(t.done for t in threads))
        assert eng.now == 500
        assert sorted({t.placed_on for t in threads}) == [0, 1, 2, 3]

    def test_live_threads_counter(self):
        eng, m = make_machine()

        def work():
            yield Delay(10)

        t = m.scheduler.spawn(work(), name="w")
        assert m.scheduler.live_threads == 1
        eng.run(until=lambda: t.done)
        assert m.scheduler.live_threads == 0


class TestYieldAndSwitch:
    def test_yield_alternates_threads(self):
        eng, m = make_machine()
        order = []

        def work(tag):
            for _ in range(3):
                order.append(tag)
                yield YieldCore()

        t1 = m.scheduler.spawn(work("a"), name="a", core=0, bound=True)
        t2 = m.scheduler.spawn(work("b"), name="b", core=0, bound=True)
        eng.run(until=lambda: t1.done and t2.done)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_yield_with_empty_runq_continues(self):
        eng, m = make_machine()

        def work():
            yield YieldCore()
            yield Delay(10)
            return "done"

        t = m.scheduler.spawn(work(), name="solo", core=0)
        eng.run(until=lambda: t.done)
        assert t.result == "done"

    def test_context_switch_cost_charged(self):
        eng, m = make_machine()

        def work():
            yield Delay(100)

        t1 = m.scheduler.spawn(work(), name="a", core=0, bound=True)
        t2 = m.scheduler.spawn(work(), name="b", core=0, bound=True)
        eng.run(until=lambda: t1.done and t2.done)
        assert m.scheduler.ctx_switches == 1
        assert m.cores[0].busy_ns("ctxswitch") == m.costs.ctx_switch_ns


class TestBlockWake:
    def test_block_and_wake_value(self):
        eng, m = make_machine()
        box = []

        def waiter():
            value = yield Block(queue=box, reason="test")
            return value

        t = m.scheduler.spawn(waiter(), name="w", core=0)
        eng.run(until=lambda: bool(box))
        assert t.state is ThreadState.BLOCKED
        m.scheduler.wake(box.pop(), "hello")
        eng.run(until=lambda: t.done)
        assert t.result == "hello"

    def test_wake_with_delay(self):
        eng, m = make_machine()
        box = []

        def waiter():
            yield Block(queue=box)

        t = m.scheduler.spawn(waiter(), name="w", core=0)
        eng.run(until=lambda: bool(box))
        t0 = eng.now
        m.scheduler.wake(box.pop(), delay_ns=400)
        eng.run(until=lambda: t.done)
        assert eng.now >= t0 + 400

    def test_wake_non_blocked_rejected(self):
        eng, m = make_machine()

        def work():
            yield Delay(10)

        t = m.scheduler.spawn(work(), name="w")
        from repro.sim.errors import SimProtocolError

        with pytest.raises(SimProtocolError):
            m.scheduler.wake(t)

    def test_wake_done_thread_is_noop(self):
        eng, m = make_machine()

        def work():
            yield Delay(1)

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        m.scheduler.wake(t)  # no raise

    def test_core_freed_while_blocked(self):
        eng, m = make_machine()
        box = []

        def waiter():
            yield Block(queue=box)

        def other():
            yield Delay(100)
            return "ran"

        tw = m.scheduler.spawn(waiter(), name="w", core=0, bound=True)
        eng.run(until=lambda: bool(box))
        to = m.scheduler.spawn(other(), name="o", core=0, bound=True)
        eng.run(until=lambda: to.done)
        assert to.result == "ran"
        assert not tw.done


class TestSleep:
    def test_timed_sleep_elapses(self):
        eng, m = make_machine()

        def sleeper():
            full = yield Sleep(500)
            return full

        t = m.scheduler.spawn(sleeper(), name="s")
        eng.run(until=lambda: t.done)
        assert t.result is True
        assert eng.now == 500

    def test_kick_interrupts_sleep(self):
        eng, m = make_machine()

        def sleeper():
            full = yield Sleep(10_000)
            return full

        t = m.scheduler.spawn(sleeper(), name="s")
        eng.run(until=lambda: t.state is ThreadState.SLEEPING)
        m.scheduler.kick(t)
        eng.run(until=lambda: t.done)
        assert t.result is False
        assert eng.now < 10_000

    def test_infinite_sleep_requires_kick(self):
        eng, m = make_machine()

        def sleeper():
            yield Sleep(None)
            return "woke"

        t = m.scheduler.spawn(sleeper(), name="s")
        eng.run(until=lambda: t.state is ThreadState.SLEEPING)
        assert eng.pending() == 0
        m.scheduler.kick(t)
        eng.run(until=lambda: t.done)
        assert t.result == "woke"

    def test_kick_non_sleeping_is_noop(self):
        eng, m = make_machine()

        def work():
            yield Delay(10)

        t = m.scheduler.spawn(work(), name="w")
        m.scheduler.kick(t)  # READY, not sleeping: no-op
        eng.run(until=lambda: t.done)

    def test_sleep_frees_core(self):
        eng, m = make_machine()

        def sleeper():
            yield Sleep(1_000)

        def worker():
            yield Delay(100)
            return eng.now

        ts = m.scheduler.spawn(sleeper(), name="s", core=0, bound=True)
        tw = m.scheduler.spawn(worker(), name="w", core=0, bound=True)
        eng.run(until=lambda: ts.done and tw.done)
        # worker ran during the sleep, not after it
        assert tw.result <= 1_000


class TestJoin:
    def test_join_returns_result(self):
        eng, m = make_machine()

        def child():
            yield Delay(200)
            return "payload"

        def parent():
            c = m.scheduler.spawn(child(), name="c", core=1)
            value = yield from m.scheduler.join(c)
            return value

        t = m.scheduler.spawn(parent(), name="p", core=0)
        eng.run(until=lambda: t.done)
        assert t.result == "payload"

    def test_join_already_done(self):
        eng, m = make_machine()

        def child():
            yield Delay(1)
            return 7

        c = m.scheduler.spawn(child(), name="c")
        eng.run(until=lambda: c.done)

        def parent():
            value = yield from m.scheduler.join(c)
            return value

        t = m.scheduler.spawn(parent(), name="p")
        eng.run(until=lambda: t.done)
        assert t.result == 7


class TestIdleLoop:
    def test_idle_thread_spawned_per_core(self):
        _, m = make_machine()
        m.enable_idle_loops()
        assert all(c.idle_thread is not None for c in m.cores)

    def test_enable_idle_loops_idempotent(self):
        _, m = make_machine()
        m.enable_idle_loops()
        m.enable_idle_loops()

    def test_idle_hook_runs_when_core_idle(self):
        eng, m = make_machine()
        hits = []

        def hook(core):
            hits.append(core.index)
            yield Delay(10, "poll")
            return False

        m.hooks.register_idle(hook)
        m.enable_idle_loops(cores=[3])
        eng.run(until=lambda: len(hits) >= 1, max_time=1_000_000)
        assert hits and hits[0] == 3

    def test_idle_parks_without_demand(self):
        eng, m = make_machine()
        hits = []

        def hook(core):
            hits.append(eng.now)
            yield Delay(10, "poll")
            return False

        m.hooks.register_idle(hook)
        m.enable_idle_loops(cores=[0])
        eng.run(until=lambda: len(hits) >= 1, max_time=1_000_000)
        # no demand provider: after one fruitless pass the idle thread parks
        eng.run(until=lambda: m.cores[0].idle_thread.state is ThreadState.SLEEPING)
        assert eng.pending() == 0

    def test_idle_keeps_polling_under_demand(self):
        eng, m = make_machine()
        hits = []
        demand_on = [True]

        def hook(core):
            hits.append(eng.now)
            yield Delay(10, "poll")
            return False

        m.hooks.register_idle(hook)
        m.hooks.register_demand(lambda: demand_on[0])
        m.enable_idle_loops(cores=[0])
        eng.run(until=lambda: len(hits) >= 5, max_time=1_000_000)
        assert len(hits) >= 5

    def test_real_thread_preempts_idle(self):
        eng, m = make_machine()

        def hook(core):
            yield Delay(50, "poll")
            return True  # always busy polling

        m.hooks.register_idle(hook)
        m.enable_idle_loops(cores=[0])
        eng.run(until=lambda: eng.now >= 500, max_time=1_000_000)

        def work():
            yield Delay(10)
            return eng.now

        t = m.scheduler.spawn(work(), name="w", core=0, bound=True)
        eng.run(until=lambda: t.done, max_time=1_000_000)
        # the idle loop let the real thread in promptly (within a hook pass
        # plus switch costs)
        assert t.result - 500 < 2_000

    def test_shutdown_stops_idle_loops(self):
        eng, m = make_machine()
        m.hooks.register_demand(lambda: True)

        def hook(core):
            yield Delay(10, "poll")
            return False

        m.hooks.register_idle(hook)
        m.enable_idle_loops()
        eng.run(until=lambda: eng.now > 1_000, max_time=1_000_000)
        m.shutdown()
        assert eng.run() == "drained"


class TestSpinDeadlockDetection:
    def test_bound_same_core_spin_detected(self):
        from repro.sim import Acquire, SpinLock

        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def holder():
            yield Acquire(lock)
            yield Delay(10_000)

        def contender():
            yield Acquire(lock)

        m.scheduler.spawn(holder(), name="h", core=0, bound=True)
        m.scheduler.spawn(contender(), name="c", core=0, bound=True)
        with pytest.raises(SimDeadlock):
            eng.run(until=lambda: False, max_time=1_000_000)

    def test_self_reacquire_detected(self):
        from repro.sim import Acquire, SpinLock

        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def bad():
            yield Acquire(lock)
            yield Acquire(lock)

        m.scheduler.spawn(bad(), name="b", core=0)
        with pytest.raises(SimDeadlock):
            eng.run(until=lambda: False, max_time=1_000_000)


class TestQuietNaps:
    """Idle loops on quiet cores take one engine event per nap.  A no-op
    idle hook on every core makes no core quiet, so every nap runs event
    by event: the reference.  Whatever happens at whatever instant of a
    nap — a kick, a thread enqueued on the core, shutdown, a busy-time
    read, each queued before or after that instant's other events — the
    two runs must agree on everything the simulation reports."""

    CYCLE = 220  # idle_tick_ns + idle_loop_ns

    @staticmethod
    def _machine(busy_cores):
        """A demand-driven quad Xeon with a no-op idle hook on
        ``busy_cores`` (None: all)."""
        eng, m = make_machine()
        m.hooks.register_demand(lambda: True)

        def noop(core):
            return False
            yield  # pragma: no cover - generator marker

        m.hooks.register_idle(noop, cores=busy_cores)
        m.enable_idle_loops()
        return eng, m

    @staticmethod
    def _run(action, at, late, busy_cores, queued_at=None):
        """``queued_at``: when the heap event at ``at`` is scheduled
        (None: before the run starts)."""
        from repro.sim.trace import Tracer

        eng, m = TestQuietNaps._machine(busy_cores)
        m.attach_tracer(Tracer())
        reads = []

        def work():
            yield Delay(50)
            return eng.now

        def act():
            if action == "kick":
                m.scheduler.poke_idle()
            elif action == "enqueue":
                m.scheduler.spawn(work(), name="w", core=2, bound=True)
            elif action == "shutdown":
                m.shutdown()
            reads.append((eng.now, m.utilization()))

        # late: queued from a delay-0 event, after every heap event of `at`
        event = (at, eng.call_after, 0, act) if late else (at, act)
        if queued_at is None:
            eng.call_at(*event)
        else:
            eng.call_at(queued_at, eng.call_at, *event)
        stop = []
        eng.call_at(at + 2 * TestQuietNaps.CYCLE + 7, stop.append, 1)
        eng.run(until=lambda: bool(stop))
        reads.append((eng.now, m.utilization()))
        m.shutdown()
        eng.run()
        reads.append((eng.now, m.utilization(), m.scheduler.ctx_switches))
        # a nap's pass records are written by its one event, after other
        # cores' records of the same instants: compare each core's records
        per_core: dict = {}
        for event in m.tracer.events:
            per_core.setdefault(event.core, []).append(event)
        return reads, per_core, eng.events_run

    def _sweep(self, action, late, busy_cores, during_nap):
        # the idle loops settle into naps by t=300; cover a whole nap cycle
        # nanosecond by nanosecond, with every core quiet or with two
        # cores napping event by event beside the quiet ones
        for at in range(1_000, 1_000 + self.CYCLE + 3):
            queued_at = at - 1 if during_nap else None
            quiet = self._run(action, at, late, busy_cores, queued_at)
            ref = self._run(action, at, late, None, queued_at)
            assert quiet[:2] == ref[:2], f"{action} at {at} (late={late})"
            assert quiet[2] < ref[2]

    @pytest.mark.parametrize("action", ["kick", "enqueue", "shutdown", "read"])
    @pytest.mark.parametrize("late", [False, True])
    @pytest.mark.parametrize("busy_cores", [(), (0, 1)])
    def test_matches_event_by_event_naps(self, action, late, busy_cores):
        self._sweep(action, late, busy_cores, during_nap=False)

    @pytest.mark.parametrize("action", ["kick", "enqueue", "shutdown", "read"])
    @pytest.mark.parametrize("late", [False, True])
    @pytest.mark.parametrize("busy_cores", [(), (0, 1)])
    def test_matches_event_by_event_naps_queued_during_the_nap(
        self, action, late, busy_cores
    ):
        # the action's heap event is scheduled 1 ns before it, after the
        # nap it falls in began: after that nap's wake-up at its end
        self._sweep(action, late, busy_cores, during_nap=True)

    @staticmethod
    def _utilization_at(busy_cores, plan, read_at):
        """Run ``plan(eng, m)`` and read ``utilization()`` at ``read_at``."""
        eng, m = TestQuietNaps._machine(busy_cores)
        plan(eng, m)
        stop = []
        eng.call_at(read_at, stop.append, 1)
        eng.run(until=lambda: bool(stop))
        return m.utilization()

    def test_realized_queued_nap_dispatches_in_its_place(self):
        """A nap realized after its wake-up and before its dispatch gets
        that dispatch at its own place in the now bucket: before the
        entries queued by events that sort after the wake-up."""
        reads = {}

        def plan(key):
            def run(eng, m):
                def work():
                    yield Delay(50)

                def spawn():
                    # unbound: placement realizes every nap
                    m.scheduler.spawn(work(), name="w")

                def read():
                    reads[key] = m.utilization()

                # 1100 is a nap end; the spawn's heap event sorts before
                # that nap's wake-up, the read's after it
                eng.call_at(880, eng.call_at, 1100, eng.call_after, 0, spawn)
                eng.call_at(1080, eng.call_at, 1100, eng.call_after, 0, read)

            return run

        self._utilization_at((), plan("quiet"), 1200)
        self._utilization_at(None, plan("ref"), 1200)
        assert reads["ref"] == {
            0: {"idle": 100, "ctxswitch": 375},
            1: {"idle": 120},
            2: {"idle": 120},
            3: {"idle": 120},
        }
        assert reads["quiet"] == reads["ref"]

    @pytest.mark.xfail(
        strict=True,
        reason="a pass end filed as of its nap's end sorts after every "
        "ordinary event scheduled at that instant",
    )
    def test_follow_up_scheduled_at_the_nap_end(self):
        """An event scheduled at a nap's end, after the skipped dispatch,
        for the pass end instant runs after the pass end step by step."""

        def plan(eng, m):
            # 1760 is a nap end; the poke comes 20 ns later, at the pass end
            eng.call_at(
                1760, eng.call_after, 0, eng.call_after, 0,
                eng.call_after, 20, m.scheduler.poke_idle, 3,
            )

        ref = self._utilization_at(None, plan, 1816)
        assert ref[3] == {"idle": 200}
        assert self._utilization_at((), plan, 1816) == ref
