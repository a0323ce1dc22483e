"""Unit tests for simulated synchronisation primitives."""

import pytest

from repro.sim import (
    Acquire,
    Completion,
    Condition,
    Delay,
    Engine,
    Machine,
    NullLock,
    Release,
    Semaphore,
    SpinLock,
    ThreadState,
    TryAcquire,
    quad_xeon_x5460,
    with_lock,
)
from repro.sim.errors import SimProtocolError


def make_machine():
    eng = Engine()
    return eng, Machine(eng, quad_xeon_x5460())


class TestSpinLockCosts:
    def test_uncontended_cycle_costs_70ns(self):
        """Paper §3.1: each acquire/release cycle costs 70 ns."""
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def work():
            yield Acquire(lock)
            yield Release(lock)

        t = m.scheduler.spawn(work(), name="w", core=0)
        eng.run(until=lambda: t.done)
        assert eng.now == 70
        assert m.cores[0].busy_ns("lock") == 70

    def test_acquisition_stats(self):
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def work():
            for _ in range(3):
                yield Acquire(lock)
                yield Release(lock)

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert lock.acquisitions == 3
        assert lock.contentions == 0

    def test_contention_spins_actively(self):
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def holder():
            yield Acquire(lock)
            yield Delay(1_000)
            yield Release(lock)

        def contender():
            yield Acquire(lock)
            yield Release(lock)
            return eng.now

        th = m.scheduler.spawn(holder(), name="h", core=0, bound=True)
        tc = m.scheduler.spawn(contender(), name="c", core=1, bound=True)
        eng.run(until=lambda: th.done and tc.done)
        assert lock.contentions == 1
        # contender burned spin time on core 1 while waiting
        assert m.cores[1].busy_ns("spin") > 0
        # and got the lock right after the holder released it
        assert tc.result == pytest.approx(1_000 + 70 + 70 + m.costs.spin_handoff_ns, abs=40)

    def test_fifo_handoff_order(self):
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)
        order = []

        def holder():
            yield Acquire(lock)
            yield Delay(500)
            yield Release(lock)

        def contender(tag):
            yield Acquire(lock)
            order.append(tag)
            yield Release(lock)

        m.scheduler.spawn(holder(), name="h", core=0, bound=True)
        done = [
            m.scheduler.spawn(contender("first"), name="c1", core=1, bound=True),
        ]
        eng.run(until=lambda: eng.now >= 100)
        done.append(m.scheduler.spawn(contender("second"), name="c2", core=2, bound=True))
        eng.run(until=lambda: all(t.done for t in done))
        assert order == ["first", "second"]

    def test_release_by_non_owner_rejected(self):
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def bad():
            yield Release(lock)

        m.scheduler.spawn(bad(), name="b")
        with pytest.raises(Exception):
            eng.run(until=lambda: False, max_time=1_000)


class TestNullLock:
    def test_free_and_instant(self):
        eng, m = make_machine()
        lock = NullLock()

        def work():
            yield Acquire(lock)
            yield Release(lock)

        t = m.scheduler.spawn(work(), name="w", core=0)
        eng.run(until=lambda: t.done)
        assert eng.now == 0
        assert m.cores[0].busy_ns() == 0

    def test_no_mutual_exclusion(self):
        eng, m = make_machine()
        lock = NullLock()

        def work():
            yield Acquire(lock)
            yield Delay(100)
            yield Release(lock)

        t1 = m.scheduler.spawn(work(), name="a", core=0, bound=True)
        t2 = m.scheduler.spawn(work(), name="b", core=1, bound=True)
        eng.run(until=lambda: t1.done and t2.done)
        assert eng.now == 100  # both proceeded concurrently


class TestTryAcquire:
    def test_success_on_free_lock(self):
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def work():
            got = yield TryAcquire(lock)
            if got:
                yield Release(lock)
            return got

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert t.result is True

    def test_failure_on_held_lock(self):
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def holder():
            yield Acquire(lock)
            yield Delay(10_000)
            yield Release(lock)

        def trier():
            got = yield TryAcquire(lock)
            return got

        m.scheduler.spawn(holder(), name="h", core=0, bound=True)
        eng.run(until=lambda: lock.held)
        t = m.scheduler.spawn(trier(), name="t", core=1, bound=True)
        eng.run(until=lambda: t.done)
        assert t.result is False

    def test_null_lock_always_succeeds(self):
        eng, m = make_machine()

        def work():
            got = yield TryAcquire(NullLock())
            return got

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert t.result is True


class TestWithLock:
    def test_wraps_body(self):
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def body():
            assert lock.held
            yield Delay(10)
            return "inner"

        def work():
            result = yield from with_lock(lock, body())
            assert not lock.held
            return result

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert t.result == "inner"


class TestSemaphore:
    def test_wait_on_positive_is_fast(self):
        eng, m = make_machine()
        sem = Semaphore(m, value=1)

        def work():
            yield from sem.wait()
            return eng.now

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert t.result == m.costs.sem_fast_ns
        assert sem.value == 0

    def test_wait_blocks_then_signal_wakes(self):
        eng, m = make_machine()
        sem = Semaphore(m, value=0)

        def waiter():
            yield from sem.wait()
            return eng.now

        def signaler():
            yield Delay(1_000)
            yield from sem.signal()

        tw = m.scheduler.spawn(waiter(), name="w", core=0, bound=True)
        m.scheduler.spawn(signaler(), name="s", core=1, bound=True)
        eng.run(until=lambda: tw.done)
        assert tw.result >= 1_000

    def test_signal_without_waiter_increments(self):
        eng, m = make_machine()
        sem = Semaphore(m, value=0)

        def signaler():
            yield from sem.signal(2)

        t = m.scheduler.spawn(signaler(), name="s")
        eng.run(until=lambda: t.done)
        assert sem.value == 2

    def test_post_from_event_context(self):
        eng, m = make_machine()
        sem = Semaphore(m, value=0)

        def waiter():
            yield from sem.wait()
            return "woke"

        t = m.scheduler.spawn(waiter(), name="w")
        eng.run(until=lambda: t.state is ThreadState.BLOCKED)
        eng.schedule(100, sem.post)
        eng.run(until=lambda: t.done)
        assert t.result == "woke"

    def test_try_wait(self):
        eng, m = make_machine()
        sem = Semaphore(m, value=1)
        results = []

        def work():
            results.append((yield from sem.try_wait()))
            results.append((yield from sem.try_wait()))

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert results == [True, False]

    def test_negative_initial_value_rejected(self):
        _, m = make_machine()
        with pytest.raises(ValueError):
            Semaphore(m, value=-1)

    def test_fifo_wakeups(self):
        eng, m = make_machine()
        sem = Semaphore(m, value=0)
        order = []

        def waiter(tag):
            yield from sem.wait()
            order.append(tag)

        t1 = m.scheduler.spawn(waiter("a"), name="a", core=0, bound=True)
        eng.run(until=lambda: t1.state is ThreadState.BLOCKED)
        t2 = m.scheduler.spawn(waiter("b"), name="b", core=1, bound=True)
        eng.run(until=lambda: t2.state is ThreadState.BLOCKED)
        sem.post(2)
        eng.run(until=lambda: t1.done and t2.done)
        assert order == ["a", "b"]


class TestCondition:
    def test_wait_releases_and_reacquires_lock(self):
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)
        cond = Condition(m, lock)
        seen = []

        def waiter():
            yield Acquire(lock)
            yield from cond.wait()
            seen.append("woke-holding-lock" if lock.held else "woke-without-lock")
            yield Release(lock)

        def notifier():
            yield Delay(500)
            yield Acquire(lock)
            cond.notify()
            yield Release(lock)

        tw = m.scheduler.spawn(waiter(), name="w", core=0, bound=True)
        m.scheduler.spawn(notifier(), name="n", core=1, bound=True)
        eng.run(until=lambda: tw.done)
        assert seen == ["woke-holding-lock"]

    def test_notify_all(self):
        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)
        cond = Condition(m, lock)
        woke = []

        def waiter(tag, core):
            yield Acquire(lock)
            yield from cond.wait()
            woke.append(tag)
            yield Release(lock)

        ts = [
            m.scheduler.spawn(waiter(i, i), name=f"w{i}", core=i, bound=True)
            for i in range(3)
        ]
        eng.run(until=lambda: len(cond.waiters) == 3)
        cond.notify_all()
        eng.run(until=lambda: all(t.done for t in ts))
        assert sorted(woke) == [0, 1, 2]


class TestCompletion:
    def test_wait_then_fire(self):
        eng, m = make_machine()
        comp = Completion(m)

        def waiter():
            value = yield from comp.wait()
            return value

        t = m.scheduler.spawn(waiter(), name="w", core=0, bound=True)
        eng.run(until=lambda: t.state is ThreadState.BLOCKED)
        eng.schedule(100, comp.fire, "payload")
        eng.run(until=lambda: t.done)
        assert t.result == "payload"

    def test_fire_before_wait(self):
        eng, m = make_machine()
        comp = Completion(m)
        comp.fire("early")

        def waiter():
            value = yield from comp.wait()
            return value

        t = m.scheduler.spawn(waiter(), name="w")
        eng.run(until=lambda: t.done)
        assert t.result == "early"

    def test_double_fire_rejected(self):
        _, m = make_machine()
        comp = Completion(m)
        comp.fire()
        with pytest.raises(SimProtocolError):
            comp.fire()

    def test_cross_core_wake_pays_transfer_cost(self):
        """Fig. 8 mechanism: completion from core 2 to a waiter on core 0
        costs the no-shared-cache transfer (1.2 us on the quad Xeon)."""
        eng, m = make_machine()
        comp = Completion(m)

        def waiter():
            yield from comp.wait()
            return eng.now

        t = m.scheduler.spawn(waiter(), name="w", core=0, bound=True)
        eng.run(until=lambda: t.state is ThreadState.BLOCKED)
        fire_at = eng.now + 100

        def do_fire():
            comp.fire(core=2)

        eng.call_at(fire_at, do_fire)
        eng.run(until=lambda: t.done)
        assert t.result >= fire_at + 1_200

    def test_same_l2_wake_cheaper(self):
        eng, m = make_machine()
        comp = Completion(m)

        def waiter():
            yield from comp.wait()
            return eng.now

        t = m.scheduler.spawn(waiter(), name="w", core=0, bound=True)
        eng.run(until=lambda: t.state is ThreadState.BLOCKED)
        fire_at = eng.now + 100
        eng.call_at(fire_at, lambda: comp.fire(core=1))
        eng.run(until=lambda: t.done)
        assert fire_at + 400 <= t.result < fire_at + 1_200

    def test_visibility_delay_for_busy_waiters(self):
        eng, m = make_machine()
        comp = Completion(m)
        comp.fire(core=2)
        # immediately after firing, core 0 does not see it yet
        assert not comp.visible(0)
        assert comp.visible(2)
        # after the transfer delay it becomes visible
        eng.schedule(1_200, lambda: None)
        eng.run()
        assert comp.visible(0)

    def test_visibility_without_core_is_immediate(self):
        _, m = make_machine()
        comp = Completion(m)
        comp.fire()
        assert comp.visible(0) and comp.visible(3)
