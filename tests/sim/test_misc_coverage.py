"""Coverage for smaller sim/net surfaces: fabric stats, hook registry
management, engine edge cases, cost scaling."""

import pytest

from repro.net import Fabric, MXDriver, wire_pair
from repro.sim import (
    Delay,
    Engine,
    Machine,
    SimCosts,
    quad_xeon_x5460,
)
from repro.sim.hooks import HookRegistry


class TestFabric:
    def test_links_and_traffic(self):
        eng = Engine()
        a = Machine(eng, name="A")
        b = Machine(eng, name="B")
        fabric = Fabric()
        da, db = wire_pair(fabric, a, b, MXDriver)
        assert len(fabric.links) == 1
        assert fabric.total_traffic_bytes() == 0

        class P:
            wire_size = 100
            host_copy_bytes = 0

        da.nic.inject(P(), 100)
        eng.run()
        assert fabric.total_traffic_bytes() == 100

    def test_links_list_is_copy(self):
        fabric = Fabric()
        fabric.links.append("junk")  # mutating the copy
        assert fabric.links == []


class TestHookRegistry:
    def test_unregister_idle(self):
        reg = HookRegistry()

        def hook(core):
            yield Delay(1)

        reg.register_idle(hook)
        assert reg.has_idle_hooks
        reg.unregister_idle(hook)
        assert not reg.has_idle_hooks

    def test_unregister_missing_raises(self):
        reg = HookRegistry()
        with pytest.raises(ValueError):
            reg.unregister_idle(lambda core: iter([]))

    def test_inline_hooks_kinds(self):
        reg = HookRegistry()

        def hook(core):
            yield Delay(1)

        reg.register_timer(hook)
        reg.register_ctx_switch(hook)
        assert reg.inline_hooks("timer") == [hook]
        assert reg.inline_hooks("ctx_switch") == [hook]
        with pytest.raises(ValueError):
            reg.inline_hooks("coffee")

    def test_quiet_cores_follow_registration_and_arming(self):
        reg = HookRegistry()

        def hook(core):
            yield Delay(1)

        def softirq(core):
            yield Delay(1)

        assert reg.quiet(0)
        reg.register_idle(hook, cores=[1])
        reg.register_idle(softirq, cores=())
        assert reg.quiet(0) and not reg.quiet(1)
        reg.arm_idle(softirq, 0)
        reg.arm_idle(softirq, 0)  # idempotent
        assert not reg.quiet(0)
        reg.disarm_idle(softirq, 0)
        assert reg.quiet(0)
        reg.unregister_idle(hook)
        assert reg.quiet(1)
        reg.register_idle(hook)  # every core
        assert not reg.quiet(0) and not reg.quiet(3)

    def test_run_idle_skips_hooks_not_on_the_core(self):
        reg = HookRegistry()
        ran = []

        def hook(core):
            ran.append(core.index)
            return True
            yield  # pragma: no cover - generator marker

        reg.register_idle(hook, cores=[1])

        class FakeCore:
            def __init__(self, index):
                self.index = index

        for index in (0, 1):
            gen = reg.run_idle(FakeCore(index))
            with pytest.raises(StopIteration) as stop:
                next(gen)
            assert stop.value.value is (index == 1)
        assert ran == [1]

    def test_demand_empty_false(self):
        assert HookRegistry().idle_demand() is False

    def test_demand_any(self):
        reg = HookRegistry()
        reg.register_demand(lambda: False)
        reg.register_demand(lambda: True)
        assert reg.idle_demand() is True


class TestEngineEdges:
    def test_call_at_now_allowed(self):
        eng = Engine()
        fired = []
        eng.call_at(0, fired.append, 1)
        eng.run()
        assert fired == [1]

    def test_handle_repr(self):
        eng = Engine()
        h = eng.schedule(5, lambda: None)
        assert "pending" in repr(h)
        h.cancel()
        assert "cancelled" in repr(h)

    def test_events_interleave_across_machines(self):
        """Two machines share one clock."""
        eng = Engine()
        a = Machine(eng, quad_xeon_x5460(), name="A")
        b = Machine(eng, quad_xeon_x5460(), name="B")
        order = []

        def work(tag, ns):
            yield Delay(ns)
            order.append(tag)

        ta = a.scheduler.spawn(work("a", 200), name="a", core=0)
        tb = b.scheduler.spawn(work("b", 100), name="b", core=0)
        eng.run(until=lambda: ta.done and tb.done)
        assert order == ["b", "a"]


class TestSimCostsScaling:
    def test_all_scaled_fields(self):
        base = SimCosts()
        doubled = base.scaled(2.0)
        assert doubled.spin_acquire_ns == 2 * base.spin_acquire_ns
        assert doubled.ctx_switch_ns == 2 * base.ctx_switch_ns
        assert doubled.wake_latency_ns == 2 * base.wake_latency_ns
        assert doubled.tasklet_invoke_ns == 2 * base.tasklet_invoke_ns
        assert doubled.spawn_ns == 2 * base.spawn_ns

    def test_zero_scale(self):
        zeroed = SimCosts().scaled(0)
        assert zeroed.spin_cycle_ns == 0
        assert zeroed.block_roundtrip_ns == 0


class TestMachineRepr:
    def test_reprs_do_not_crash(self):
        eng = Engine()
        m = Machine(eng, quad_xeon_x5460(), name="X")
        assert "X" in repr(m)
        assert "X" in repr(m.cores[0])

    def test_core_accessor(self):
        m = Machine(Engine(), quad_xeon_x5460())
        assert m.core(2) is m.cores[2]
        with pytest.raises(IndexError):
            m.core(9)
