"""Tests for the observation context and metrics registry (repro.obs)."""

import json

from repro.bench.pingpong import run_pingpong
from repro.core import build_testbed
from repro.obs import MetricsRegistry, active, observe
from repro.obs.metrics import MECHANISMS
from repro.sim.machine import BUSY_CATEGORIES


def _traced_pingpong(policy="fine", size=64, iterations=4):
    with observe() as obs:
        bed = build_testbed(policy=policy)
        run_pingpong(bed, size, iterations=iterations, warmup=1)
    return bed, obs


class TestObserveContext:
    def test_active_only_inside_block(self):
        assert active() is None
        with observe() as obs:
            assert active() is obs
        assert active() is None

    def test_nesting_restores_previous(self):
        with observe() as outer:
            with observe() as inner:
                assert active() is inner
            assert active() is outer

    def test_testbed_gets_tracer_attached(self):
        with observe():
            bed = build_testbed(policy="fine")
        assert all(m.tracer is not None for m in bed.machines)

    def test_trace_false_attaches_no_tracer(self):
        with observe(trace=False):
            bed = build_testbed(policy="fine")
        assert all(m.tracer is None for m in bed.machines)

    def test_no_observation_no_tracer(self):
        bed = build_testbed(policy="fine")
        assert all(m.tracer is None for m in bed.machines)

    def test_labels_tag_captures(self):
        with observe() as obs:
            obs.set_label("exp/fine/64")
            build_testbed(policy="fine")
        assert [c["label"] for c in obs.captures()] == ["exp/fine/64"]

    def test_serialize_absorb_roundtrip(self):
        _bed, obs = _traced_pingpong()
        data = obs.serialize()
        with observe() as parent:
            parent.absorb(data, label="relabelled")
        caps = parent.captures()
        assert len(caps) == 1
        assert caps[0]["label"] == "relabelled"
        # absorbed snapshot carries the same machines and events
        assert caps[0]["machines"] == data["captures"][0]["machines"]


class TestMetricsRegistry:
    def test_lock_counts_match_lock_objects(self):
        # the registry keys by lock NAME, so the two nodes' same-named
        # locks (each lib has its own "nm-collect" etc.) merge into one row
        bed, obs = _traced_pingpong()
        reg = obs.metrics_registry()
        expected: dict[str, dict[str, int]] = {}
        for i in range(2):
            for lock in bed.lib(i).policy.lock_objects():
                slot = expected.setdefault(
                    lock.name,
                    {"acquisitions": 0, "contentions": 0, "holds": 0,
                     "hold_ns_total": 0},
                )
                slot["acquisitions"] += lock.acquisitions
                slot["contentions"] += lock.contentions
                slot["holds"] += lock.holds
                slot["hold_ns_total"] += lock.hold_ns_total
        assert expected, "fine policy must expose lock objects"
        for name, want in expected.items():
            row = reg.locks[name]
            for key, value in want.items():
                assert row[key] == value, (name, key)

    def test_hold_stats_sane(self):
        bed, obs = _traced_pingpong()
        reg = obs.metrics_registry()
        for row in reg.locks.values():
            assert 0 <= row["holds"] <= row["acquisitions"]
            assert row["hold_max_ns"] <= row["hold_ns_total"]
            # histogram buckets account for every recorded hold
            assert sum(row["hold_hist"].values()) == row["holds"]

    def test_utilization_covers_cores(self):
        bed, obs = _traced_pingpong()
        reg = obs.metrics_registry()
        names = {m.name for m in bed.machines}
        assert {machine for machine, _ in reg.cores} == names
        for busy in reg.cores.values():
            assert set(busy) <= set(BUSY_CATEGORIES)
            assert all(ns >= 0 for ns in busy.values())
        # the pingpong did real work somewhere
        assert reg.busy_total("poll") + reg.busy_total("compute") > 0

    def test_decomposition_keys_and_lock_total(self):
        _bed, obs = _traced_pingpong()
        reg = obs.metrics_registry()
        decomp = reg.decomposition()
        assert tuple(decomp) == MECHANISMS
        assert decomp["lock"] == reg.busy_total("lock")
        assert decomp["lock"] > 0  # fine policy takes real locks

    def test_merging_two_captures_sums(self):
        _bed1, obs1 = _traced_pingpong()
        caps = obs1.captures()
        single = MetricsRegistry.from_captures(caps)
        double = MetricsRegistry.from_captures(caps + caps)
        assert double.captures == 2 * single.captures
        for name, row in single.locks.items():
            assert double.locks[name]["acquisitions"] == 2 * row["acquisitions"]
        assert double.transfer_ns == 2 * single.transfer_ns

    def test_report_renders_all_sections(self):
        _bed, obs = _traced_pingpong()
        text = obs.metrics_registry().report()
        assert "Lock contention" in text
        assert "Core utilization" in text
        assert "PIOMan progression" in text
        assert "Overhead decomposition" in text
        assert "dropped" not in text  # nothing overflowed

    def test_report_warns_on_dropped_events(self):
        # an active-wait pingpong records only a handful of scheduler
        # events; max_events=2 forces the ring buffers to overflow
        with observe(max_events=2) as obs:
            bed = build_testbed(policy="fine")
            run_pingpong(bed, 8, iterations=3, warmup=1)
        reg = obs.metrics_registry()
        assert reg.dropped_events > 0
        assert "dropped" in reg.report()

    def test_pioman_counters_flow_through(self):
        # PIOMan only progresses when the app yields the core: use passive
        # waiting so the poll loop actually runs
        from repro.core import PassiveWait
        from repro.pioman import attach_pioman

        with observe() as obs:
            bed = build_testbed(policy="fine")
            for node in (0, 1):
                attach_pioman(bed.machine(node), [bed.lib(node)], poll_cores=[0])
            run_pingpong(
                bed, 8, iterations=3, warmup=1, wait_factory=PassiveWait
            )
        reg = obs.metrics_registry()
        assert reg.pioman["poll_passes"] > 0
        assert reg.pioman["registered"] > 0
        assert reg.pioman["bookkeeping_ns"] > 0


class TestJsonRoundTrippedCaptures:
    def test_hist_buckets_merge_as_ints(self):
        """A capture replayed from the JSON point cache has string
        histogram buckets; merged with a live capture it must give the
        same lock table as two live captures."""
        _bed, live_a = _traced_pingpong()
        _bed, live_b = _traced_pingpong()
        replayed = json.loads(json.dumps(live_b.serialize()))["captures"]
        both_live = MetricsRegistry.from_captures(
            live_a.captures() + live_b.captures()
        )
        mixed = MetricsRegistry.from_captures(live_a.captures() + replayed)
        assert any(row["hold_hist"] for row in both_live.locks.values())
        assert mixed.locks == both_live.locks
        assert mixed.lock_table() == both_live.lock_table()
        assert mixed.report() == both_live.report()
