"""Tests for the latency-decomposition instrument."""

import pytest

from repro.analysis.decompose import STAGES, decompose_message
from repro.bench.figures import run_decompose
from repro.net.drivers.mx import MX_MODEL


class TestDecomposeMessage:
    def test_stages_positive_and_sum(self):
        d = decompose_message("none", 8)
        assert d.submit > 0
        assert d.transit > 0
        assert d.detection > 0
        assert d.delivery >= 0
        assert d.total == d.submit + d.transit + d.detection + d.delivery

    def test_transit_matches_link_model(self):
        """Transit = tx occupancy + wire + rx gap, policy-independent."""
        for policy in ("none", "coarse", "fine"):
            d = decompose_message(policy, 8)
            expect = (
                MX_MODEL.tx_occupancy_ns(8 + 40)  # payload + header
                + MX_MODEL.wire_latency_ns
                + MX_MODEL.min_rx_gap_ns
            )
            assert d.transit == expect, policy

    def test_transit_grows_with_size(self):
        small = decompose_message("none", 8)
        big = decompose_message("none", 32 * 1024)
        assert big.transit > small.transit

    def test_locking_taxes_host_stages_not_transit(self):
        none = decompose_message("none", 8)
        fine = decompose_message("fine", 8)
        assert fine.transit == none.transit
        host_none = none.submit + none.detection
        host_fine = fine.submit + fine.detection
        assert host_fine > host_none

    def test_eager_submit_includes_copy(self):
        small = decompose_message("none", 8)
        big = decompose_message("none", 2048)
        copy_ns = MX_MODEL.copy_ns(2048)
        assert big.submit - small.submit >= copy_ns * 0.8

    def test_total_consistent_with_measured_latency(self):
        """The decomposition should land in the neighbourhood of the
        pingpong latency for the same configuration."""
        from repro.bench.pingpong import run_pingpong
        from repro.core import build_testbed

        d = decompose_message("none", 8)
        bed = build_testbed(policy="none")
        lat = run_pingpong(bed, 8, iterations=10, warmup=2).latency_ns
        assert d.total == pytest.approx(lat, rel=0.25)


class TestGrid:
    def test_grid_covers_every_policy_and_stage(self):
        rs = run_decompose((8,))
        assert rs.configs() == [
            f"{policy}/{stage}"
            for policy in ("none", "coarse", "fine")
            for stage in STAGES
        ]
        d = decompose_message("fine", 8)
        for stage in STAGES:
            assert rs.point(f"fine/{stage}", 8) == getattr(d, stage) / 1_000
