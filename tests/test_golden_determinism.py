"""Golden determinism snapshots: same seed → byte-identical JSON.

Every hot-path optimisation (engine queue layout, effect-object reuse,
PIOMan reap batching, driver fast paths) must change *host* CPU cost only —
never simulated behaviour.  These tests pin that contract with SHA-256
hashes of fully-rendered result JSON: one figure sweep and one
application-level workload scenario, each checked across worker counts
(the parallel sweep runner must not influence results either).

If an intentional modelling change shifts the outputs, regenerate the
hashes with::

    PYTHONPATH=src python -c "
    import hashlib
    from repro.bench.figures import FIGURES
    from repro.workloads.matrix import run_scenario
    rs, _ = FIGURES['fig3'](True)
    print('fig3   ', hashlib.sha256(rs.to_json().encode()).hexdigest())
    rs = run_scenario('stencil', quick=True)
    print('stencil', hashlib.sha256(rs.to_json().encode()).hexdigest())"

and say so in the commit message — a silent hash change is a determinism
bug by definition.

:class:`TestWorkCounters` pins the engine's event count for the pingpong
and stencil workloads the same way.  The count is the host work behind a
result, exact and independent of machine load, so a change that adds or
removes engine events (skipping empty polls, say) shows up here as a
reviewed number, not as wall-clock noise.  Regenerate with ``bed.engine.events_run`` after
the same calls as the tests, and say so in the commit message.
"""

import hashlib

import pytest

from repro.bench.figures import FIGURES
from repro.bench.pingpong import run_pingpong
from repro.core.session import build_testbed
from repro.workloads.matrix import run_scenario
from repro.workloads.stencil import run_stencil

#: SHA-256 of ResultSet.to_json() for the fig3 locking sweep, --quick
FIG3_QUICK_SHA256 = "982855684400e57ba61667d8ee1ba42dd19d628b01fd46039a97c0f78aa5a6b1"
#: SHA-256 of ResultSet.to_json() for the stencil scenario, --quick
STENCIL_QUICK_SHA256 = (
    "d7125235c6f0f9a25232269d4c03e35c1882e997d3e068d7f1ba9546b21c975a"
)
#: engine events of a 1 KiB pingpong (200 iterations + 4 warm-up) per policy
PINGPONG_EVENTS = {"none": 13294, "coarse": 19487, "fine": 15856}
#: engine events of the fine/busy/inline stencil, 6 steps of 4 KiB halos
STENCIL_EVENTS = 1765


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestFigureGolden:
    def test_fig3_quick_matches_snapshot(self):
        result_set, _checks = FIGURES["fig3"](True)
        assert _sha256(result_set.to_json()) == FIG3_QUICK_SHA256

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fig3_quick_workers_invariant(self, workers):
        result_set, _checks = FIGURES["fig3"](True, workers=workers)
        assert _sha256(result_set.to_json()) == FIG3_QUICK_SHA256


class TestIncrementalCacheGolden:
    """Acceptance: the golden hashes hold cold, warm, and at any worker
    count *with the incremental point cache enabled* — replayed points
    are byte-identical to computed ones."""

    def test_fig3_quick_cold_warm_and_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        cold, _checks = FIGURES["fig3"](True)
        assert cold.digest() == FIG3_QUICK_SHA256
        for workers in (1, 4, 8):
            warm, _checks = FIGURES["fig3"](True, workers=workers)
            assert warm.digest() == FIG3_QUICK_SHA256, f"workers={workers}"

    def test_stencil_quick_cold_warm_and_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        cold = run_scenario("stencil", quick=True)
        assert cold.digest() == STENCIL_QUICK_SHA256
        for workers in (1, 4, 8):
            warm = run_scenario("stencil", quick=True, workers=workers)
            assert warm.digest() == STENCIL_QUICK_SHA256, f"workers={workers}"


class TestWorkloadGolden:
    def test_stencil_quick_matches_snapshot(self):
        result_set = run_scenario("stencil", quick=True)
        assert _sha256(result_set.to_json()) == STENCIL_QUICK_SHA256

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stencil_quick_workers_invariant(self, workers):
        result_set = run_scenario("stencil", quick=True, workers=workers)
        assert _sha256(result_set.to_json()) == STENCIL_QUICK_SHA256


class TestWorkCounters:
    @pytest.mark.parametrize("policy", sorted(PINGPONG_EVENTS))
    def test_pingpong_events(self, policy):
        bed = build_testbed(policy=policy)
        run_pingpong(bed, 1024, iterations=200, warmup=4)
        assert bed.engine.events_run == PINGPONG_EVENTS[policy]

    def test_stencil_events(self):
        run = run_stencil("fine/busy/inline", steps=6, halo_bytes=4096)
        assert run.events_run == STENCIL_EVENTS
