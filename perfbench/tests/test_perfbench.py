"""Tests of the benchmark itself: layer map, attribution, statistics,
claim fidelity, the Amdahl fit, the output check and the counter hook.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
import statistics

import pytest

from perfbench import analysis
from perfbench.run import GOLDEN, Checker
from perfbench.session import CounterHook

SRC = os.path.join(os.path.dirname(GOLDEN), os.pardir, "src", "repro")


def _modules():
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                yield analysis.module_of(os.path.join(dirpath, name))


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = list(_modules())
    assert len(modules) > 80
    for module in modules:
        assert module is not None
        assert analysis.layer_of_module(module) in (*analysis.LAYERS, "rt"), module


@pytest.mark.parametrize(
    "module, layer",
    [
        ("repro.sim.engine", "sim.engine"),
        ("repro.sim.scheduler", "sim.scheduler"),
        ("repro.sim.process", "sim.scheduler"),
        ("repro.sim.machine", "sim.scheduler"),
        ("repro.sim.hooks", "sim.scheduler"),
        ("repro.sim.timer", "sim.scheduler"),
        ("repro.sim.tasklet", "sim.scheduler"),
        ("repro.sim.sync", "sim.sync"),
        ("repro.sim.trace", "obs"),
        ("repro.obs.chrometrace", "obs"),
        ("repro.core.library", "core"),
        ("repro.pioman.manager", "pioman"),
        ("repro.net.drivers.mx", "net"),
        ("repro.madmpi.mpi", "madmpi"),
        ("repro.workloads.stencil", "workloads"),
        ("repro.bench.figures", "bench"),
        ("repro.bench.runner", "bench"),
        ("repro.bench.cache", "bench.cache"),
        ("repro.bench.parallel", "bench.parallel"),
        ("repro.rt.engine", "rt"),
        ("repro", "bench"),
    ],
)
def test_layer_assignments(module, layer):
    assert analysis.layer_of_module(module) == layer


def test_module_of_paths():
    assert analysis.module_of("/x/src/repro/sim/engine.py") == "repro.sim.engine"
    assert analysis.module_of("/x/src/repro/obs/__init__.py") == "repro.obs"
    assert analysis.module_of("/usr/lib/python3.11/heapq.py") is None
    assert analysis.module_of("~") is None


ENGINE = ("/s/repro/sim/engine.py", 10, "run")
CORE = ("/s/repro/core/library.py", 20, "progress")
HEAP = ("~", 0, "<built-in method _heapq.heappush>")
DEEP = ("/usr/lib/python3.11/json/encoder.py", 5, "encode")
LEAF = ("~", 0, "<method 'join' of 'str' objects>")
OWN = ("/bench/perfbench/session.py", 30, "run_items")


def _stats():
    # (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
    return {
        OWN: (1, 1, 0.5, 10.0, {}),
        ENGINE: (5, 5, 2.0, 8.0, {OWN: (5, 5, 2.0, 8.0)}),
        CORE: (7, 9, 1.0, 3.0, {ENGINE: (7, 9, 1.0, 3.0)}),
        HEAP: (4, 4, 0.8, 0.8, {ENGINE: (3, 3, 0.6, 0.6), CORE: (1, 1, 0.2, 0.2)}),
        DEEP: (2, 2, 0.4, 0.6, {CORE: (2, 2, 0.4, 0.6)}),
        LEAF: (2, 2, 0.2, 0.2, {DEEP: (2, 2, 0.2, 0.2)}),
    }


def test_attribution_prorates_stdlib_frames_to_their_callers():
    out = analysis.attribute(_stats(), own_prefixes=["/bench/perfbench"])
    self_s = out["self_s"]
    # engine: own 2.0 + 3/4 of the heap pushes; core: own 1.0 + 1/4 of the
    # heap pushes + the json encoder + the str.join it called
    assert self_s["sim.engine"] == pytest.approx(2.0 + 0.6)
    assert self_s["core"] == pytest.approx(1.0 + 0.2 + 0.4 + 0.2)
    assert self_s[analysis.UNATTRIBUTED] == pytest.approx(0.5)
    assert sum(self_s.values()) == pytest.approx(4.9)
    assert out["calls"]["sim.engine"] == 5
    assert out["calls"]["core"] == 9
    assert out["total_calls"] == 23


def test_attribution_falls_back_to_call_counts_and_survives_cycles():
    stats = {
        ENGINE: (1, 1, 1.0, 1.0, {}),
        HEAP: (4, 4, 0.4, 0.4, {ENGINE: (1, 1, 0.0, 0.0), CORE: (3, 3, 0.0, 0.0)}),
        CORE: (1, 1, 1.0, 1.0, {}),
        DEEP: (1, 1, 0.3, 0.3, {LEAF: (1, 1, 0.1, 0.1)}),
        LEAF: (1, 1, 0.1, 0.1, {DEEP: (1, 1, 0.1, 0.1)}),
    }
    self_s = analysis.attribute(stats)["self_s"]
    assert self_s["sim.engine"] == pytest.approx(1.1)
    assert self_s["core"] == pytest.approx(1.3)
    assert self_s[analysis.UNATTRIBUTED] == pytest.approx(0.4)


def test_cumulative_s_selects_module_functions():
    stats = {
        ("/s/repro/bench/cache.py", 1, "get"): (2, 2, 0.1, 0.5, {}),
        ("/s/repro/bench/cache.py", 9, "put"): (1, 1, 0.1, 0.25, {}),
        ("/s/repro/obs/capture.py", 3, "get"): (1, 1, 0.1, 9.0, {}),
    }
    assert analysis.cumulative_s(stats, "repro.bench.cache", ("get", "put")) == {
        "get": 0.5, "put": 0.25,
    }


def test_summarize_median_and_iqr():
    values = [5.0, 1.0, 3.0, 2.0, 4.0, 10.0]
    s = analysis.summarize(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert s["median"] == q2 == 3.5
    assert (s["q1"], s["q3"]) == (q1, q3)
    assert s["iqr"] == pytest.approx(q3 - q1)
    assert s["n"] == 6
    one = analysis.summarize([7.0])
    assert (one["median"], one["iqr"], one["n"]) == (7.0, 0.0, 1)
    with pytest.raises(ValueError):
        analysis.summarize([])


def test_claim_error():
    # dead on, half the tolerance away, and a failed claim 2 tolerances off
    claims = [(140, 140, 60), (1.7, 2.0, 0.6), (0.75 + 0.4, 0.75, 0.2)]
    assert analysis.claim_error(claims) == pytest.approx((0 + 0.5 + 2.0) / 3)
    with pytest.raises(ValueError):
        analysis.claim_error([])


def test_amdahl_fit():
    fit = analysis.amdahl(10.0, 6.25, 2)
    assert fit["speedup"] == pytest.approx(1.6)
    assert fit["efficiency"] == pytest.approx(0.8)
    assert fit["serial_fraction"] == pytest.approx(0.25)
    assert analysis.amdahl(10.0, 5.0, 2)["serial_fraction"] == pytest.approx(0.0)
    assert analysis.amdahl(10.0, 10.0, 4)["serial_fraction"] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        analysis.amdahl(10.0, 5.0, 1)


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _lockcost_pass(rs, checks):
    from perfbench.session import _describe

    return {"items": [_describe("figures-cold", "lockcost", rs, checks, None)],
            "cache": {"misses": 0, "stores": 0}}


def test_digest_check_accepts_real_output_and_trips_on_a_perturbed_resultset():
    from repro.bench.figures import FIGURES
    from repro.util.records import ResultRecord, ResultSet

    rs, checks = FIGURES["lockcost"](True, cache=False)
    checker = Checker("figures-cold", _golden())
    checker.check("pass 0", _lockcost_pass(rs, checks))
    assert checker.problems == []
    assert (checker.attempted, checker.failed) == (4, 0)

    records = list(rs)
    first = records[0]
    records[0] = ResultRecord(
        first.experiment, first.config, first.size, first.latency_us * (1 + 1e-12),
        extra=first.extra,
    )
    checker = Checker("figures-cold", _golden())
    checker.check("pass 0", _lockcost_pass(ResultSet(records), checks))
    assert any("lockcost digest" in p for p in checker.problems)


def test_checker_counts_failed_points_and_scenario_drift():
    checker = Checker("workloads-full", _golden())
    item = {"name": "stencil", "error": None, "claims": [], "expected_points": 4,
            "points": 4, "bad_points": 1, "digest": "a"}
    checker.check("pass 0", {"items": [item], "cache": {}})
    checker.check("pass 1", {"items": [{**item, "bad_points": 0, "digest": "b"}],
                             "cache": {}})
    crashed = {"name": "fanin", "error": "Traceback", "claims": [], "expected_points": 6}
    checker.check("pass 2", {"items": [crashed], "cache": {}})
    assert (checker.attempted, checker.failed) == (14, 7)
    assert any("stencil digest changed" in p for p in checker.problems)
    assert any("fanin raised" in f for f in checker.failures)


def test_counter_hook_counts_exactly_and_leaves_outputs_unchanged():
    from repro.bench.figures import FIGURES
    from repro.core.library import NewMadeleine
    from repro.core.session import TestBed

    init, progress = TestBed.__init__, NewMadeleine.progress
    totals = []
    for _ in range(2):
        with CounterHook() as hook:
            rs, _checks = FIGURES["fig3"](True, cache=False)
        assert rs.digest() == _golden()["figures"]["fig3"]["sha256"]
        totals.append(hook.totals)
    assert totals[0] == totals[1]
    assert totals[0]["testbeds"] > 0 and totals[0]["events"] > 0
    assert 0 < totals[0]["useful_passes"] <= totals[0]["progress_passes"]
    assert (TestBed.__init__, NewMadeleine.progress) == (init, progress)


def test_trace_digest_masks_request_ids_only(tmp_path):
    from perfbench.session import trace_digest

    def digest(text):
        path = tmp_path / "t.json"
        path.write_text(text)
        return trace_digest(str(path))

    base = '{"ts": 2.0, "reason": "completion:req5378"}'
    assert digest(base) == digest(base.replace("req5378", "req11906"))
    assert digest(base) != digest(base.replace("2.0", "2.5"))


def test_reference_work_restores_the_collector():
    import gc

    from perfbench.session import reference_work

    assert gc.isenabled()
    assert reference_work() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference_work()
        assert not gc.isenabled()
    finally:
        gc.enable()
