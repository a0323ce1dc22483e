"""One measuring process of the benchmark (started by ``run.py``).

Usage::

    python -m perfbench.session setup
    python -m perfbench.session measure|rounds|profile \\
        --workload NAME --seed N --seconds S --workdir DIR

Every mode prints one JSON object as its last line of output.  ``setup``
times a fresh interpreter's way to the first sweep point; ``measure``
runs untraced passes for ``--seconds``; ``rounds`` and ``profile`` give
the per-layer numbers: untraced passes at one and two workers, and one
pass under cProfile with exact work counters.

Passes drive the program only through its public entry points:
``repro.bench.figures.FIGURES``, ``repro.workloads.run_scenario``,
``repro.obs.capture.observe`` and the ``Observation`` it yields.  This
module imports nothing from ``repro`` at import time, so ``setup`` times
the package's imports from scratch.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import heapq
import json
import math
import os
import pstats
import random
import re
import resource
import shutil
import sys
import time
import traceback

from perfbench import analysis

#: the benchmark's workloads (see BENCHMARK.json for why each exists)
WORKLOADS = ("figures-cold", "workloads-full", "figures-traced")

#: the figures ``figures-traced`` records under observation
TRACED_FIGURES = ("fig3", "fig5", "fig7")

_OWN_DIR = os.path.dirname(os.path.abspath(__file__))

#: seconds one :func:`reference_work` call takes at the reference host
#: speed: the median of a minute of calls on an Intel Xeon at 2.1 GHz
#: with Python 3.11.7
REFERENCE_S = 0.023


def reference_work() -> float:
    """Seconds taken by a fixed pure-Python workload shaped like the
    simulator's hot loop: generators resumed in the order of a heap of
    timed events.

    It uses nothing from ``repro``, so it gauges only the host's current
    speed.  On a shared host that speed drifts by a fifth over minutes;
    timings scaled by ``REFERENCE_S / reference_work()``, measured beside
    them, keep about a quarter of that drift.
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection would time the caller's heap, not the host
    t0 = time.perf_counter()
    heap: list = []
    sink: dict = {}

    def process(i: int):
        total = 0
        while True:
            total += yield
            sink[i % 97] = total

    procs = [process(i) for i in range(50)]
    for proc in procs:
        next(proc)
    for n in range(20_000):
        heapq.heappush(heap, (n % 13, n, n % 50))
        if len(heap) > 40:
            procs[heapq.heappop(heap)[2]].send(n)
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


def setup_probe() -> float:
    """Seconds from a bare interpreter to the point where a sweep point can
    run: the package imports, the scenario registry and the package source
    digest the point cache keys on."""
    t0 = time.perf_counter()
    import repro.bench.figures  # noqa: F401
    import repro.obs.capture  # noqa: F401
    import repro.workloads
    from repro.bench import cache

    repro.workloads.names()
    cache.package_digest()
    return time.perf_counter() - t0


def item_order(workload: str, seed: int) -> list[str]:
    """The figures or scenarios one pass runs, in run order.

    The figures' inputs are fixed by the paper, so for the figure workloads
    the seed permutes their order; the scenarios take the seed itself.
    """
    if workload == "workloads-full":
        from repro.workloads import names

        return names()
    from repro.bench.figures import FIGURES

    pool = TRACED_FIGURES if workload == "figures-traced" else sorted(FIGURES)
    return random.Random(seed).sample(list(pool), len(pool))


def _scenario_points(name: str) -> int:
    from repro.workloads import get, mechanism_grid

    sc = get(name)
    return len(mechanism_grid("standard")) * len(sc.variants) * len(sc.sizes)


def run_pass(
    workload: str,
    seed: int,
    cache_dir: str,
    *,
    workers: int = 1,
    observed: bool = True,
    trace_path: str | None = None,
    region=None,
    after_item=None,
    reference: bool = False,
) -> dict:
    """Run one pass of ``workload`` with the point cache in ``cache_dir``.

    The timed region holds the figure or scenario calls (and, for
    ``figures-traced``, the metrics report and the Chrome export); result
    digests and trace checks are computed after it.  ``observed=False``
    runs the ``figures-traced`` figures without observation, the baseline
    of its overhead.  ``region`` is a context manager entered around the
    timed region; ``after_item`` is called after each figure or scenario.
    With ``reference``, :func:`reference_work` runs before each figure or
    scenario and after the last; its mean time is returned as ``ref_s``
    and its calls are left out of every timing.
    """
    from repro.bench import cache
    from repro.bench.figures import FIGURES
    from repro.obs.capture import observe
    from repro.workloads import run_scenario

    os.environ[cache.CACHE_DIR_ENV] = cache_dir
    cache_before = cache.stats()
    outcomes: list[tuple[str, object, object, str | None]] = []
    refs: list[float] = []

    def gauge() -> None:
        if reference:
            refs.append(reference_work())

    def run_items() -> None:
        for name in item_order(workload, seed):
            gauge()
            try:
                if workload == "workloads-full":
                    rs = run_scenario(name, seed=seed, workers=workers, cache=True)
                    checks = []
                else:
                    rs, checks = FIGURES[name](True, workers=workers, cache=True)
                outcomes.append((name, rs, checks, None))
            except Exception:
                outcomes.append((name, None, [], traceback.format_exc()))
            if after_item is not None:
                after_item()
        gauge()

    out: dict = {}
    with region if region is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        if workload == "figures-traced" and observed:
            with observe(trace=True) as obs:
                run_items()
            t1 = time.perf_counter()
            obs.metrics_registry().report()
            t2 = time.perf_counter()
            trace_events = len(obs.export_chrome(trace_path)["traceEvents"])
        else:
            run_items()
            t1 = t2 = time.perf_counter()
        t3 = time.perf_counter()
    out["wall_s"] = t3 - t0 - sum(refs)
    if reference:
        out["ref_s"] = sum(refs) / len(refs)
    if workload == "figures-traced" and observed:
        out["obs"] = {
            "record_s": t1 - t0 - sum(refs),
            "report_s": t2 - t1,
            "export_s": t3 - t2,
            "trace_events": trace_events,
            "dropped": sum(
                m["dropped"] for cap in obs.captures() for m in cap["machines"]
            ),
            "trace_bytes": os.path.getsize(trace_path),
            "trace_sha256": trace_digest(trace_path),
        }
    out["cache"] = cache.stats().delta(cache_before).as_dict()
    out["cache"]["bytes"] = cache.PointCache(cache_dir).disk_bytes()
    out["items"] = [_describe(workload, *o) for o in outcomes]
    return out


def _describe(workload: str, name: str, rs, checks, error: str | None) -> dict:
    """Digest, point counts and claim values of one figure or scenario."""
    item: dict = {"name": name, "error": error, "claims": []}
    if workload == "workloads-full":
        item["expected_points"] = _scenario_points(name)
    if rs is None:
        return item
    item["digest"] = rs.digest()
    item["points"] = len(rs)
    item["bad_points"] = sum(
        1 for r in rs if not math.isfinite(r.latency_us) or r.latency_us < 0
    )
    item["claims"] = [
        [c.claim_id, float(measured), c.expected, c.tolerance, c.check(measured)]
        for c, measured in checks
    ]
    return item


#: request labels in a trace (``completion:req5378``)
_REQUEST_ID = re.compile(rb"req(\d+)")


def trace_digest(path: str) -> str:
    """SHA-256 of an exported trace with request ids masked.

    Request ids come from a process-wide counter, so they depend on what
    the process ran before (and on which worker ran a point); everything
    else in the trace must repeat byte for byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(_REQUEST_ID.sub(b"req#", data)).hexdigest()


def validate_trace_file(path: str) -> list[str]:
    """Schema problems of an exported Chrome trace (empty when valid)."""
    from repro.obs.chrometrace import validate_trace

    with open(path, encoding="utf-8") as fh:
        return validate_trace(json.load(fh))


class _PassDirs:
    """Fresh cache and trace paths per pass under the run's work directory,
    removed after the pass (outside its timed region)."""

    def __init__(self, workdir: str, tag: str) -> None:
        self.cache = os.path.join(workdir, f"cache-{tag}")
        self.trace = os.path.join(workdir, f"trace-{tag}.json")

    def clean(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        if os.path.exists(self.trace):
            os.remove(self.trace)


def measure(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    """Untraced passes for about ``seconds`` (at least three): another pass
    starts while the run would end nearer to ``seconds`` with it.  The peak
    resident memory is read after the first pass."""
    passes: list[dict] = []
    start = time.perf_counter()
    while (
        len(passes) < 3
        or time.perf_counter() - start + passes[-1]["wall_s"] / 2 < seconds
    ):
        dirs = _PassDirs(workdir, str(len(passes)))
        passes.append(run_pass(
            workload, seed, dirs.cache, trace_path=dirs.trace, reference=True
        ))
        shutil.rmtree(dirs.cache, ignore_errors=True)
        if len(passes) == 1:
            # the peak of one pass: later passes reuse a fragmented heap,
            # and the first trace is loaded back below for its check
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            dirs.clean()
    first = _PassDirs(workdir, "0")
    if workload == "figures-traced":
        passes[0]["obs"]["trace_problems"] = validate_trace_file(first.trace)[:5]
    first.clean()
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024.0}


class CounterHook:
    """Exact work counters of every testbed built while active.

    Read from outside: ``TestBed.__init__`` is wrapped to remember each
    bed, whose public counters :meth:`harvest` sums once its figure or
    scenario has returned, and the progress passes of ``NewMadeleine``
    and ``PIOMan`` are wrapped to count the passes that did work.  The
    wrappers delegate with ``yield from``, so the simulated execution is
    unchanged; the originals are restored on exit.
    """

    FIELDS = (
        "events", "messages", "progress_passes", "useful_passes",
        "nic_polls", "nic_empty_polls", "pioman_polls", "pioman_useful",
        "ctx_switches", "lock_acquisitions", "lock_contentions", "testbeds",
    )

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self._beds: list = []
        self._saved: list = []

    def __enter__(self) -> "CounterHook":
        from repro.core.library import NewMadeleine
        from repro.core.session import TestBed
        from repro.pioman.manager import PIOMan

        beds, totals = self._beds, self.totals
        init, progress, poll = TestBed.__init__, NewMadeleine.progress, PIOMan.poll

        def counting_init(bed, *args, **kwargs):
            init(bed, *args, **kwargs)
            beds.append(bed)

        def counting_progress(lib, *args, **kwargs):
            did = yield from progress(lib, *args, **kwargs)
            if did:
                totals["useful_passes"] += 1
            return did

        def counting_poll(pioman, *args, **kwargs):
            did = yield from poll(pioman, *args, **kwargs)
            if did:
                totals["pioman_useful"] += 1
            return did

        self._saved = [
            (TestBed, "__init__", init),
            (NewMadeleine, "progress", progress),
            (PIOMan, "poll", poll),
        ]
        TestBed.__init__ = counting_init
        NewMadeleine.progress = counting_progress
        PIOMan.poll = counting_poll
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self.harvest()

    def harvest(self) -> None:
        """Add the counters of every bed built so far and forget the beds."""
        t = self.totals
        seen: set[int] = set()
        for bed in self._beds:
            t["testbeds"] += 1
            t["events"] += bed.engine.events_run
            for machine in bed.machines:
                t["ctx_switches"] += machine.scheduler.ctx_switches
            for lib in bed.libs:
                t["messages"] += lib.isend_count
                t["progress_passes"] += lib.progress_passes
                for lock in lib.policy.lock_objects():
                    t["lock_acquisitions"] += lock.acquisitions
                    t["lock_contentions"] += lock.contentions
                if lib.pioman is not None and id(lib.pioman) not in seen:
                    seen.add(id(lib.pioman))
                    t["pioman_polls"] += lib.pioman.poll_passes
            for drivers in bed.drivers.values():
                for driver in drivers:
                    if id(driver) not in seen:
                        seen.add(id(driver))
                        t["nic_polls"] += driver.nic.polls
                        t["nic_empty_polls"] += driver.nic.empty_polls
        self._beds.clear()


def _one_pass(workload: str, seed: int, workdir: str, tag: str, **kwargs) -> dict:
    dirs = _PassDirs(workdir, tag)
    try:
        return run_pass(workload, seed, dirs.cache, trace_path=dirs.trace, **kwargs)
    finally:
        dirs.clean()


def rounds(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    """Rounds of an untraced pass and a pass at two workers (and, for
    ``figures-traced``, the same figures unobserved) for a third of
    ``seconds``, at least two rounds."""
    from repro.bench import parallel

    out = []
    start = time.perf_counter()
    try:
        while len(out) < 2 or time.perf_counter() - start < seconds / 3:
            out.append({
                "base": _one_pass(workload, seed, workdir, "base"),
                "w2": _one_pass(workload, seed, workdir, "w2", workers=2),
                "plain": (
                    _one_pass(workload, seed, workdir, "plain", observed=False)
                    if workload == "figures-traced" else None
                ),
            })
    finally:
        parallel.shutdown_pool()
    return {"rounds": out}


def profile(workload: str, seed: int, workdir: str) -> dict:
    """One pass under cProfile with the exact counters on.

    Run as the first pass of a fresh process: when the collector finalizes
    a generator it resumes it, which cProfile counts as a call, so earlier
    passes would make the call counts differ from run to run.
    """
    setup_probe()
    prof = cProfile.Profile()

    @contextlib.contextmanager
    def profiled():
        prof.enable()
        try:
            yield
        finally:
            prof.disable()

    def harvest_unprofiled() -> None:
        prof.disable()
        hook.harvest()
        prof.enable()

    with CounterHook() as hook:
        traced = _one_pass(
            workload, seed, workdir, "traced",
            region=profiled(), after_item=harvest_unprofiled,
        )
    stats = pstats.Stats(prof).stats  # type: ignore[attr-defined]
    return {
        "traced": traced,
        "layers": analysis.attribute(stats, own_prefixes=[_OWN_DIR]),
        "cache_s": analysis.cumulative_s(stats, "repro.bench.cache", ("get", "put")),
        "counters": hook.totals,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.session")
    parser.add_argument("mode", choices=("setup", "measure", "rounds", "profile"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result: dict = {"setup_s": setup_probe()}
    elif args.mode == "measure":
        result = measure(args.workload, args.seed, args.seconds, args.workdir)
    elif args.mode == "rounds":
        result = rounds(args.workload, args.seed, args.seconds, args.workdir)
    else:
        result = profile(args.workload, args.seed, args.workdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
