"""Parameter sweeps: turn per-point measurement functions into ResultSets.

:func:`run_sweep` is the single path every figure, workload and extension
grid goes through, and therefore where the two pipeline optimisations
meet:

* the **incremental point cache** (:mod:`repro.bench.cache`): each
  (config, size) point is keyed by its plain-data description and looked
  up before anything is simulated — warm points replay their stored
  latency (and observation blob), only cold points are measured, and
  fresh measurements are stored back;
* the **persistent worker pool** (:mod:`repro.bench.parallel`): the cold
  points fan out over a process pool shared across every sweep of the
  suite run, one point per dispatch, so skewed grids load-balance.

How a sweep runs — worker count, cache on/off — is not part of what it
measures.  Those settings live in one process-level :func:`execution`
context, installed by the entry points (the figure callables, the
workload runner and both command lines) and read here.

Both optimisations are pure wall-clock: the returned ResultSet has the
same records in the same order with the same JSON serialization whether
points were computed or replayed, sequentially or on any worker count.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.bench import cache as point_cache
from repro.bench.config import BenchConfig
from repro.bench.parallel import measure_point, resolve_workers, run_tasks
from repro.obs import capture as obs_capture
from repro.util.records import ResultRecord, ResultSet

#: measures one (config, size) point; returns latency in microseconds
PointFn = Callable[[int], float]


@dataclass(frozen=True)
class Execution:
    """How sweeps run.  ``None`` defers to the environment:
    ``REPRO_BENCH_WORKERS`` (default 1) and ``REPRO_BENCH_CACHE``
    (default on)."""

    workers: int | None = None
    cache: bool | None = None


_execution = Execution()


@contextlib.contextmanager
def execution(
    *, workers: int | None = None, cache: bool | None = None
) -> Iterator[Execution]:
    """Install execution settings for every sweep run inside the block.

    A ``None`` argument keeps the enclosing setting, so an entry point
    called by another entry point inherits its caller's choice.
    """
    global _execution
    if workers is not None and workers <= 0:
        raise ValueError(f"workers must be > 0, got {workers}")
    prev = _execution
    _execution = Execution(
        workers=prev.workers if workers is None else workers,
        cache=prev.cache if cache is None else cache,
    )
    try:
        yield _execution
    finally:
        _execution = prev


#: sweeps already warned about the in-process fallback (one warning per
#: experiment per process, not one per point)
_warned_fallback: set[str] = set()


def _warn_sequential_fallback(experiment: str) -> None:
    """One-time warning: ``workers > 1`` requested but some points have
    no plain-data key, so they cannot ship to the pool."""
    if experiment in _warned_fallback:
        return
    _warned_fallback.add(experiment)
    warnings.warn(
        f"sweep {experiment!r}: some point functions have no plain-data "
        f"key (lambdas, closures, non-plain partial args), so --workers "
        f"has no effect on them; running them in-process",
        RuntimeWarning,
        stacklevel=3,
    )


def _check_latency(name: str, size: int, latency_us: float) -> None:
    """Reject non-finite (NaN/inf) and negative latencies loudly.

    ``latency < 0`` alone is not enough: ``NaN < 0`` is False, so a NaN
    would sail through and poison every downstream fit/ratio.
    """
    if not math.isfinite(latency_us):
        raise ValueError(
            f"non-finite latency from config {name!r} at size {size}: {latency_us}"
        )
    if latency_us < 0:
        raise ValueError(
            f"negative latency from config {name!r} at size {size}: {latency_us}"
        )


def run_sweep(
    experiment: str,
    configs: Mapping[str, PointFn],
    cfg: BenchConfig,
    *,
    extra: Callable[[str, int], dict] | None = None,
) -> ResultSet:
    """Measure every (config, size) combination.

    Each point builds its own fresh testbed inside ``PointFn`` — points are
    fully independent, like separate benchmark runs on the paper's cluster —
    which is what makes the grid embarrassingly parallel *and* cacheable.
    ``extra`` (per-record extras) always runs in this process.

    A point whose inputs are plain data (:func:`repro.bench.cache.point_key`
    returns a key) is cacheable and may ship to the worker pool; any other
    point is measured in-process on every run.  With the cache enabled,
    keyed points are looked up before measuring and stored after; a warm
    re-run replays the whole grid without building a single testbed.

    When an observation is active, every measured point runs under its
    own nested observation and its serialized capture is absorbed in
    sweep order — whether it was measured here, on a worker, or replayed
    from the cache (entries must then carry a capture recorded under the
    same observation spec).
    """
    if not configs:
        raise ValueError("run_sweep needs at least one config")
    nworkers = resolve_workers(_execution.workers)
    observation = obs_capture.active()
    spec = (
        (observation.trace, observation.max_events)
        if observation is not None
        else None
    )

    points = [
        (name, fn, size)
        for name, fn in configs.items()
        for size in cfg.sizes
    ]
    keys = [
        point_cache.point_key(
            fn, experiment=experiment, config=name, size=size, cfg=cfg,
            obs_spec=spec,
        )
        for name, fn, size in points
    ]
    if nworkers > 1 and len(points) > 1 and None in keys:
        _warn_sequential_fallback(experiment)

    store = (
        point_cache.PointCache()
        if point_cache.enabled(_execution.cache)
        else None
    )
    latencies: list[float | None] = [None] * len(points)
    blobs: list[dict | None] = [None] * len(points)
    if store is not None:
        for i, key in enumerate(keys):
            if key is None:
                continue
            entry = store.get(key, need_capture=observation is not None)
            if entry is not None:
                latencies[i] = float(entry["latency_us"])
                blobs[i] = entry.get("capture")

    misses = [i for i, v in enumerate(latencies) if v is None]
    remote = [i for i in misses if keys[i] is not None]
    if nworkers <= 1 or len(remote) <= 1:
        remote = []
    tasks = [points[i] for i in remote]
    outcomes = dict(zip(remote, run_tasks(tasks, nworkers, capture=spec)))
    for i in misses:
        name, fn, size = points[i]
        outcome = (
            outcomes[i] if i in outcomes else measure_point(fn, size, spec)
        )
        latency_us, blob = outcome if spec is not None else (outcome, None)
        _check_latency(name, size, latency_us)
        latencies[i] = latency_us
        blobs[i] = blob
        if store is not None and keys[i] is not None:
            store.put(
                keys[i],
                latency_us=latency_us,
                capture=blob,
                meta={
                    "experiment": experiment,
                    "config": name,
                    "size": size,
                    "seed": cfg.seed,
                    "observed": blob is not None,
                },
            )

    results = ResultSet()
    for i, (name, _fn, size) in enumerate(points):
        if observation is not None:
            # sweep order, whether the blob was replayed or just measured
            observation.absorb(blobs[i], label=f"{experiment}/{name}/{size}")
        results.add(
            ResultRecord(
                experiment=experiment,
                config=name,
                size=size,
                latency_us=latencies[i],
                extra=extra(name, size) if extra else {},
            )
        )
    if store is not None:
        store.flush_index()
    return results
