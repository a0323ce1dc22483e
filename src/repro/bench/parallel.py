"""Parallel sweep execution: fan independent (config, size) points out
to a persistent process pool.

Every sweep point builds its own fresh testbed inside its ``PointFn``
(see :mod:`repro.bench.runner`), so points are fully independent — like
separate benchmark runs on the paper's cluster — and can execute in any
order on any process.  This module supplies the worker-pool machinery:

* :func:`resolve_workers` — pick the worker count from an explicit
  argument, the ``REPRO_BENCH_WORKERS`` environment variable, or the
  sequential default of 1;
* :func:`get_pool` — the **persistent pool**: one process pool shared by
  every sweep of a suite run (created on first use, reused until the
  requested worker count changes, torn down at interpreter exit), so the
  per-sweep spawn cost is paid once per suite instead of once per figure;
* :func:`measure_point` — run one point, optionally under its own
  observation, in this process or a worker;
* :func:`run_tasks` — execute tasks via index-tagged ``imap_unordered``,
  one point per dispatch (workers pull work dynamically, so a long point
  never holds cheap ones behind it), and reassemble the results
  **positionally**, so the returned list is indistinguishable from a
  sequential run.

Which points may ship to the pool is decided by the runner: exactly those
with a plain-data cache key (:func:`repro.bench.cache.point_key`), i.e.
``functools.partial`` over module-level functions with plain arguments.

Determinism: every task carries its own index, results are written back
by index, and each point's simulation is seeded by its own testbed — so
the merged ResultSet serializes byte-identically to the sequential one at
any worker count.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Callable, Mapping, Sequence

#: environment variable consulted when no explicit worker count is given
WORKERS_ENV = "REPRO_BENCH_WORKERS"

#: measures one (config, size) point; returns latency in microseconds
PointFn = Callable[[int], float]


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the effective worker count.

    Precedence: explicit ``workers`` argument, then the
    ``REPRO_BENCH_WORKERS`` environment variable, then 1 (sequential).

    Raises:
        ValueError: on a non-positive or non-integer setting.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    if workers <= 0:
        raise ValueError(f"workers must be > 0, got {workers}")
    return workers


def measure_point(
    fn: PointFn, size: int, capture: tuple[bool, int] | None = None
) -> float | tuple[float, dict]:
    """Run one point.

    With a ``(trace, max_events)`` capture spec, the point runs under its
    own observation context (:mod:`repro.obs.capture`) and the serialized
    capture rides back with the measurement, so the parent can merge
    per-point traces in deterministic sweep order.
    """
    if capture is None:
        return fn(size)
    from repro.obs import capture as obs_capture

    trace, max_events = capture
    with obs_capture.observe(trace=trace, max_events=max_events) as obs:
        latency = fn(size)
    return latency, obs.serialize()


def _measure_indexed(item: tuple[int, tuple]) -> tuple[int, object]:
    """Worker-side shim for ``imap_unordered``: tag the outcome with the
    task's sweep index so the parent can reassemble positionally.  Must
    stay module-level so the pool can import it under ``spawn``."""
    index, (fn, size, capture) = item
    return index, measure_point(fn, size, capture)


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap, inherits sys.path), else the
    platform default (``spawn`` on Windows/macOS)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


#: the persistent pool and its worker count, shared by every sweep
_pool: tuple[multiprocessing.pool.Pool, int] | None = None

_pool_stats = {"created": 0, "reused": 0, "dispatched": 0}


def get_pool(workers: int) -> multiprocessing.pool.Pool:
    """The shared process pool, created on first use and reused by every
    subsequent sweep requesting the same worker count.

    A different count tears the old pool down and spawns a fresh one —
    within one suite run the count is constant, so the spawn cost is paid
    exactly once however many sweeps the suite fans out.
    """
    global _pool
    if _pool is not None:
        pool, size = _pool
        if size == workers:
            _pool_stats["reused"] += 1
            return pool
        shutdown_pool()
    pool = _pool_context().Pool(processes=workers)
    _pool = (pool, workers)
    _pool_stats["created"] += 1
    return pool


def shutdown_pool() -> None:
    """Tear down the persistent pool (no-op when none is alive)."""
    global _pool
    if _pool is None:
        return
    pool, _ = _pool
    _pool = None
    pool.terminate()
    pool.join()


atexit.register(shutdown_pool)


def pool_stats() -> dict[str, int]:
    """Snapshot of pool lifecycle counters: pools ``created``, sweeps that
    ``reused`` a live pool, tasks ``dispatched``."""
    return dict(_pool_stats)


def pool_stats_delta(before: Mapping[str, int]) -> dict[str, int]:
    """Counter difference since a :func:`pool_stats` snapshot."""
    return {k: v - before.get(k, 0) for k, v in _pool_stats.items()}


def run_tasks(
    tasks: Sequence[tuple],
    workers: int,
    *,
    capture: tuple[bool, int] | None = None,
) -> list:
    """Measure an arbitrary ``(name, fn, size)`` task list on the
    persistent pool; outcomes (as :func:`measure_point` returns them)
    come back positionally aligned with ``tasks``.

    Each dispatch carries one point: a point is milliseconds of
    simulation, so batching saves little IPC and would let one long point
    hold cheap ones behind it.
    """
    if not tasks:
        return []
    pool = get_pool(workers)
    items = [
        (index, (fn, size, capture))
        for index, (_name, fn, size) in enumerate(tasks)
    ]
    outcomes: list = [None] * len(items)
    for index, outcome in pool.imap_unordered(_measure_indexed, items):
        outcomes[index] = outcome
    _pool_stats["dispatched"] += len(items)
    return outcomes
