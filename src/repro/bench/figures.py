"""One entry point per paper artefact: regenerate any figure's data.

Each artefact is one row of :data:`ARTEFACTS`: a title and a grid, a
``run_sweep`` over module-level point functions.  Its claims are the
:mod:`repro.bench.paper` entries that name it, each measured by its own
statistic (:func:`repro.bench.paper.evaluate`).  ``FIGURES[name](quick)``
returns ``(ResultSet, checks)``; :func:`render` prints the figure-style
table plus verdicts.  Command line::

    python -m repro.bench.figures fig3             # one figure
    python -m repro.bench.figures all              # everything (slow)
    python -m repro.bench.figures fig8 --quick     # reduced sweep
    python -m repro.bench.figures all --workers 8  # parallel sweeps

The ``FIGURES`` entry points accept ``workers`` and ``cache`` and install
them (:func:`repro.bench.runner.execution`) around the figure: sweep
points are measured on that many worker processes with results
deterministically identical to the sequential run.  ``None`` defers to
the ``REPRO_BENCH_WORKERS`` / ``REPRO_BENCH_CACHE`` environment variables.
"""

from __future__ import annotations

import argparse
import contextlib
from functools import partial
from typing import Callable, NamedTuple

from repro.analysis.decompose import STAGES, decompose_message
from repro.bench import affinity, lockcost, locking, overlap, waiting
from repro.bench.config import OVERLAP_SIZES, PAPER_SIZES, BenchConfig
from repro.bench.paper import PaperClaim, evaluate
from repro.bench.report import print_figure
from repro.bench.runner import execution, run_sweep
from repro.util.records import ResultSet

FigureResult = tuple[ResultSet, list[tuple[PaperClaim, float]]]


#: per-message timing noise for the latency sweeps: real hardware noise
#: averages the polling loop's phase quantisation away; the deterministic
#: simulator reintroduces a small calibrated amount for the same purpose
SWEEP_JITTER_NS = 150


def _cfg(quick: bool, sizes=PAPER_SIZES) -> BenchConfig:
    if quick:
        return BenchConfig(
            iterations=24,
            warmup=4,
            sizes=tuple(sizes[::3]) or sizes[:1],
            jitter_ns=SWEEP_JITTER_NS,
        )
    return BenchConfig(
        iterations=48, warmup=4, sizes=sizes, jitter_ns=SWEEP_JITTER_NS
    )


def decompose_point(policy: str, stage: str, size: int) -> float:
    """One stage (us) of one message's one-way latency under ``policy``."""
    return getattr(decompose_message(policy, size), stage) / 1_000


def run_decompose(sizes: tuple[int, ...] = (8, 2048)) -> ResultSet:
    """Extension: one-way latency decomposition per policy (§1's method:
    'decomposing each step of thread support')."""
    configs = {
        f"{policy}/{stage}": partial(decompose_point, policy, stage)
        for policy in ("none", "coarse", "fine")
        for stage in STAGES
    }
    return run_sweep(
        "decompose",
        configs,
        BenchConfig(sizes=sizes),
        extra=lambda name, size: {"unit": "us"},
    )


class Artefact(NamedTuple):
    """One paper artefact: its report title and its grid for ``quick``."""

    title: str
    grid: Callable[[bool], ResultSet]


ARTEFACTS: dict[str, Artefact] = {
    "fig3": Artefact(
        "Figure 3 — Impact of locking on latency (us)",
        lambda quick: locking.run_fig3(_cfg(quick)),
    ),
    "fig5": Artefact(
        "Figure 5 — Two concurrent pingpongs (us)",
        lambda quick: locking.run_fig5(_cfg(quick)),
    ),
    "fig6": Artefact(
        "Figure 6 — Impact of PIOMan on latency (us)",
        lambda quick: waiting.run_fig6(_cfg(quick)),
    ),
    "fig7": Artefact(
        "Figure 7 — Impact of semaphores on latency (us)",
        lambda quick: waiting.run_fig7(_cfg(quick)),
    ),
    "fig8": Artefact(
        "Figure 8 — Impact of cache affinity, quad-core (us)",
        lambda quick: affinity.run_fig8(_cfg(quick)),
    ),
    "fig8b": Artefact(
        "§4.1 — Cache affinity, dual quad-core (us)",
        lambda quick: affinity.run_fig8b(_cfg(quick)),
    ),
    "fig9": Artefact(
        "Figure 9 — Impact of tasklets on deferred submission (us)",
        lambda quick: overlap.run_fig9(_cfg(quick, sizes=OVERLAP_SIZES)),
    ),
    "lockcost": Artefact(
        "§3.1 — Spinlock cycle cost and per-message lock traffic",
        lambda quick: lockcost.run_lockcost(),
    ),
    "dedicated-core": Artefact(
        "§3.3 — Compute loss from a dedicated polling core",
        lambda quick: affinity.run_dedicated_core(
            duration_ns=500_000 if quick else 2_000_000
        ),
    ),
    "fixed-spin": Artefact(
        "§3.3 — Fixed-spin wait latency vs. spin threshold (us)",
        lambda quick: waiting.run_fixed_spin_sweep(iterations=6 if quick else 12),
    ),
    "decompose": Artefact(
        "Extension — One-way latency decomposition by stage (us)",
        lambda quick: run_decompose(sizes=(8,) if quick else (8, 2048)),
    ),
}


def run_artefact(
    name: str,
    quick: bool = False,
    *,
    workers: int | None = None,
    cache: bool | None = None,
) -> FigureResult:
    """Measure one artefact's grid under the execution settings and
    evaluate its claims."""
    with execution(workers=workers, cache=cache):
        results = ARTEFACTS[name].grid(quick)
    return results, evaluate(name, results)


FIGURES: dict[str, Callable[..., FigureResult]] = {
    name: partial(run_artefact, name) for name in ARTEFACTS
}


def render(
    name: str,
    *,
    quick: bool = False,
    workers: int | None = None,
    cache: bool | None = None,
    trace: str | None = None,
    metrics: bool = False,
) -> str:
    """Measure and print one artefact; returns the report text.

    Args:
        cache: force the incremental point cache on/off (``None`` defers
            to ``REPRO_BENCH_CACHE``, default on); the footnote records
            how many points were replayed vs. computed.
        trace: path of a Chrome trace-event JSON to export (open it at
            ui.perfetto.dev); covers every testbed the figure builds,
            including points measured on worker processes.
        metrics: also print the observability report (lock contention,
            core utilization, PIOMan counters, overhead decomposition).
    """
    from repro.bench import cache as point_cache
    from repro.bench import parallel
    from repro.bench.report import provenance_note
    from repro.obs import capture as obs_capture

    try:
        fn = FIGURES[name]
    except KeyError:
        raise KeyError(f"unknown figure {name!r}; known: {sorted(FIGURES)}") from None
    cache_before = point_cache.stats()
    pool_before = parallel.pool_stats()
    observing = (
        obs_capture.observe(trace=trace is not None)
        if trace is not None or metrics
        else contextlib.nullcontext()
    )
    with observing as observation:
        results, checks = fn(quick, workers=workers, cache=cache)
    note = provenance_note(
        workers=workers,
        cache_delta=point_cache.stats().delta(cache_before),
        pool_delta=parallel.pool_stats_delta(pool_before),
    )
    text = print_figure(
        results, title=ARTEFACTS[name].title, checks=checks, note=note
    )
    if observation is not None:
        extra_parts = []
        if metrics:
            extra_parts.append(observation.metrics_registry().report())
        if trace is not None:
            doc = observation.export_chrome(trace)
            extra_parts.append(
                f"trace: {len(doc['traceEvents'])} trace events "
                f"({observation.event_count()} scheduler events) -> {trace}"
            )
        extra = "\n\n".join(extra_parts)
        print(extra)
        text = text + "\n\n" + extra
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's figures")
    parser.add_argument("figure", choices=sorted(FIGURES) + ["all"])
    parser.add_argument("--quick", action="store_true", help="reduced sweep")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per sweep (default: $REPRO_BENCH_WORKERS or 1); "
        "results are identical to a sequential run",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental point cache (results/.cache/): "
        "measure every sweep point even when an identical point is "
        "already stored; equivalent to REPRO_BENCH_CACHE=0",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="export a Chrome trace-event JSON of every simulated testbed "
        "(open at ui.perfetto.dev); with 'all', each figure gets its own "
        "FILE suffixed by the figure name",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the observability report (locks, core utilization, "
        "PIOMan, overhead decomposition) after each figure",
    )
    args = parser.parse_args(argv)
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        trace = args.trace
        if trace is not None and len(names) > 1:
            stem, dot, ext = trace.rpartition(".")
            trace = f"{stem}-{name}.{ext}" if dot else f"{trace}-{name}"
        render(name, quick=args.quick, workers=args.workers,
               cache=False if args.no_cache else None,
               trace=trace, metrics=args.metrics)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
