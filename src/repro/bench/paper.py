"""The paper's reported numbers, as machine-checkable claims.

Every measured artefact of the paper is captured here as a
:class:`PaperClaim`; the benchmark harness evaluates each claim against
fresh measurements and EXPERIMENTS.md records the outcome.  Tolerances are
generous on purpose: the goal is *shape* agreement (who wins, by roughly
what factor) on a simulated substrate, not nanosecond identity with 2009
hardware.

Each claim names the artefact whose grid it is read off
(:data:`repro.bench.figures.ARTEFACTS`) and its statistic: one of the
functions below, bound to its series with :func:`functools.partial`, the
grid's :class:`~repro.util.records.ResultSet` as the last argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.analysis.fit import constant_offset, ratio_series
from repro.util.records import ResultSet

#: a claim's value as a function of its artefact's grid
Statistic = Callable[[ResultSet], float]


def offset(base: str, other: str, results: ResultSet) -> float:
    """Constant offset (ns) of ``other`` over ``base`` (Figs. 3, 6, 7, 9)."""
    fit = constant_offset(results.series(base), results.series(other))
    return fit.offset_ns * 1_000


def spread(base: str, other: str, results: ResultSet) -> float:
    """Max-min spread (ns) of the per-size offset of ``other`` over ``base``."""
    fit = constant_offset(results.series(base), results.series(other))
    return fit.spread_ns * 1_000


def mean_ratio(base: str, other: str, results: ResultSet) -> float:
    """Mean over sizes of the per-size ``other / base`` latency ratio."""
    ratios = ratio_series(results.series(base), results.series(other))
    vals = [r for _, r in ratios]
    return sum(vals) / len(vals)


def ratio_of(a: Statistic, b: Statistic, results: ResultSet) -> float:
    """One statistic divided by another."""
    return a(results) / b(results)


def mean_delta(base: str, configs: tuple[str, ...], results: ResultSet) -> float:
    """Mean per-size delta (ns) over ``base``, averaged over ``configs``."""
    ref = dict(results.series(base))
    deltas = []
    for config in configs:
        series = dict(results.series(config))
        diffs = [series[s] - ref[s] for s in series if s in ref]
        deltas.append(sum(diffs) / len(diffs) * 1_000)  # us -> ns
    return sum(deltas) / len(deltas)


def point_delta(config: str, a: int, b: int, results: ResultSet) -> float:
    """Difference (ns) between two sizes of one us series."""
    return (results.point(config, a) - results.point(config, b)) * 1_000


def point(config: str, size: int, scale: float, results: ResultSet) -> float:
    """One grid point, times ``scale``."""
    return results.point(config, size) * scale


@dataclass(frozen=True)
class PaperClaim:
    """One quantitative statement from the paper."""

    claim_id: str
    experiment: str  # figure / section reference
    description: str
    #: expected value (ns for offsets, dimensionless for ratios/fractions)
    expected: float
    #: acceptable absolute deviation
    tolerance: float
    unit: str = "ns"
    #: name of the artefact whose grid the claim is read off
    artefact: str = field(kw_only=True)
    statistic: Statistic = field(kw_only=True)

    def check(self, measured: float) -> bool:
        return abs(measured - self.expected) <= self.tolerance

    def verdict(self, measured: float) -> str:
        status = "OK " if self.check(measured) else "OFF"
        return (
            f"[{status}] {self.claim_id}: expected {self.expected:g} {self.unit} "
            f"(±{self.tolerance:g}), measured {measured:g} {self.unit} — "
            f"{self.description}"
        )


CLAIMS: dict[str, PaperClaim] = {
    claim.claim_id: claim
    for claim in [
        PaperClaim(
            "fig3-coarse-offset",
            "Figure 3 / §3.1",
            "coarse-grain locking adds a constant 140 ns to latency",
            expected=140,
            tolerance=60,
            artefact="fig3",
            statistic=partial(offset, "none", "coarse"),
        ),
        PaperClaim(
            "fig3-fine-offset",
            "Figure 3 / §3.2",
            "fine-grain locking adds a constant 230 ns to latency",
            expected=230,
            tolerance=80,
            artefact="fig3",
            statistic=partial(offset, "none", "fine"),
        ),
        PaperClaim(
            "fig3-offset-flat",
            "Figure 3",
            "locking overhead does not grow with message size (spread of the "
            "per-size offset, should stay within a poll quantum)",
            expected=0,
            tolerance=120,
            artefact="fig3",
            statistic=partial(spread, "none", "coarse"),
        ),
        # Fig. 5 is read at the node's saturation flow count,
        # repro.bench.locking.FIG5_SATURATION_FLOWS = 4 (see EXPERIMENTS.md)
        PaperClaim(
            "fig5-coarse-ratio",
            "Figure 5 / §3.1",
            "two concurrent pingpongs under coarse locking: per-thread latency "
            "roughly twice the single-thread latency",
            expected=2.0,
            tolerance=0.6,
            unit="x",
            artefact="fig5",
            statistic=partial(mean_ratio, "1 thread", "coarse (4 threads)"),
        ),
        PaperClaim(
            "fig5-fine-better",
            "Figure 5 / §3.2",
            "fine-grain locking performs better than coarse-grain for "
            "concurrent flows (ratio fine/coarse < 1)",
            expected=0.75,
            tolerance=0.25,
            unit="x",
            artefact="fig5",
            statistic=partial(
                ratio_of,
                partial(mean_ratio, "1 thread", "fine (4 threads)"),
                partial(mean_ratio, "1 thread", "coarse (4 threads)"),
            ),
        ),
        PaperClaim(
            "fig6-pioman-offset",
            "Figure 6 / §3.3",
            "routing the polling through PIOMan costs ~200 ns of list "
            "management",
            expected=200,
            tolerance=150,
            artefact="fig6",
            statistic=partial(offset, "fine", "pioman (fine)"),
        ),
        PaperClaim(
            "fig7-passive-offset",
            "Figure 7 / §3.3",
            "semaphore-based passive waiting costs ~750 ns of context switches",
            expected=750,
            tolerance=400,
            artefact="fig7",
            statistic=partial(offset, "active (fine)", "passive (fine)"),
        ),
        PaperClaim(
            "fig8-shared-l2",
            "Figure 8 / §4.1",
            "polling on the shared-L2 sibling (CPU 1) costs +400 ns",
            expected=400,
            tolerance=250,
            artefact="fig8",
            statistic=partial(mean_delta, "polling on cpu 0", ("polling on cpu 1",)),
        ),
        PaperClaim(
            "fig8-no-shared-cache",
            "Figure 8 / §4.1",
            "polling on a core with no shared cache (CPU 2/3) costs +1.2 us",
            expected=1_200,
            tolerance=450,
            artefact="fig8",
            statistic=partial(
                mean_delta,
                "polling on cpu 0",
                ("polling on cpu 2", "polling on cpu 3"),
            ),
        ),
        PaperClaim(
            "fig8b-shared-l2",
            "§4.1 (dual quad-core)",
            "dual quad-core: polling on the shared-cache sibling costs +400 ns",
            expected=400,
            tolerance=250,
            artefact="fig8b",
            statistic=partial(mean_delta, "polling on cpu 0", ("polling on cpu 1",)),
        ),
        PaperClaim(
            "fig8b-same-chip",
            "§4.1 (dual quad-core)",
            "dual quad-core: polling on the same chip, different cache: +2.3 us",
            expected=2_300,
            tolerance=700,
            artefact="fig8b",
            statistic=partial(mean_delta, "polling on cpu 0", ("polling on cpu 2",)),
        ),
        PaperClaim(
            "fig8b-other-chip",
            "§4.1 (dual quad-core)",
            "dual quad-core: polling on the other chip: +3.1 us",
            expected=3_100,
            tolerance=800,
            artefact="fig8b",
            statistic=partial(mean_delta, "polling on cpu 0", ("polling on cpu 4",)),
        ),
        PaperClaim(
            "fig9-tasklet-offset",
            "Figure 9 / §4.2",
            "offloading submission with tasklets adds ~2 us",
            expected=2_000,
            tolerance=1_200,
            artefact="fig9",
            statistic=partial(offset, "reference", "tasklets"),
        ),
        PaperClaim(
            "fig9-idlecore-offset",
            "Figure 9 / §4.2",
            "offloading submission to an idle core (no tasklets) adds ~400 ns",
            expected=400,
            tolerance=400,
            artefact="fig9",
            statistic=partial(offset, "reference", "no tasklets"),
        ),
        PaperClaim(
            "text-spin-cycle",
            "§3.1",
            "one spinlock acquire/release cycle costs 70 ns",
            expected=70,
            tolerance=10,
            artefact="lockcost",
            statistic=partial(point, "spin cycle", 0, 1_000),
        ),
        PaperClaim(
            "text-dedicated-core",
            "§3.3",
            "dedicating one core in four to communication cuts compute "
            "throughput by up to 25 %",
            expected=0.25,
            tolerance=0.08,
            unit="fraction",
            artefact="dedicated-core",
            statistic=partial(point, "throughput loss", 0, 1),
        ),
        PaperClaim(
            "text-fixed-spin",
            "§3.3",
            "fixed-spin waiting avoids the context switch whenever the event "
            "arrives within the spin window: a covering spin window saves "
            "roughly the 750 ns switch round trip over pure blocking",
            expected=-750,
            tolerance=500,
            artefact="fixed-spin",
            statistic=partial(point_delta, "fixed-spin wait", 20_000, 0),
        ),
    ]
}


def claim(claim_id: str) -> PaperClaim:
    try:
        return CLAIMS[claim_id]
    except KeyError:
        raise KeyError(
            f"unknown claim {claim_id!r}; known: {sorted(CLAIMS)}"
        ) from None


def evaluate(artefact: str, results: ResultSet) -> list[tuple[PaperClaim, float]]:
    """Every claim read off ``artefact``'s grid, in registry order.  A
    statistic naming a config or size the grid lacks raises a
    :class:`KeyError` naming the claim."""
    checks = []
    for c in CLAIMS.values():
        try:
            if c.artefact == artefact:
                checks.append((c, c.statistic(results)))
        except KeyError as err:
            raise KeyError(
                f"claim {c.claim_id!r} on {artefact!r}: {err.args[0]}"
            ) from None
    return checks
