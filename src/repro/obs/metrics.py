"""Metrics registry: aggregate observation snapshots into runtime reports.

A :class:`MetricsRegistry` consumes capture snapshots (see
:meth:`repro.obs.capture.Observation.captures`) and aggregates them into
the quantities the paper's analysis is built on:

* per-lock acquisition/contention counts and hold-time histograms
  (straight from :class:`repro.sim.sync._LockBase` counters via
  :meth:`repro.core.locking.LockingPolicy.lock_stats`);
* per-core busy/idle/spin utilization from the cores' category ledgers;
* PIOMan poll-pass and register/complete counts;
* the §3/§4 overhead decomposition — measured nanoseconds attributed to
  lock cost, spin, semaphore/context-switch cost, PIOMan polling and
  bookkeeping, and cache-distance transfer — as one table.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.machine import BUSY_CATEGORIES
from repro.util.tables import render_table
from repro.util.units import format_ns

#: decomposition mechanisms, in report order
MECHANISMS = (
    "lock",  # spinlock acquire/release cycles (§3.1's 70 ns)
    "spin",  # active contention, burned core time (Fig. 5)
    "ctxswitch",  # context switches incl. semaphore round trips (§3.3)
    "poll",  # PIOMan/driver polling passes (Fig. 6)
    "pioman",  # PIOMan request-list bookkeeping (+200 ns/msg, Fig. 6)
    "transfer",  # cache-distance completion/descriptor transfer (Fig. 8, §4.2)
)


def _merge_hist(into: dict[int, int], hist: dict) -> None:
    # buckets come back as strings from a JSON round-trip (cache replay)
    for bucket, count in hist.items():
        bucket = int(bucket)
        into[bucket] = into.get(bucket, 0) + count


class MetricsRegistry:
    """Aggregated counters from one or more observation captures."""

    def __init__(self) -> None:
        #: lock name -> aggregated counter row
        self.locks: dict[str, dict] = {}
        #: (machine name, core index) -> busy ns by category
        self.cores: dict[tuple[str, int], dict[str, int]] = {}
        #: machine name -> summed simulated horizon (ns across captures)
        self.horizon: dict[str, int] = {}
        #: aggregated PIOMan counters
        self.pioman: dict[str, int] = {
            "poll_passes": 0,
            "registered": 0,
            "completed": 0,
            "pending": 0,
            "bookkeeping_ns": 0,
        }
        #: total cache-distance transfer ns charged
        self.transfer_ns = 0
        #: total trace events dropped by ring buffers (0 = complete traces)
        self.dropped_events = 0
        self.captures = 0

    # -- ingestion -----------------------------------------------------------

    @classmethod
    def from_captures(cls, captures: Iterable[dict]) -> "MetricsRegistry":
        reg = cls()
        for cap in captures:
            reg.add_capture(cap)
        return reg

    def add_capture(self, cap: dict) -> None:
        self.captures += 1
        for m in cap["machines"]:
            name = m["name"]
            self.horizon[name] = self.horizon.get(name, 0) + m["now"]
            self.transfer_ns += m["transfer_ns"]
            self.dropped_events += m.get("dropped", 0)
            for core_index, busy in m["utilization"].items():
                key = (name, int(core_index))
                slot = self.cores.setdefault(key, {})
                for cat, ns in busy.items():
                    slot[cat] = slot.get(cat, 0) + ns
            for row in m["locks"]:
                slot = self.locks.setdefault(
                    row["name"],
                    {
                        "acquisitions": 0,
                        "contentions": 0,
                        "holds": 0,
                        "hold_ns_total": 0,
                        "hold_max_ns": 0,
                        "hold_hist": {},
                    },
                )
                slot["acquisitions"] += row["acquisitions"]
                slot["contentions"] += row["contentions"]
                slot["holds"] += row["holds"]
                slot["hold_ns_total"] += row["hold_ns_total"]
                slot["hold_max_ns"] = max(slot["hold_max_ns"], row["hold_max_ns"])
                _merge_hist(slot["hold_hist"], row["hold_hist"])
            if m.get("pioman"):
                for key, value in m["pioman"].items():
                    self.pioman[key] = self.pioman.get(key, 0) + value

    # -- aggregates ----------------------------------------------------------

    def busy_total(self, category: str) -> int:
        """Summed busy ns of one accounting category across every core."""
        return sum(busy.get(category, 0) for busy in self.cores.values())

    def decomposition(self) -> dict[str, int]:
        """Total measured ns attributed to each overhead mechanism.

        This is the paper's decomposition method as a runtime report: lock
        cycles and spin time from the cores' ledgers, context-switch cost
        (two of which make the 750 ns semaphore round trip of Fig. 7),
        PIOMan's polling and request bookkeeping (Fig. 6), and the
        cache-distance transfer cost of completions/descriptors (Fig. 8).
        """
        return {
            "lock": self.busy_total("lock"),
            "spin": self.busy_total("spin"),
            "ctxswitch": self.busy_total("ctxswitch"),
            "poll": self.busy_total("poll"),
            "pioman": self.pioman["bookkeeping_ns"],
            "transfer": self.transfer_ns,
        }

    # -- tables ---------------------------------------------------------------

    def lock_table(self) -> str:
        headers = ["lock", "acq", "contended", "holds", "hold mean", "hold max"]
        rows = []
        for name in sorted(self.locks):
            c = self.locks[name]
            mean = c["hold_ns_total"] / c["holds"] if c["holds"] else 0.0
            rows.append(
                [
                    name,
                    c["acquisitions"],
                    c["contentions"],
                    c["holds"],
                    format_ns(round(mean)),
                    format_ns(c["hold_max_ns"]),
                ]
            )
        if not rows:
            return "Lock contention: no locks observed (policy 'none'?)"
        return render_table(headers, rows, title="Lock contention")

    def utilization_table(self) -> str:
        headers = ["core"] + list(BUSY_CATEGORIES) + ["busy", "idle%"]
        rows = []
        for (machine, index) in sorted(self.cores):
            busy = self.cores[(machine, index)]
            total = sum(busy.values())
            horizon = self.horizon.get(machine, 0)
            idle_pct = 100.0 * max(horizon - total, 0) / horizon if horizon else 0.0
            rows.append(
                [f"{machine}/{index}"]
                + [busy.get(cat, 0) for cat in BUSY_CATEGORIES]
                + [total, idle_pct]
            )
        if not rows:
            return "Core utilization: nothing captured"
        return render_table(headers, rows, title="Core utilization (busy ns)")

    def pioman_table(self) -> str:
        p = self.pioman
        rows = [
            ["poll passes", p["poll_passes"]],
            ["requests registered", p["registered"]],
            ["requests completed", p["completed"]],
            ["still pending", p["pending"]],
            ["bookkeeping", format_ns(p["bookkeeping_ns"])],
        ]
        return render_table(["PIOMan", "value"], rows, title="PIOMan progression")

    def decomposition_table(self, *, messages: int | None = None) -> str:
        """The mechanism decomposition; with ``messages`` also per-message."""
        decomp = self.decomposition()
        headers = ["mechanism", "total"]
        if messages:
            headers.append("per message")
        rows = []
        for mech in MECHANISMS:
            row: list[object] = [mech, format_ns(decomp[mech])]
            if messages:
                row.append(format_ns(round(decomp[mech] / messages)))
            rows.append(row)
        return render_table(
            headers, rows, title="Overhead decomposition (measured ns by mechanism)"
        )

    def report(self, *, messages: int | None = None) -> str:
        """Everything: locks, utilization, PIOMan, decomposition."""
        parts = [
            self.lock_table(),
            "",
            self.utilization_table(),
            "",
            self.pioman_table(),
            "",
            self.decomposition_table(messages=messages),
        ]
        if self.dropped_events:
            parts.append(
                f"!! {self.dropped_events} trace event(s) dropped by ring "
                f"buffers; trace-derived views are partial"
            )
        return "\n".join(parts)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry captures={self.captures} locks={len(self.locks)} "
            f"cores={len(self.cores)}>"
        )
