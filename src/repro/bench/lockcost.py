"""Microbenchmarks of the locking primitives themselves (§3.1 text).

E7: the paper measures 70 ns per spinlock acquire/release cycle and counts
two cycles per message under coarse-grain locking.  These functions measure
the cycle on the simulated machine and count the actual lock traffic of one
message under each policy.
"""

from __future__ import annotations

from functools import partial

from repro.bench.config import BenchConfig
from repro.bench.runner import run_sweep
from repro.core.session import build_testbed
from repro.sim import Acquire, Delay, Engine, Machine, Release, SpinLock, quad_xeon_x5460
from repro.util.records import ResultSet


def measure_spin_cycle_ns(cycles: int = 1_000) -> float:
    """Average cost of an uncontended acquire/release cycle."""
    if cycles <= 0:
        raise ValueError("cycles must be > 0")
    engine = Engine()
    machine = Machine(engine, quad_xeon_x5460())
    lock = SpinLock("bench", costs=machine.costs)

    def worker():
        for _ in range(cycles):
            yield Acquire(lock)
            yield Release(lock)

    t = machine.scheduler.spawn(worker(), name="w", core=0)
    engine.run(until=lambda: t.done)
    return engine.now / cycles


def measure_contended_handoff_ns(iterations: int = 200) -> float:
    """Average extra wait a contender pays when the lock is held for a
    fixed 500 ns critical section."""
    if iterations <= 0:
        raise ValueError("iterations must be > 0")
    engine = Engine()
    machine = Machine(engine, quad_xeon_x5460())
    lock = SpinLock("bench", costs=machine.costs)
    hold_ns = 500

    def holder():
        for _ in range(iterations):
            yield Acquire(lock)
            yield Delay(hold_ns)
            yield Release(lock)
            yield Delay(hold_ns)  # window for the contender

    def contender():
        for _ in range(iterations):
            yield Acquire(lock)
            yield Release(lock)
            yield Delay(hold_ns)

    th = machine.scheduler.spawn(holder(), name="h", core=0, bound=True)
    tc = machine.scheduler.spawn(contender(), name="c", core=1, bound=True)
    engine.run(until=lambda: th.done and tc.done)
    spin_ns = machine.cores[1].busy_ns("spin")
    return spin_ns / max(lock.contentions, 1)


def lock_cycles_per_message(policy: str) -> float:
    """Spinlock acquisitions on one message's path (the paper's 'held and
    released twice' accounting for coarse grain; three points for fine).

    One message is sent while the receiver sleeps; the receiver then runs
    exactly one progress pass to ingest it — so every counted acquisition
    belongs to the message path (no busy-wait poll noise).
    """
    bed = build_testbed(policy=policy)

    def sender():
        lib = bed.lib(0)
        req = yield from lib.isend(1, 3, 8)
        yield from lib.wait(req)

    def receiver():
        from repro.sim import Delay

        lib = bed.lib(1)
        req = yield from lib.irecv(0, 3, 8)
        yield Delay(50_000)  # message is in the NIC ring by now
        yield from lib.progress()
        assert req.done

    ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0, bound=True)
    tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0, bound=True)
    bed.run(until=lambda: ts.done and tr.done)
    acquisitions = sum(
        lock.acquisitions
        for lib in bed.libs
        for lock in lib.policy.lock_objects()
    )
    return float(acquisitions)


def spin_cycle_point(size: int) -> float:
    """The spin cycle in us; ``size`` is the size-less grid's 0."""
    return measure_spin_cycle_ns() / 1_000


def lock_cycles_point(policy: str, size: int) -> float:
    """:func:`lock_cycles_per_message` as a size-less grid point."""
    return lock_cycles_per_message(policy)


def run_lockcost() -> ResultSet:
    """§3.1 text: the spinlock cycle (us) and each policy's acquisitions
    per message, one size-less grid."""
    configs = {"spin cycle": spin_cycle_point}
    for policy in ("none", "coarse", "fine"):
        configs[f"cycles/msg ({policy})"] = partial(lock_cycles_point, policy)
    return run_sweep(
        "lockcost",
        configs,
        BenchConfig(sizes=(0,)),
        extra=lambda name, size: {} if name == "spin cycle" else {"unit": "acquisitions"},
    )
