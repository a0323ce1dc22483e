"""Measurement functions for the cache-affinity experiments (Fig. 8, §4.1)
and the dedicated-core computation-loss experiment (§3.3).

Figure 8's instrument: "a pingpong test that binds the main thread to a
CPU" while the polling is delegated to a chosen core — here via PIOMan's
``poll_cores`` and passive waiting, so every completion crosses from the
polling core to CPU 0.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.bench.config import BenchConfig
from repro.bench.pingpong import run_pingpong
from repro.bench.runner import run_sweep
from repro.core.session import build_testbed
from repro.core.waiting import BusyWait, FlagSpinWait
from repro.pioman.integration import attach_pioman
from repro.sim.process import Delay, SimGen, YieldCore
from repro.sim.topology import CacheTopology, dual_quad_xeon, quad_xeon_x5460
from repro.util.records import ResultSet


def polling_latency(
    poll_core: int,
    size: int,
    cfg: BenchConfig,
    *,
    topology_factory: Callable[[], CacheTopology] = quad_xeon_x5460,
) -> float:
    """Pingpong latency (us) with the app thread bound to CPU 0 and the
    polling bound to ``poll_core`` on both nodes.

    ``poll_core == 0`` is the baseline: the application thread polls
    itself (ordinary busy waiting).  For other cores, the application only
    spins on the completion flag while PIOMan polls from the chosen core's
    idle loop — so the delta over the baseline is the poller-to-waiter
    cache transfer, exactly what Fig. 8 plots.
    """
    bed = build_testbed(
        policy="fine",
        topology_factory=topology_factory,
        seed=cfg.seed,
        jitter_ns=cfg.jitter_ns,
    )
    for node in (0, 1):
        attach_pioman(bed.machine(node), [bed.lib(node)], poll_cores=[poll_core])
    wait_factory = BusyWait if poll_core == 0 else FlagSpinWait
    res = run_pingpong(
        bed,
        size,
        iterations=cfg.iterations,
        warmup=cfg.warmup,
        wait_factory=wait_factory,
        core_a=0,
        core_b=0,
    )
    return res.latency_us


def run_fig8(cfg: BenchConfig) -> ResultSet:
    """Figure 8: polling on CPU 0/1/2/3 of the quad-core Xeon X5460."""
    configs = {
        f"polling on cpu {core}": partial(polling_latency, core, cfg=cfg)
        for core in range(4)
    }
    return run_sweep("fig8", configs, cfg)


def run_fig8b(cfg: BenchConfig) -> ResultSet:
    """§4.1 in-text: the same experiment on the dual quad-core node.

    CPU 1 shares a cache with CPU 0, CPUs 2-3 share the chip only, CPUs
    4-7 sit on the other chip; one representative of each tier is enough.
    """
    configs = {
        f"polling on cpu {core}": partial(
            polling_latency, core, cfg=cfg, topology_factory=dual_quad_xeon
        )
        for core in (0, 1, 2, 4)
    }
    return run_sweep("fig8b", configs, cfg)


# ---------------------------------------------------------------- §3.3 (E8)


def _compute_loop(stop_flag: dict, counter: list, quantum_ns: int) -> SimGen:
    """A compute thread: burn fixed quanta, count completed units, yield so
    equal-priority threads share the core fairly."""
    while not stop_flag["stop"]:
        yield Delay(quantum_ns, "compute")
        counter[0] += 1
        yield YieldCore()


def dedicated_core_throughput(
    *,
    dedicate: bool,
    nthreads: int = 4,
    duration_ns: int = 2_000_000,
    quantum_ns: int = 5_000,
) -> int:
    """§3.3: aggregate compute units finished on a quad-core node within
    ``duration_ns``, with or without one core dedicated to communication
    polling.  The paper: "dedicating one core to communication leads to up
    to 25 % decrease of the computation power"."""
    from repro.sim import Engine, Machine

    engine = Engine()
    machine = Machine(engine, quad_xeon_x5460())
    usable = machine.ncores - (1 if dedicate else 0)
    stop = {"stop": False}
    counter = [0]
    for i in range(nthreads):
        machine.scheduler.spawn(
            _compute_loop(stop, counter, quantum_ns),
            name=f"compute{i}",
            core=i % usable,
            bound=True,
        )
    if dedicate:
        # the dedicated core busy-polls the (idle) network for the whole run
        def poller():
            while not stop["stop"]:
                yield Delay(100, "poll")

        machine.scheduler.spawn(
            poller(), name="dedicated-poller", core=machine.ncores - 1, bound=True
        )
    engine.run(until=lambda: engine.now >= duration_ns, max_time=duration_ns * 2)
    stop["stop"] = True
    machine.check_failures()
    return counter[0]


def dedicated_core_loss(**kw) -> float:
    """Fractional compute-throughput loss from dedicating one core."""
    full = dedicated_core_throughput(dedicate=False, **kw)
    reduced = dedicated_core_throughput(dedicate=True, **kw)
    if full == 0:
        raise RuntimeError("compute loop made no progress")
    return (full - reduced) / full


def dedicated_core_point(size: int, duration_ns: int) -> float:
    """:func:`dedicated_core_loss` as a size-less grid point."""
    return dedicated_core_loss(duration_ns=duration_ns)


def run_dedicated_core(duration_ns: int = 2_000_000) -> ResultSet:
    """§3.3 text: the compute throughput lost to a dedicated polling core."""
    return run_sweep(
        "dedicated-core",
        {"throughput loss": partial(dedicated_core_point, duration_ns=duration_ns)},
        BenchConfig(sizes=(0,)),
        extra=lambda name, size: {"unit": "fraction"},
    )
