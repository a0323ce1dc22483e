"""Collective-operation scaling over Mad-MPI.

The paper's future work points at "real applications that mix
multi-threading and message passing" through the MPI interface; this
sweep measures the building blocks: barrier / broadcast / allreduce time
as a function of communicator size, under a chosen locking policy.

Expected shapes: the binomial/dissemination algorithms scale as
⌈log₂ p⌉ network rounds; the ring allgather as p − 1 rounds.
"""

from __future__ import annotations

import operator
from functools import partial

from repro.bench.config import BenchConfig
from repro.bench.runner import run_sweep
from repro.core.session import build_testbed
from repro.madmpi import create_world, run_ranks
from repro.util.records import ResultSet

COLLECTIVES = ("barrier", "bcast", "allreduce", "allgather")


def _collective_gen(name: str, comm, payload):
    if name == "barrier":
        yield from comm.Barrier()
    elif name == "bcast":
        yield from comm.Bcast(payload if comm.rank == 0 else None, root=0)
    elif name == "allreduce":
        yield from comm.Allreduce(comm.rank + 1, operator.add)
    elif name == "allgather":
        yield from comm.Allgather(payload)
    else:
        raise ValueError(f"unknown collective {name!r}")


def collective_time_us(
    name: str,
    nodes: int,
    *,
    policy: str = "fine",
    rounds: int = 8,
    warmup: int = 2,
    payload_bytes: int = 64,
) -> float:
    """Mean time of one collective round over ``nodes`` ranks (us)."""
    if name not in COLLECTIVES:
        raise ValueError(f"unknown collective {name!r}; choose from {COLLECTIVES}")
    if rounds <= warmup:
        raise ValueError("rounds must exceed warmup")
    bed = build_testbed(nodes=nodes, policy=policy)
    comms = create_world(bed)
    payload = b"x" * payload_bytes
    times: list[int] = []

    def rank_fn(comm):
        for i in range(rounds):
            start = bed.engine.now
            yield from _collective_gen(name, comm, payload)
            if comm.rank == 0:
                times.append(bed.engine.now - start)

    run_ranks(bed, comms, rank_fn)
    steady = times[warmup:]
    return sum(steady) / len(steady) / 1_000


def run_collective_scaling(
    node_counts: tuple[int, ...] = (2, 3, 4, 6), *, policy: str = "fine"
) -> ResultSet:
    """Collective time vs. communicator size (the node counts ride on the
    sweep's size axis)."""
    return run_sweep(
        "collectives",
        {
            name: partial(collective_time_us, name, policy=policy)
            for name in COLLECTIVES
        },
        BenchConfig(sizes=tuple(node_counts)),
        extra=lambda name, nodes: {"policy": policy},
    )
