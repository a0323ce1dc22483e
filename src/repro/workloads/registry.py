"""The scenario registry: named application-shaped workloads.

A :class:`Scenario` bundles a sweep axis (what the ``size`` column of its
:class:`~repro.util.records.ResultSet` means), optional variants (extra
series beside the mechanism grid, e.g. the pipeline's funneled vs.
multiple split) and a *module-level* point function, so scenario points
have a plain-data key and can be cached and fan out across worker
processes exactly like the figure sweeps (:mod:`repro.bench.runner`).

Scenario modules call :func:`register` at import time;
:func:`repro.workloads.registry.load_all` imports every built-in scenario
module so ``names()`` is complete.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

#: (mech_key, variant, seed, size) -> simulated makespan in microseconds
PointFn = Callable[[str, str, int, int], float]

#: scenario modules imported by :func:`load_all`
_BUILTIN_MODULES = (
    "repro.workloads.stencil",
    "repro.workloads.bursty",
    "repro.workloads.fanin",
    "repro.workloads.pipeline",
    "repro.workloads.contention",
)


@dataclass(frozen=True)
class Scenario:
    """One registered workload."""

    name: str
    title: str
    description: str
    #: what the sweep axis (the record ``size`` field) measures
    axis: str
    sizes: tuple[int, ...]
    quick_sizes: tuple[int, ...]
    point: PointFn
    #: extra series per mechanism ("" = none); each variant becomes its
    #: own config label, e.g. ``fine/busy/inline [funneled]``
    variants: tuple[str, ...] = ("",)

    def __post_init__(self) -> None:
        if not self.sizes or not self.quick_sizes:
            raise ValueError(f"scenario {self.name!r} needs non-empty sizes")
        if not self.variants:
            raise ValueError(f"scenario {self.name!r} needs >= 1 variant")

    def sweep_sizes(self, quick: bool) -> tuple[int, ...]:
        return self.quick_sizes if quick else self.sizes


_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (idempotent re-registration of the
    identical object is allowed; name collisions are errors)."""
    existing = _REGISTRY.get(scenario.name)
    if existing is not None and existing is not scenario:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def load_all() -> None:
    """Import every built-in scenario module (their ``register`` calls
    populate the registry)."""
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def names() -> list[str]:
    """Registered scenario names, sorted."""
    load_all()
    return sorted(_REGISTRY)


def get(name: str) -> Scenario:
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
