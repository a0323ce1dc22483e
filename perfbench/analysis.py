"""Pure arithmetic of the benchmark: layer attribution of a cProfile run,
summary statistics, claim fidelity, the Amdahl fit and the output check.

Nothing here imports ``repro``; every function takes plain data so the
benchmark's own tests can exercise it without running a simulation.
"""

from __future__ import annotations

import os
import statistics
from typing import Iterable, Mapping

#: reported layers, in reporting order.  ``rt`` (the real-thread ablation)
#: is mapped but never reported: no user path runs it.
LAYERS = (
    "sim.engine",
    "sim.scheduler",
    "sim.sync",
    "core",
    "pioman",
    "net",
    "madmpi",
    "workloads",
    "bench",
    "bench.cache",
    "bench.parallel",
    "obs",
)

#: module prefix -> layer; the longest matching prefix wins, so every
#: module of the package maps to exactly one layer.  The machine model's
#: support modules (costs, rng, topology, errors, debug) ride with
#: ``sim.scheduler``; analysis fits and result records serve the figure
#: drivers and ride with ``bench``.
LAYER_PREFIXES: dict[str, str] = {
    "repro": "bench",
    "repro.sim": "sim.scheduler",
    "repro.sim.engine": "sim.engine",
    "repro.sim.sync": "sim.sync",
    "repro.sim.trace": "obs",
    "repro.core": "core",
    "repro.pioman": "pioman",
    "repro.net": "net",
    "repro.madmpi": "madmpi",
    "repro.workloads": "workloads",
    "repro.bench": "bench",
    "repro.bench.cache": "bench.cache",
    "repro.bench.parallel": "bench.parallel",
    "repro.analysis": "bench",
    "repro.util": "bench",
    "repro.obs": "obs",
    "repro.rt": "rt",
}

#: bucket for time no layer owns: the benchmark's own frames and the
#: profiler's root frames
UNATTRIBUTED = "unattributed"


def module_of(filename: str) -> str | None:
    """Dotted ``repro`` module name of a source file, or ``None`` for files
    outside the package (stdlib, builtins, the benchmark itself)."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts):
            tail = parts[i + 1:]
            if not tail[-1].endswith(".py"):
                return None
            tail[-1] = tail[-1][:-3]
            if tail[-1] == "__init__":
                tail.pop()
            return ".".join(["repro", *tail])
    return None


def layer_of_module(module: str) -> str | None:
    """The layer owning a dotted module name (longest prefix), or ``None``
    when the module is not part of ``repro``."""
    name = module
    while name:
        if name in LAYER_PREFIXES:
            return LAYER_PREFIXES[name]
        name = name.rpartition(".")[0]
    return None


def attribute(stats: Mapping, own_prefixes: Iterable[str] = ()) -> dict:
    """Split a raw ``pstats.Stats.stats`` dict into per-layer numbers.

    A ``repro`` function's self time and call count belong to its layer.
    A stdlib or builtin function carries no layer: its self time is
    pro-rated over the layers that called it, by cProfile's per-caller
    time split (call counts when those round to zero), recursively
    through stdlib callers.  Frames of files under ``own_prefixes`` (the
    benchmark's own code) and frames with no caller stay
    :data:`UNATTRIBUTED`.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "total_calls": n}``.
    """
    own = tuple(os.path.abspath(p) + os.sep for p in own_prefixes)
    self_s = {layer: 0.0 for layer in (*LAYERS, "rt", UNATTRIBUTED)}
    calls = {layer: 0 for layer in (*LAYERS, "rt")}
    shares: dict = {}

    def direct_layer(func) -> str | None:
        filename = func[0]
        if own and os.path.abspath(filename).startswith(own):
            return UNATTRIBUTED
        module = module_of(filename)
        return layer_of_module(module) if module else None

    def share_of(func, visiting: frozenset) -> dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        if func in shares:
            return shares[func]
        layer = direct_layer(func)
        if layer is not None:
            return {layer: 1.0}
        entry = stats.get(func)
        callers = entry[4] if entry else {}
        if not callers or func in visiting:
            return {UNATTRIBUTED: 1.0}
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(v[1]) for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            return {UNATTRIBUTED: 1.0}
        out: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, frac in share_of(caller, visiting | {func}).items():
                out[layer] = out.get(layer, 0.0) + frac * weight / total
        shares[func] = out
        return out

    total_calls = 0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        total_calls += nc
        layer = direct_layer(func)
        if layer is not None and layer != UNATTRIBUTED:
            calls[layer] += nc
        for owner, frac in share_of(func, frozenset()).items():
            self_s[owner] += tt * frac
    return {"self_s": self_s, "calls": calls, "total_calls": total_calls}


def cumulative_s(stats: Mapping, module: str, funcnames: Iterable[str]) -> dict:
    """Cumulative (inclusive) seconds of named functions of one module,
    summed per function name."""
    out = {name: 0.0 for name in funcnames}
    for (filename, _line, funcname), entry in stats.items():
        if funcname in out and module_of(filename) == module:
            out[funcname] += entry[3]
    return out


def summarize(values: Iterable[float]) -> dict:
    """Median, quartiles, IQR and sample count of a sample.

    Quartiles follow :func:`statistics.quantiles` (``n=4``, exclusive
    method); with fewer than two samples the IQR is 0.
    """
    data = sorted(values)
    if not data:
        raise ValueError("summarize needs at least one value")
    median = statistics.median(data)
    if len(data) < 2:
        q1 = q3 = median
    else:
        q1, _q2, q3 = statistics.quantiles(data, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(data)}


def claim_error(claims: Iterable[tuple[float, float, float]]) -> float:
    """Mean of ``|measured - expected| / tolerance`` over ``(measured,
    expected, tolerance)`` triples: 0 is dead on, 1 is at the edge of the
    tolerance band, above 1 is a failed claim."""
    terms = [abs(m - e) / t for m, e, t in claims]
    if not terms:
        raise ValueError("claim_error needs at least one claim")
    return sum(terms) / len(terms)


def amdahl(t_serial: float, t_parallel: float, workers: int) -> dict:
    """Speedup, parallel efficiency and the serial fraction implied by
    Amdahl's law (the Karp-Flatt metric) from two wall times."""
    if t_serial <= 0 or t_parallel <= 0 or workers < 2:
        raise ValueError("amdahl needs positive times and >= 2 workers")
    speedup = t_serial / t_parallel
    serial = (1.0 / speedup - 1.0 / workers) / (1.0 - 1.0 / workers)
    return {
        "speedup": speedup,
        "efficiency": speedup / workers,
        "serial_fraction": serial,
    }


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def digest_problems(
    observed: Mapping[str, str], expected: Mapping[str, str], context: str
) -> list[str]:
    """Every output whose SHA-256 differs from, or is missing against,
    the expected digests."""
    problems = []
    for name in sorted(set(expected) | set(observed)):
        want, got = expected.get(name), observed.get(name)
        if want != got:
            problems.append(f"{context}: {name} digest {got} != expected {want}")
    return problems
