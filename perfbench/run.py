#!/usr/bin/env python3
"""Host-performance benchmark of the simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload: set-up time
over several fresh interpreters, then untraced passes for ``--seconds``
in a fresh process (wall time per pass, and peak memory after one pass).
``--trace 1`` measures the per-layer metrics instead: rounds of an
untraced pass and a pass at two workers, then, in a fresh process, one
pass under cProfile with exact work counters read from every testbed
built.  Each layer is measured from outside the program: cProfile self
time bucketed by module (``perfbench/analysis.py``), public counters of
the testbeds, and timed calls into public functions.

Either way every figure and scenario output is checked: ResultSet
SHA-256 digests against ``perfbench/golden.json`` (figures) or across
passes (scenarios), every point finite, every paper claim within its
tolerance, and exported traces that repeat across passes.  A report
goes to standard output, followed by one JSON line::

    {"correct": true, "attempted": 375, "failed": 0, "metrics": {...}}

``failed`` counts the points of every figure or scenario that raised;
``correct`` is false, and the exit status 1, when an output that was
produced is wrong.

The measuring processes run with ``src`` on ``PYTHONPATH``; their files
live under ``.perfbench-work/`` in the repository and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import analysis  # noqa: E402
from perfbench.session import REFERENCE_S, WORKLOADS  # noqa: E402

GOLDEN = os.path.join(ROOT, "perfbench", "golden.json")

#: fresh interpreters timed for ``setup_s`` (after one unmeasured start
#: that compiles the bytecode cache)
SETUP_SAMPLES = 5

#: seconds after its start at which a run kills its measuring processes
DEADLINE_S = 170.0

#: variables that would change what the measuring processes run
_ENV_KNOBS = ("REPRO_BENCH_WORKERS", "REPRO_BENCH_CACHE", "REPRO_BENCH_CACHE_DIR")


class BenchError(RuntimeError):
    """A measuring process failed; no result can be reported."""


class Runner:
    """Starts measuring processes against one run's deadline."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k not in _ENV_KNOBS}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
        )

    def child(self, mode: str, *args: str) -> dict:
        """Run ``perfbench.session`` in a fresh interpreter; its last line
        of output is the result.  A process that outlives the deadline, or
        this run, is killed together with any pool it started."""
        cmd = [sys.executable, "-m", "perfbench.session", mode, *args]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"session {mode} exceeded the run deadline") from None
            raise
        if proc.returncode != 0:
            raise BenchError(f"session {mode} failed:\n{err[-4000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def workload_args(self, workload: str, seed: int, seconds: float) -> list[str]:
        return [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--workdir", self.workdir,
        ]


class Checker:
    """Accumulates output problems and point counts over passes."""

    def __init__(self, workload: str, golden: dict) -> None:
        self.workload = workload
        self.golden = golden["figures"]
        #: outputs that are wrong (``correct`` is false)
        self.problems: list[str] = []
        #: figures or scenarios that raised: their points count as failed
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.scenario_digests: dict[str, str] = {}
        self.trace_sha: str | None = None

    def check(self, label: str, result: dict) -> None:
        digests = {}
        for item in result["items"]:
            name = item["name"]
            if "expected_points" in item:
                expected = item["expected_points"]
            elif name in self.golden:
                expected = self.golden[name]["points"]
            else:
                expected = item.get("points", 0)
                self.problems.append(f"{label}: {name} has no golden digest")
            self.attempted += expected
            if item["error"]:
                self.failed += expected
                self.failures.append(f"{label}: {name} raised\n{item['error']}")
                continue
            self.failed += item["bad_points"]
            if item["bad_points"]:
                self.problems.append(f"{label}: {name} has non-finite points")
            if item["points"] != expected:
                self.problems.append(
                    f"{label}: {name} has {item['points']} points, not {expected}"
                )
            for claim_id, measured, *_rest, ok in item["claims"]:
                if not ok:
                    self.problems.append(f"{label}: claim {claim_id} off ({measured})")
            digests[name] = item["digest"]
        if self.workload == "workloads-full":
            for name, digest in digests.items():
                first = self.scenario_digests.setdefault(name, digest)
                if digest != first:
                    self.problems.append(f"{label}: {name} digest changed")
        else:
            expected = {
                item["name"]: self.golden.get(item["name"], {}).get("sha256")
                for item in result["items"] if not item["error"]
            }
            self.problems += analysis.digest_problems(digests, expected, label)
        obs = result.get("obs")
        if obs is not None:
            self.problems += [f"{label}: trace {p}" for p in obs.get("trace_problems", [])]
            if self.trace_sha is None:
                self.trace_sha = obs["trace_sha256"]
            elif obs["trace_sha256"] != self.trace_sha:
                self.problems.append(f"{label}: exported trace changed")


def claims_of(result: dict) -> list[list]:
    return [c for item in result["items"] for c in item["claims"]]


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float, golden: dict):
    runner.child("setup")
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    checker = Checker(workload, golden)
    args = runner.workload_args(workload, seed, seconds)
    measured = runner.child("measure", *args)
    passes = measured["passes"]
    for i, result in enumerate(passes):
        checker.check(f"pass {i}", result)
    # host speed relative to the reference host, gauged by the reference
    # work run between the figures or scenarios of each pass; set-up runs
    # just before the passes and takes the median speed of the run
    speeds = [REFERENCE_S / p["ref_s"] for p in passes]
    suite = analysis.summarize(p["wall_s"] * v for p, v in zip(passes, speeds))
    run_speed = analysis.summarize(speeds)
    setup_sum = analysis.summarize(s * run_speed["median"] for s in setups)
    rows = [
        ("suite_s", "s", suite),
        ("suite_wall_s", "s", analysis.summarize(p["wall_s"] for p in passes)),
        ("setup_s", "s", setup_sum),
        ("setup_wall_s", "s", analysis.summarize(setups)),
        ("host_speed", "x", run_speed),
        ("peak_rss_mb", "MB", analysis.summarize([measured["peak_rss_mb"]])),
        ("points_failed_pct", "%", analysis.summarize(
            [100.0 * analysis.ratio(checker.failed, checker.attempted)]
        )),
    ]
    claims = claims_of(passes[0])
    if claims:
        rows.append(("claims_failed", "count", analysis.summarize(
            [sum(1 for c in claims if not c[-1])]
        )))
        rows.append(("claim_error", "ratio", analysis.summarize(
            [analysis.claim_error((c[1], c[2], c[3]) for c in claims)]
        )))
    lines = [
        "suite_s and setup_s are wall times at the reference host speed; the",
        "*_wall_s rows are as measured, host_speed is their ratio",
        f"{'metric':<20} {'unit':<6} {'median':>12} {'IQR':>10} {'n':>4}",
    ]
    lines += [
        f"{name:<20} {unit:<6} {s['median']:>12.6g} {s['iqr']:>10.4g} {s['n']:>4}"
        for name, unit, s in rows
    ]
    if claims:
        lines.append(f"claims evaluated per pass: {len(claims)}")
    metrics = {
        "suite_s": {"value": suite["median"], "unit": "s"},
        "setup_s": {"value": setup_sum["median"], "unit": "s"},
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
    }
    return checker, metrics, lines


def per_layer(runner: Runner, workload: str, seed: int, seconds: float, golden: dict):
    checker = Checker(workload, golden)
    args = runner.workload_args(workload, seed, seconds)
    rounds = runner.child("rounds", *args)["rounds"]
    prof = runner.child("profile", *args)
    for i, one in enumerate(rounds):
        for kind, result in one.items():
            if result is not None:
                checker.check(f"round {i} {kind}", result)
    checker.check("traced", prof["traced"])

    def median(kind: str, key: str = "wall_s", part: str | None = None) -> float:
        values = [(r[kind][part] if part else r[kind])[key] for r in rounds]
        return analysis.summarize(values)["median"]

    traced, c = prof["traced"], prof["counters"]
    layers, cache = prof["layers"], traced["cache"]
    events = c["events"]
    m: dict[str, tuple[float, str]] = {}
    for layer in analysis.LAYERS:
        m[f"{layer}.self_s"] = (layers["self_s"][layer], "s")
        m[f"{layer}.calls"] = (layers["calls"][layer], "count")
    m["sim.engine.events"] = (events, "count")
    m["sim.engine.ns_per_event"] = (
        analysis.ratio(layers["self_s"]["sim.engine"] * 1e9, events), "ns")
    m["calls_per_event"] = (analysis.ratio(layers["total_calls"], events), "calls/event")
    m["core.messages"] = (c["messages"], "count")
    m["core.events_per_msg"] = (analysis.ratio(events, c["messages"]), "events/msg")
    m["core.useful_pass_ratio"] = (
        analysis.ratio(c["useful_passes"], c["progress_passes"]), "ratio")
    m["net.empty_poll_ratio"] = (
        analysis.ratio(c["nic_empty_polls"], c["nic_polls"]), "ratio")
    m["pioman.polls"] = (c["pioman_polls"], "count")
    m["pioman.useful_poll_ratio"] = (
        analysis.ratio(c["pioman_useful"], c["pioman_polls"]), "ratio")
    m["sim.scheduler.ctx_switches"] = (c["ctx_switches"], "count")
    m["sim.sync.acquisitions"] = (c["lock_acquisitions"], "count")
    m["sim.sync.contended_ratio"] = (
        analysis.ratio(c["lock_contentions"], c["lock_acquisitions"]), "ratio")
    for key in ("hits", "misses", "stores"):
        m[f"bench.cache.{key}"] = (cache[key], "count")
    m["bench.cache.get_s"] = (prof["cache_s"]["get"], "s")
    m["bench.cache.put_s"] = (prof["cache_s"]["put"], "s")
    # sizes come from the process's first pass: request ids are numbered
    # process-wide, so later traces and cached captures spell longer ids
    first = rounds[0]["base"]
    m["bench.cache.bytes"] = (first["cache"]["bytes"], "B")
    observed = workload == "figures-traced"
    m["obs.trace_events"] = (first["obs"]["trace_events"] if observed else 0, "count")
    m["obs.dropped"] = (first["obs"]["dropped"] if observed else 0, "count")
    for key in ("record_s", "export_s", "report_s"):
        m[f"obs.{key}"] = (median("base", key, "obs") if observed else 0.0, "s")
    m["obs.trace_bytes"] = (first["obs"]["trace_bytes"] if observed else 0, "B")
    m["obs.overhead_pct"] = (
        100.0 * (m["obs.record_s"][0] / median("plain") - 1.0) if observed else 0.0,
        "%",
    )
    base_s = median("base")
    m["trace_overhead_pct"] = (100.0 * (traced["wall_s"] / base_s - 1.0), "%")
    fit = analysis.amdahl(base_s, median("w2"), 2)
    m["bench.parallel.speedup_2w"] = (fit["speedup"], "x")
    m["bench.parallel.efficiency_2w"] = (fit["efficiency"], "ratio")
    m["bench.parallel.serial_fraction"] = (fit["serial_fraction"], "ratio")
    lines = [f"{'metric':<32} {'unit':<12} {'value':>14}"]
    lines += [f"{name:<32} {unit:<12} {value:>14.6g}" for name, (value, unit) in m.items()]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    return checker, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its measuring processes (Runner.child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        runner = Runner(workdir)
        if args.trace:
            checker, metrics, lines = per_layer(
                runner, args.workload, args.seed, args.seconds, golden
            )
        else:
            checker, metrics, lines = end_to_end(
                runner, args.workload, args.seed, args.seconds, golden
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)  # only when no other run is using it
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("\n".join(lines))
    print(
        f"points: {checker.attempted} attempted, {checker.failed} failed; "
        f"output checks: {'FAILED' if checker.problems else 'all passed'}"
    )
    for failure in checker.failures:
        print(f"  failure: {failure}")
    for problem in checker.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 1 if checker.problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
