"""Integration: every figure regenerator runs and its claims hold.

These use the quick sweeps; the benchmarks/ directory runs the full ones.
"""

import pytest

from repro.bench import cache as bench_cache
from repro.bench import figures


@pytest.mark.parametrize("name", sorted(figures.FIGURES))
def test_figure_claims_hold_quick(name, monkeypatch):
    """Each figure's claims hold, and a warm re-run against the (per-test)
    point cache replays every point the cold run stored, byte for byte."""
    monkeypatch.setenv(bench_cache.CACHE_ENV, "1")
    start = bench_cache.stats()
    results, checks = figures.FIGURES[name](True)
    middle = bench_cache.stats()
    assert len(results) > 0
    assert not results.missing_points(), "figure sweep left grid holes"
    failed = [
        f"{c.claim_id}: expected {c.expected}±{c.tolerance}, measured {m:.3g}"
        for c, m in checks
        if not c.check(m)
    ]
    assert not failed, failed

    warm_results, warm_checks = figures.FIGURES[name](True)
    cold = middle.delta(start)
    warm = bench_cache.stats().delta(middle)
    assert cold.misses == cold.stores == len(results)
    assert warm.misses == 0
    assert warm.hits == cold.misses
    assert warm_results.to_json() == results.to_json()
    assert warm_checks == checks


def test_render_produces_table_and_verdicts(capsys):
    figures.render("lockcost", quick=True)
    out = capsys.readouterr().out
    assert "spin cycle" in out
    assert "[OK ]" in out


def test_render_unknown_figure():
    with pytest.raises(KeyError):
        figures.render("fig42")


def test_main_cli(capsys):
    assert figures.main(["lockcost", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "§3.1" in out or "spin" in out.lower()
