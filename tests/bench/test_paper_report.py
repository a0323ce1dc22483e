"""Unit tests for the paper-claim registry and report rendering."""

from functools import partial

import pytest

from repro.bench import figures
from repro.bench.paper import (
    CLAIMS,
    PaperClaim,
    claim,
    evaluate,
    mean_delta,
    offset,
    point,
)
from repro.bench.report import figure_table, print_figure, verdict_block
from repro.util.records import ResultRecord, ResultSet


def bogus_claim(statistic=partial(point, "none", 1, 1), expected=0, tolerance=1):
    return PaperClaim(
        "bogus", "Fig", "d", expected=expected, tolerance=tolerance,
        artefact="sample", statistic=statistic,
    )


class TestClaims:
    def test_registry_covers_every_figure(self):
        experiments = {c.experiment for c in CLAIMS.values()}
        for figure in ("Figure 3", "Figure 5", "Figure 6", "Figure 7",
                       "Figure 8", "Figure 9"):
            assert any(figure in e for e in experiments), figure

    def test_check_inside_tolerance(self):
        c = bogus_claim(expected=100, tolerance=10)
        assert c.check(105)
        assert c.check(90)
        assert not c.check(111)

    def test_verdict_strings(self):
        c = bogus_claim(expected=100, tolerance=10)
        assert c.verdict(100).startswith("[OK ]")
        assert c.verdict(500).startswith("[OFF]")

    def test_lookup(self):
        assert claim("fig3-coarse-offset").expected == 140
        with pytest.raises(KeyError):
            claim("fig99")

    def test_paper_constants(self):
        assert claim("fig3-fine-offset").expected == 230
        assert claim("fig6-pioman-offset").expected == 200
        assert claim("fig7-passive-offset").expected == 750
        assert claim("fig8-shared-l2").expected == 400
        assert claim("fig8-no-shared-cache").expected == 1_200
        assert claim("fig8b-same-chip").expected == 2_300
        assert claim("fig8b-other-chip").expected == 3_100
        assert claim("fig9-tasklet-offset").expected == 2_000
        assert claim("text-spin-cycle").expected == 70
        assert claim("text-dedicated-core").expected == 0.25


def sample_results():
    rs = ResultSet()
    for config, base in (("none", 3.0), ("coarse", 3.14)):
        for size in (1, 1024):
            rs.add(ResultRecord("fig3", config, size, base + size / 10_000))
    return rs


class TestReport:
    def test_figure_table_layout(self):
        text = figure_table(sample_results(), title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "none" in lines[2] and "coarse" in lines[2]
        assert lines[4].startswith("1 ")
        assert lines[5].startswith("1K")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            figure_table(ResultSet(), title="T")

    def test_missing_point_dashed(self):
        rs = sample_results()
        rs.add(ResultRecord("fig3", "fine", 1, 3.2))  # only one size
        text = figure_table(rs, title="T")
        table_lines = [
            line for line in text.splitlines() if not line.startswith("!!")
        ]
        assert "-" in table_lines[-1]

    def test_missing_point_flagged_loudly(self):
        # a hole must never render as just a quiet dash: the footnote
        # names the exact missing cells
        rs = sample_results()
        rs.add(ResultRecord("fig3", "fine", 1, 3.2))  # fine@1K missing
        text = figure_table(rs, title="T")
        assert "!! INCOMPLETE SWEEP: 1 missing point(s)" in text
        assert "fine@1K" in text

    def test_complete_sweep_has_no_footnote(self):
        text = figure_table(sample_results(), title="T")
        assert "INCOMPLETE" not in text

    def test_many_holes_elided(self):
        rs = ResultSet()
        sizes = list(range(1, 12))
        for size in sizes:
            rs.add(ResultRecord("fig3", "a", size, 1.0))
        rs.add(ResultRecord("fig3", "b", 1, 1.0))  # b missing at 10 sizes
        text = figure_table(rs, title="T")
        assert "10 missing point(s)" in text
        assert text.rstrip().endswith("...")

    def test_missing_points_render_order(self):
        rs = sample_results()
        rs.add(ResultRecord("fig3", "fine", 1, 3.2))
        assert rs.missing_points() == [("fine", 1024)]
        assert sample_results().missing_points() == []

    def test_verdicts(self):
        c = claim("fig3-coarse-offset")
        block = verdict_block([(c, 140.0), (c, 999.0)])
        assert "[OK ]" in block and "[OFF]" in block

    def test_print_figure_returns_text(self, capsys):
        text = print_figure(sample_results(), title="T")
        out = capsys.readouterr().out
        assert text in out


class TestClaimStatistics:
    """A statistic that names a config or size its grid lacks fails
    loudly, naming the claim and the missing piece."""

    @pytest.mark.parametrize(
        "statistic, missing",
        [
            (partial(offset, "none", "nonsense"), "'nonsense'"),
            (partial(mean_delta, "none", ("coarse", "nonsense")), "'nonsense'"),
            (partial(point, "coarse", 64, 1), "('coarse', 64)"),
        ],
    )
    def test_missing_config_or_size_names_the_claim(
        self, monkeypatch, statistic, missing
    ):
        monkeypatch.setitem(CLAIMS, "bogus", bogus_claim(statistic))
        with pytest.raises(KeyError) as err:
            evaluate("sample", sample_results())
        assert "claim 'bogus' on 'sample'" in err.value.args[0]
        assert missing in err.value.args[0]

    def test_bogus_claim_fails_its_artefact(self, monkeypatch):
        bogus = PaperClaim(
            "bogus", "§3.1", "d", expected=0, tolerance=1, artefact="lockcost",
            statistic=partial(point, "spin cycles", 0, 1_000),
        )
        monkeypatch.setitem(CLAIMS, "bogus", bogus)
        with pytest.raises(KeyError, match="claim 'bogus' on 'lockcost'.*'spin cycles'"):
            figures.FIGURES["lockcost"](True)

    def test_claims_evaluate_in_registry_order(self):
        rs = sample_results()
        rs.extend(ResultRecord("fig3", "fine", s, 3.3) for s in (1, 1024))
        assert [c.claim_id for c, _ in evaluate("fig3", rs)] == [
            "fig3-coarse-offset", "fig3-fine-offset", "fig3-offset-flat",
        ]
        assert evaluate("decompose", rs) == []
