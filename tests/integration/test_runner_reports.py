"""The experiment runner's reporting helpers."""

import pytest

from repro.experiments.fig3 import Fig3Result
from repro.experiments.fig4 import Fig4Config, Fig4Point, Fig4Result
from repro.experiments.runner import (
    fig3_report,
    fig4_report,
    render_table,
    table1_report,
)
from repro.experiments.table1 import Table1Result


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "long header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line}) == 1  # all equal width

    def test_title(self):
        text = render_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = render_table(["v"], [[0.123456]])
        assert "0.123" in text and "0.1234" not in text

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestFig4Report:
    def test_contains_both_subfigures(self):
        config = Fig4Config(query_counts=(10,), skews=(0.0, 2.0), repetitions=1)
        points = [
            Fig4Point(0.0, 10, 0.1, 0.9),
            Fig4Point(2.0, 10, 0.5, 0.3),
        ]
        text = fig4_report(Fig4Result(config, points))
        assert "Figure 4(a)" in text and "Figure 4(b)" in text
        assert "uniform" in text and "zipf2" in text

    def test_point_lookup(self):
        config = Fig4Config(query_counts=(10,), skews=(0.0,), repetitions=1)
        result = Fig4Result(config, [Fig4Point(0.0, 10, 0.1, 0.9)])
        assert result.point(0.0, 10).benefit_ratio == 0.1
        with pytest.raises(KeyError):
            result.point(1.0, 10)

    def test_series_sorted(self):
        config = Fig4Config(query_counts=(10, 20), skews=(0.0,), repetitions=1)
        result = Fig4Result(
            config,
            [Fig4Point(0.0, 20, 0.2, 0.8), Fig4Point(0.0, 10, 0.1, 0.9)],
        )
        assert [p.n_queries for p in result.series(0.0)] == [10, 20]


class TestFig3Report:
    def test_summary_line(self):
        result = Fig3Result(
            n_items=10,
            q1_results=5,
            q2_results=8,
            results_identical=True,
            shared_link_bytes_nonshare=100.0,
            shared_link_bytes_share=80.0,
            total_bytes_nonshare=200.0,
            total_bytes_share=180.0,
        )
        text = fig3_report(result)
        assert "20.0%" in text
        assert "True" in text

    def test_zero_division_guard(self):
        result = Fig3Result(0, 0, 0, True, 0.0, 0.0, 0.0, 0.0)
        assert result.shared_link_saving == 0.0


class TestTable1Report:
    def test_mentions_profiles(self):
        result = Table1Result(
            representative_cql="SELECT ...",
            matches_paper_q3=True,
            contains_q1=True,
            contains_q2=True,
            p1_projection=("OpenAuction.itemID",),
            p1_filter="f1",
            p2_projection=("ClosedAuction.buyerID",),
            p2_filter="TRUE",
            q1_direct=3,
            q1_via_split=3,
            q2_direct=4,
            q2_via_split=4,
            split_reproduces_direct=True,
        )
        text = table1_report(result)
        assert "p1:" in text and "p2:" in text
        assert "direct=3" in text
