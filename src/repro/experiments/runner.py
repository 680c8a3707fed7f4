"""Text reporting for the experiments, and :func:`run_all` behind
``repro experiments``."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def fig4_report(result) -> str:
    """Figure 4(a) + 4(b) as two text tables."""
    counts = sorted({p.n_queries for p in result.points})
    skews = sorted({p.skew for p in result.points})

    def table(metric: str, title: str) -> str:
        headers = ["#Queries"] + [
            ("uniform" if s == 0 else f"zipf{s:g}") for s in skews
        ]
        rows = []
        for count in counts:
            row: List[object] = [count]
            for skew in skews:
                row.append(getattr(result.point(skew, count), metric))
            rows.append(row)
        return render_table(headers, rows, title)

    return (
        table("benefit_ratio", "Figure 4(a): Benefit Ratio")
        + "\n\n"
        + table("grouping_ratio", "Figure 4(b): Grouping Ratio")
    )


def fig3_report(result) -> str:
    rows = [
        ["n1-n2 link bytes", result.shared_link_bytes_nonshare, result.shared_link_bytes_share],
        ["total result bytes", result.total_bytes_nonshare, result.total_bytes_share],
    ]
    table = render_table(
        ["metric", "non-share", "share"],
        rows,
        "Figure 3: result stream delivery",
    )
    return (
        f"{table}\n"
        f"shared-link saving: {result.shared_link_saving:.1%}, "
        f"results identical: {result.results_identical}"
    )


def table1_report(result) -> str:
    lines = [
        "Table 1: representative query and split profiles",
        f"  q3 := {result.representative_cql}",
        f"  equivalent to paper's q3: {result.matches_paper_q3}",
        f"  q1 contained: {result.contains_q1}, q2 contained: {result.contains_q2}",
        f"  p1: P={list(result.p1_projection)} F=[{result.p1_filter}]",
        f"  p2: P={list(result.p2_projection)} F=[{result.p2_filter}]",
        f"  q1 results: direct={result.q1_direct} via split={result.q1_via_split}",
        f"  q2 results: direct={result.q2_direct} via split={result.q2_via_split}",
        f"  split reproduces direct execution: {result.split_reproduces_direct}",
    ]
    return "\n".join(lines)


def run_all(full: bool = False) -> int:
    """Run every experiment and print the reports (``repro experiments``);
    ``full`` runs Figure 4 at paper scale."""
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.fig4 import Fig4Config, run_fig4
    from repro.experiments.table1 import run_table1

    print(table1_report(run_table1()))
    print()
    print(fig3_report(run_fig3()))
    print()
    print(fig4_report(run_fig4(Fig4Config.paper_scale() if full else None)))
    return 0
