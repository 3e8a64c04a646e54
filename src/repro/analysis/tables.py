"""Plain-text table rendering for the benchmark harness.

The harness prints the same rows the paper's tables report; this module
keeps that printing consistent (fixed-width columns, aligned numerics)
without dragging in a dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import AnalysisError
from ..units import to_ps, to_uW


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width text table.

    Numeric cells are right-aligned, text cells left-aligned; floats are
    shown with 4 significant digits unless pre-formatted as strings.
    """
    rendered: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row has {len(row)} cells, table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        cells = []
        for i, cell in enumerate(row):
            if _is_numeric_string(cell):
                cells.append(cell.rjust(widths[i]))
            else:
                cells.append(cell.ljust(widths[i]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _is_numeric_string(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def campaign_comparison_table(rows: Iterable[dict]) -> str:
    """The paper's deterministic-vs-statistical table from artifact rows.

    ``rows`` are the plain-JSON dicts a campaign's report task assembles
    from store artifacts (see :mod:`repro.campaign.tasks`), one per
    (benchmark, margin, yield-target) point.  Cells for flows a row does
    not carry (a failed or disabled branch) render as ``-`` — failure
    isolation reaches all the way into the final table.
    """
    out_rows: List[List[object]] = []
    for row in rows:
        out_rows.append([
            row.get("circuit", "?"),
            picoseconds(float(row["target_delay"])) if "target_delay" in row else "-",
            _opt_uw(row.get("det_mean_leakage")),
            _opt_uw(row.get("stat_mean_leakage")),
            percent(float(row["extra_savings"])) if "extra_savings" in row else "-",
            _opt_yield(row.get("stat_yield")),
            _opt_yield(row.get("det_mc_yield")),
            _opt_yield(row.get("stat_mc_yield")),
        ])
    return format_table(
        [
            "circuit", "Tmax [ps]", "det leak [uW]", "stat leak [uW]",
            "extra savings", "stat yield", "MC yield (det)", "MC yield (stat)",
        ],
        out_rows,
        title="deterministic vs statistical leakage optimization",
    )


def _opt_uw(value: object) -> str:
    return microwatts(float(value)) if isinstance(value, (int, float)) else "-"


def _opt_yield(value: object) -> str:
    return f"{float(value):.4f}" if isinstance(value, (int, float)) else "-"


def percent(value: float) -> str:
    """Format a fraction as a percentage cell."""
    return f"{100.0 * value:.1f}%"


def microwatts(watts: float) -> str:
    """Format a power in microwatts."""
    return f"{to_uW(watts):.3f}"


def picoseconds(seconds: float) -> str:
    """Format a time in picoseconds."""
    return f"{to_ps(seconds):.1f}"
