"""The HTML observatory: one self-contained page over a run ledger.

``repro-fpga runs report`` renders a ledger (plus any traces its
records point at) into a single static HTML file: overview stat tiles,
a QoR table over every run, per-design convergence overlays (cost vs
cumulative move attempts, rebuilt from the recorded traces),
acceptance-trajectory sparklines, per-seed variance tables, and links
to the runs' artifacts (traces, snapshots, xray floorplan SVGs).

Determinism contract
--------------------
The page is **byte-identical given the same ledger inputs**: rendering
reads no wall clock and no RNG, floats are formatted through one fixed
helper, iteration follows record order or explicit sorts, and colors
are assigned from a fixed palette in slot order (never cycled; runs
past the palette fold to a neutral).  ``tests/test_ledger.py`` pins
the output against a committed golden file.

Everything is inline — CSS, SVG charts, data — so the file can be
attached to a CI run or mailed around with no external references
except the (relative) artifact links.
"""

from __future__ import annotations

import html
from typing import Optional, Sequence

from .events import RunTrace, reconstructed_cost
from .ledger import group_records, slice_stats

#: Categorical series colors (light mode), assigned in fixed slot
#: order, never cycled.  This is the validated default palette from
#: the dataviz reference instance: adjacent-pair CVD ΔE ≥ 8 and
#: normal-vision ΔE ≥ 15 in both modes.  Runs beyond the eighth slot
#: fold to the neutral :data:`OVERFLOW_COLOR`.
PALETTE_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
#: The same eight hues stepped for the dark surface.
PALETTE_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)
#: Neutral for series past the last palette slot.
OVERFLOW_COLOR = "#8a8984"


def _fmt(value, decimals: int = 4) -> str:
    """One deterministic number formatter for the whole page."""
    if value is None:
        return "–"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    return f"{value:.{decimals}g}"


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def series_color(slot: int) -> str:
    """CSS variable reference for one series slot (folds past the end)."""
    if slot < len(PALETTE_LIGHT):
        return f"var(--series-{slot + 1})"
    return "var(--series-overflow)"


# ----------------------------------------------------------------------
# Series extraction from traces
# ----------------------------------------------------------------------
def convergence_series(
    trace: RunTrace,
) -> tuple[list[float], list[float]]:
    """``(cumulative move attempts, scalar cost)`` per recorded stage.

    Simultaneous-flow stages reconstruct ``Wg*G + Wd*D + Wt*T`` from
    the recorded terms/weights (bit-exact, see
    :func:`repro.obs.events.reconstructed_cost`); sequential stages
    carry a scalar ``cost`` directly.  Stages with neither are skipped.
    """
    xs: list[float] = []
    ys: list[float] = []
    attempts = 0.0
    for stage in trace.stages:
        attempts += stage.get("attempts", 0)
        cost = stage.get("cost")
        if cost is None:
            cost = reconstructed_cost(stage)
        if cost is None:
            continue
        xs.append(attempts)
        ys.append(cost)
    return xs, ys


def acceptance_series(trace: RunTrace) -> list[float]:
    """Per-stage acceptance fractions, in stage order."""
    return [float(v) for v in trace.series("acceptance")]


# ----------------------------------------------------------------------
# SVG primitives
# ----------------------------------------------------------------------
def _points(
    xs: Sequence[float], ys: Sequence[float],
    x0: float, x1: float, y0: float, y1: float,
    left: float, right: float, top: float, bottom: float,
) -> str:
    """Polyline points mapping data space onto the plot rectangle."""
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    out = []
    for x, y in zip(xs, ys):
        px = left + (x - x0) / xspan * (right - left)
        py = bottom - (y - y0) / yspan * (bottom - top)
        out.append(f"{px:.1f},{py:.1f}")
    return " ".join(out)


def svg_sparkline(
    values: Sequence[float], width: int = 140, height: int = 30,
    color: str = "var(--series-1)", label: str = "",
) -> str:
    """A minimal inline-SVG sparkline (no axes, native title tooltip)."""
    values = list(values)
    if not values:
        return '<span class="muted">–</span>'
    lo, hi = min(values), max(values)
    points = _points(
        list(range(len(values))), values,
        0, max(len(values) - 1, 1), lo, hi,
        2, width - 2, 3, height - 3,
    )
    title = _esc(
        f"{label + ': ' if label else ''}{len(values)} stages, "
        f"min {_fmt(lo)}, max {_fmt(hi)}"
    )
    return (
        f'<svg class="spark" role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}"><title>{title}</title>'
        f'<polyline fill="none" stroke="{color}" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round" '
        f'points="{points}"/></svg>'
    )


def svg_overlay(
    series: Sequence[tuple[str, int, Sequence[float], Sequence[float]]],
    width: int = 520, height: int = 200,
    x_label: str = "move attempts", y_label: str = "cost",
) -> str:
    """Convergence overlay: one polyline per run on shared axes.

    ``series`` is ``(label, color slot, xs, ys)`` per run.  One y axis
    (never dual), recessive grid, min/max tick labels, and a native
    ``<title>`` tooltip per line; the legend is rendered by the caller
    in HTML so it can wrap.
    """
    drawable = [s for s in series if s[2] and s[3]]
    if not drawable:
        return '<p class="muted">no convergence data (no traces on file)</p>'
    x0 = min(min(s[2]) for s in drawable)
    x1 = max(max(s[2]) for s in drawable)
    y0 = min(min(s[3]) for s in drawable)
    y1 = max(max(s[3]) for s in drawable)
    left, right, top, bottom = 46.0, width - 10.0, 8.0, height - 22.0
    grid_ys = [top, (top + bottom) / 2, bottom]
    parts = [
        f'<svg class="overlay" role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<title>{_esc(y_label)} vs {_esc(x_label)}, "
        f"{len(drawable)} runs</title>",
    ]
    for gy in grid_ys:
        parts.append(
            f'<line class="grid" x1="{left:.1f}" y1="{gy:.1f}" '
            f'x2="{right:.1f}" y2="{gy:.1f}"/>'
        )
    parts.append(
        f'<line class="axis" x1="{left:.1f}" y1="{bottom:.1f}" '
        f'x2="{right:.1f}" y2="{bottom:.1f}"/>'
    )
    for label, slot, xs, ys in drawable:
        points = _points(xs, ys, x0, x1, y0, y1, left, right, top, bottom)
        parts.append(
            f'<polyline fill="none" stroke="{series_color(slot)}" '
            f'stroke-width="2" stroke-linejoin="round" '
            f'stroke-linecap="round" points="{points}">'
            f"<title>{_esc(label)}: cost {_fmt(ys[-1])} after "
            f"{_fmt(xs[-1], 6)} attempts</title></polyline>"
        )
    parts.append(
        f'<text class="tick" x="{left - 4:.1f}" y="{top + 4:.1f}" '
        f'text-anchor="end">{_fmt(y1)}</text>'
        f'<text class="tick" x="{left - 4:.1f}" y="{bottom:.1f}" '
        f'text-anchor="end">{_fmt(y0)}</text>'
        f'<text class="tick" x="{left:.1f}" y="{height - 8:.1f}">'
        f"{_fmt(x0, 6)}</text>"
        f'<text class="tick" x="{right:.1f}" y="{height - 8:.1f}" '
        f'text-anchor="end">{_fmt(x1, 6)} {_esc(x_label)}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# Page sections
# ----------------------------------------------------------------------
_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --border: #d9d8d3; --grid: #e6e5e1;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948;
  --series-overflow: #8a8984;
  --ok: #008300; --bad: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #262625;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --border: #3b3b38; --grid: #33332f;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767;
    --ok: #1baf7a; --bad: #e66767;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 24px; max-width: 1080px;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 14px; margin: 18px 0 6px; }
.muted { color: var(--text-secondary); }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 16px 0; }
.tile {
  background: var(--surface-2); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 110px;
}
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th, td {
  text-align: left; padding: 4px 10px;
  border-bottom: 1px solid var(--border); white-space: nowrap;
}
th { color: var(--text-secondary); font-weight: 600; font-size: 12px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:hover td { background: var(--surface-2); }
.ok { color: var(--ok); } .bad { color: var(--bad); }
.swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 6px; vertical-align: baseline;
}
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px; margin: 4px 0; }
.legend span { color: var(--text-secondary); font-size: 12px; }
svg.overlay text.tick { font: 10px system-ui; fill: var(--text-secondary); }
svg.overlay line.grid { stroke: var(--grid); stroke-width: 1; }
svg.overlay line.axis { stroke: var(--border); stroke-width: 1; }
svg.spark { vertical-align: middle; }
a { color: var(--series-1); }
code {
  background: var(--surface-2); padding: 1px 4px; border-radius: 3px;
  font-size: 12px;
}
footer {
  margin-top: 32px; color: var(--text-secondary); font-size: 12px;
}
"""


def _tile(value: str, key: str) -> str:
    return (
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(key)}</div></div>'
    )


def _run_label(record: dict, index: int) -> str:
    seed = record.get("seed")
    bits = [f"run {index}", str(record.get("flow", "?"))]
    if seed is not None:
        bits.append(f"seed {seed}")
    if record.get("tag"):
        bits.append(record["tag"])
    return " · ".join(bits)


def _artifact_links(record: dict) -> str:
    artifacts = record.get("artifacts") or {}
    links = []
    for kind in sorted(artifacts):
        path = artifacts[kind]
        links.append(f'<a href="{_esc(path)}">{_esc(kind)}</a>')
    return " ".join(links) if links else '<span class="muted">–</span>'


def _qor_table(
    records: list[dict], traces: dict[int, RunTrace]
) -> str:
    headers = (
        "#", "flow", "design", "seed", "config", "G", "D",
        "T (ns)", "routed", "moves", "moves/s", "score", "tag",
        "acceptance", "artifacts",
    )
    numeric = {"#", "seed", "G", "D", "T (ns)", "moves", "moves/s", "score"}
    rows = []
    for index, record in enumerate(records):
        terms = record.get("terms") or {}
        trace = traces.get(index)
        accepted = record.get("moves_accepted")
        attempted = record.get("moves_attempted")
        moves = (
            f"{_fmt(accepted)}/{_fmt(attempted)}"
            if attempted is not None else "–"
        )
        routed = record.get("fully_routed")
        routed_cell = (
            '<span class="ok">yes</span>' if routed
            else '<span class="bad">NO</span>'
        )
        spark = (
            svg_sparkline(
                acceptance_series(trace), color=series_color(index),
                label=_run_label(record, index) + " acceptance",
            )
            if trace is not None else '<span class="muted">–</span>'
        )
        cells = [
            str(index), _esc(record.get("flow", "?")),
            _esc(record.get("design", "?")), _fmt(record.get("seed")),
            f"<code>{_esc(record.get('config_digest', '–'))}</code>",
            _fmt(terms.get("G")), _fmt(terms.get("D")),
            _fmt(record.get("worst_delay_ns")), routed_cell, moves,
            _fmt(record.get("moves_per_sec")),
            _fmt(record.get("normalized_score")),
            _esc(record.get("tag") or "–"), spark, _artifact_links(record),
        ]
        row = "".join(
            f'<td class="num">{cell}</td>'
            if header in numeric else f"<td>{cell}</td>"
            for header, cell in zip(headers, cells)
        )
        rows.append(f"<tr>{row}</tr>")
    head = "".join(
        f'<th class="num">{_esc(h)}</th>' if h in numeric
        else f"<th>{_esc(h)}</th>"
        for h in headers
    )
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _convergence_section(
    records: list[dict], traces: dict[int, RunTrace]
) -> str:
    groups: dict[tuple, list[int]] = {}
    for index in sorted(traces):
        record = records[index]
        groups.setdefault(
            (str(record.get("flow")), str(record.get("design"))), []
        ).append(index)
    if not groups:
        return (
            '<p class="muted">No trace artifacts were found next to the '
            "ledger, so convergence curves cannot be rebuilt.  Record runs "
            "with <code>--trace</code> to populate this section.</p>"
        )
    parts = []
    for (flow, design), indices in sorted(groups.items()):
        series = []
        legend = []
        for index in indices:
            xs, ys = convergence_series(traces[index])
            label = _run_label(records[index], index)
            series.append((label, index, xs, ys))
            legend.append(
                f'<span><i class="swatch" '
                f'style="background:{series_color(index)}"></i>'
                f"{_esc(label)}</span>"
            )
        parts.append(f"<h3>{_esc(flow)} · {_esc(design)}</h3>")
        parts.append(svg_overlay(series))
        if len(series) > 1:
            parts.append(f'<div class="legend">{"".join(legend)}</div>')
    return "".join(parts)


def _variance_section(records: list[dict]) -> str:
    buckets: dict[tuple, list[dict]] = {}
    for record in records:
        key = (
            str(record.get("flow")), str(record.get("design")),
            str(record.get("family_digest") or record.get("config_digest")
                or "(none)"),
        )
        buckets.setdefault(key, []).append(record)
    rows = []
    for (flow, design, family), group in sorted(buckets.items()):
        stats = slice_stats(group)
        seeds = ", ".join(str(s) for s in stats["seeds"]) or "–"
        routed = stats["routed_fraction"]
        routed_cell = (
            f'<span class="{"ok" if routed >= 1.0 else "bad"}">'
            f"{routed:.0%}</span>"
        )
        rows.append(
            "<tr>"
            f"<td>{_esc(flow)}</td><td>{_esc(design)}</td>"
            f"<td><code>{_esc(family)}</code></td>"
            f'<td class="num">{stats["runs"]}</td><td>{_esc(seeds)}</td>'
            f'<td class="num">{_fmt(stats["delay_mean"])}</td>'
            f'<td class="num">{_fmt(stats["delay_stdev"])}</td>'
            f'<td class="num">{_fmt(stats["delay_min"])}</td>'
            f'<td class="num">{_fmt(stats["delay_max"])}</td>'
            f"<td>{routed_cell}</td></tr>"
        )
    return (
        "<table><thead><tr><th>flow</th><th>design</th><th>config family"
        '</th><th class="num">runs</th><th>seeds</th>'
        '<th class="num">T mean</th><th class="num">T stdev</th>'
        '<th class="num">T min</th><th class="num">T max</th>'
        "<th>routed</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def render_report(
    records: list[dict],
    traces: Optional[dict[int, RunTrace]] = None,
    title: str = "Run ledger observatory",
) -> str:
    """The whole observatory page as one self-contained HTML string.

    ``traces`` maps record index -> loaded :class:`RunTrace` for the
    records whose trace artifacts were found; missing entries degrade
    to "no convergence data".  Pure function of its inputs — see the
    module docstring's determinism contract.
    """
    traces = traces or {}
    designs = sorted({str(r.get("design")) for r in records})
    families = sorted({
        str(r.get("family_digest") or r.get("config_digest"))
        for r in records
    })
    routed = [bool(r.get("fully_routed")) for r in records]
    routed_pct = f"{sum(routed) / len(routed):.0%}" if routed else "–"
    delays = [
        r["worst_delay_ns"] for r in records
        if r.get("worst_delay_ns") is not None
    ]
    best_delay = _fmt(min(delays)) if delays else "–"
    tiles = "".join((
        _tile(str(len(records)), "runs"),
        _tile(str(len(designs)), "designs"),
        _tile(str(len(families)), "config families"),
        _tile(routed_pct, "fully routed"),
        _tile(best_delay, "best T (ns)"),
        _tile(str(len(traces)), "traces on file"),
    ))
    body = f"""
<h1>{_esc(title)}</h1>
<p class="muted">Cross-run convergence analytics over an append-only run
ledger (<code>repro.obs.ledger</code> schema v{records[0].get(
    "schema_version", "?") if records else "?"}).
Generated by <code>repro-fpga runs report</code>; byte-identical for the
same ledger inputs.</p>
<div class="tiles">{tiles}</div>
<h2>Quality of results</h2>
{_qor_table(records, traces)}
<h2>Convergence</h2>
<p class="muted">Scalar anneal cost against cumulative move attempts, rebuilt
from each run's recorded trace (bit-exact reconstruction,
<code>Wg·G + Wd·D + Wt·T</code>).</p>
{_convergence_section(records, traces)}
<h2>Per-seed variance</h2>
<p class="muted">Runs grouped by seed-independent config family
(<code>family_digest</code>): the spread a multi-start portfolio would
draw from.</p>
{_variance_section(records)}
<footer>repro.obs.report · ledger schema v{records[0].get(
    "schema_version", "?") if records else "?"} · colors: validated default
categorical palette, fixed slot order</footer>
"""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        f"</head><body>{body}</body></html>\n"
    )
