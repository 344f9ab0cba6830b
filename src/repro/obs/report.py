"""Cross-run regression diffs and the static HTML dashboard.

Consumes :class:`repro.obs.store.RunLedger` entries — never live
simulation objects — so everything here re-renders from the ledger
alone, with no re-simulation.

Two halves:

* :func:`diff_entries` — per-metric deltas between two ledger entries
  under explicit :class:`Threshold`\\ s.  By default wall clock may
  drift up to 25% (and is *advisory* — machines differ), but exact pins
  (``events_processed``) must be byte-identical whenever the two
  entries share a spec hash.  Seed-to-seed comparisons (same family,
  different spec hash) only enforce the statistical thresholds.
* :func:`render_dashboard` — a single self-contained HTML file with
  inline SVG: slowdown curves per workload, per-port queue-depth
  heatmaps from stored ColumnarSeries, figure acceptance tables
  (figR/figT...), and the per-family regression diffs.
  :func:`validate_dashboard` is the CI check: every referenced artifact
  exists, every panel and table is non-empty.

Colors follow the repository's fixed categorical assignment (protocol →
slot, never re-painted when a filter changes the series count) using a
CVD-validated palette; magnitude (queue depth) uses a single-hue
sequential ramp.  Both light and dark surfaces are styled.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.store import LedgerEntry, RunLedger

__all__ = [
    "Threshold",
    "MetricDelta",
    "RunDiff",
    "DEFAULT_THRESHOLDS",
    "diff_entries",
    "render_dashboard",
    "validate_dashboard",
]


# ----------------------------------------------------------------------
# Regression diff
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Threshold:
    """Tolerance for one metric when comparing candidate vs baseline.

    ``rel``/``abs_`` bound how far the candidate may move in the *worse*
    direction (``higher_is_worse``) before the delta counts as a
    regression; improvements never gate.  ``exact`` metrics must not
    drift at all, but only when ``same_spec_only`` is satisfied (event
    counts are pinned per spec, not across seeds).  ``advisory`` rows
    are reported and highlighted but never fail a gate (wall clock).
    """

    metric: str
    rel: Optional[float] = None
    abs_: Optional[float] = None
    higher_is_worse: bool = True
    exact: bool = False
    same_spec_only: bool = False
    advisory: bool = False


#: 25% wall tolerance (advisory: wall clock is machine-dependent), an
#: exact events_processed pin for same-spec comparisons, and bounded
#: drift on the headline statistics for cross-seed comparisons.
DEFAULT_THRESHOLDS: Tuple[Threshold, ...] = (
    Threshold("mean_slowdown", rel=0.25),
    Threshold("p99_slowdown", rel=0.50),
    Threshold("nfct", rel=0.25),
    Threshold("completion_rate", abs_=0.02, higher_is_worse=False),
    Threshold("goodput_gbps_per_host", rel=0.25, higher_is_worse=False),
    Threshold("drop_rate", abs_=0.02),
    Threshold("duration", rel=0.25),
    Threshold("events_processed", exact=True, same_spec_only=True),
    Threshold("wall_seconds", rel=0.25, advisory=True),
)


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric between baseline and candidate."""

    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    delta: Optional[float]
    rel_delta: Optional[float]
    regressed: bool
    advisory: bool
    note: str = ""


@dataclass
class RunDiff:
    """All compared metrics between two ledger entries."""

    baseline: LedgerEntry
    candidate: LedgerEntry
    rows: List[MetricDelta] = field(default_factory=list)

    @property
    def same_spec(self) -> bool:
        return self.baseline.spec_hash == self.candidate.spec_hash

    @property
    def regressions(self) -> List[MetricDelta]:
        return [r for r in self.rows if r.regressed and not r.advisory]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = [
            f"diff {self.baseline.key} -> {self.candidate.key} "
            f"({'same spec' if self.same_spec else 'cross-spec/seed'}): "
            f"{'OK' if self.ok else 'REGRESSED'} "
            f"({len(self.regressions)} regressions)"
        ]
        for row in self.rows:
            verdict = "ok"
            if row.regressed:
                verdict = "ADVISORY" if row.advisory else "REGRESSED"
            rel = "" if row.rel_delta is None else f" ({row.rel_delta:+.1%})"
            lines.append(
                f"  [{verdict:>9s}] {row.metric}: "
                f"{_fmt(row.baseline)} -> {_fmt(row.candidate)}{rel}"
                + (f"  {row.note}" if row.note else "")
            )
        return "\n".join(lines)


def _metric_value(entry: LedgerEntry, metric: str) -> Optional[float]:
    value = entry.metrics.get(metric)
    if value is None or isinstance(value, (dict, list, str)):
        return None
    value = float(value)
    return None if math.isnan(value) else value


def diff_entries(
    baseline: LedgerEntry,
    candidate: LedgerEntry,
    thresholds: Sequence[Threshold] = DEFAULT_THRESHOLDS,
) -> RunDiff:
    """Per-metric deltas of ``candidate`` against ``baseline``."""
    diff = RunDiff(baseline=baseline, candidate=candidate)
    same_spec = diff.same_spec
    for th in thresholds:
        a = _metric_value(baseline, th.metric)
        b = _metric_value(candidate, th.metric)
        if a is None or b is None:
            diff.rows.append(
                MetricDelta(th.metric, a, b, None, None, False, th.advisory, "missing")
            )
            continue
        delta = b - a
        rel = delta / abs(a) if a else None
        regressed = False
        note = ""
        if th.exact:
            if th.same_spec_only and not same_spec:
                note = "not pinned across specs"
            elif delta != 0:
                regressed = True
                note = "exact pin drifted"
        else:
            worse = delta if th.higher_is_worse else -delta
            if th.abs_ is not None and worse > th.abs_:
                regressed = True
                note = f"moved {worse:+.4g} (> {th.abs_:g} abs)"
            elif th.rel is not None and a and worse / abs(a) > th.rel:
                regressed = True
                note = f"moved {worse / abs(a):+.1%} (> {th.rel:.0%})"
        diff.rows.append(
            MetricDelta(th.metric, a, b, delta, rel, regressed, th.advisory, note)
        )
    return diff


# ----------------------------------------------------------------------
# Formatting / palette
# ----------------------------------------------------------------------

def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 10000 or abs(value) < 0.001:
            return f"{value:.3g}"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    if isinstance(value, int) and abs(value) >= 10000:
        return f"{value:,d}"
    return str(value)


def _esc(value: Any) -> str:
    return html.escape(str(value))


#: Fixed categorical slot per protocol — color follows the entity, so a
#: dashboard with only two protocols still paints them their own hues.
_PROTOCOL_SLOTS = {"phost": 1, "pfabric": 2, "fastpass": 3, "dctcp": 4}
_MAX_SLOTS = 8

#: Validated categorical palette (light / dark steps of the same hues).
_SERIES_LIGHT = [
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
]
_SERIES_DARK = [
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
]

#: Single-hue sequential ramp (blue, light→dark) for magnitude.
_SEQ_RAMP = [
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
]


def _slot_for(protocol: str, assigned: Dict[str, int]) -> int:
    if protocol in _PROTOCOL_SLOTS:
        return _PROTOCOL_SLOTS[protocol]
    if protocol not in assigned:
        used = set(_PROTOCOL_SLOTS.values()) | set(assigned.values())
        free = [s for s in range(1, _MAX_SLOTS + 1) if s not in used]
        assigned[protocol] = free[0] if free else _MAX_SLOTS
    return assigned[protocol]


# ----------------------------------------------------------------------
# SVG panels
# ----------------------------------------------------------------------

def _ticks(lo: float, hi: float, n: int = 4) -> List[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def _line_panel(
    panel_id: str,
    series: List[Tuple[str, int, List[Tuple[float, float]]]],
    x_label: str,
    y_label: str,
    width: int = 520,
    height: int = 250,
) -> Tuple[str, int]:
    """One-axis SVG line/point chart; returns ``(html, n_points)``."""
    ml, mr, mt, mb = 56, 96, 12, 36
    pw, ph = width - ml - mr, height - mt - mb
    pts = [p for _, _, ps in series for p in ps if math.isfinite(p[0]) and math.isfinite(p[1])]
    if not pts:
        return "", 0
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - max(abs(ylo) * 0.1, 0.5), yhi + max(abs(yhi) * 0.1, 0.5)
    else:
        pad = (yhi - ylo) * 0.08
        ylo, yhi = ylo - pad, yhi + pad

    def sx(x: float) -> float:
        return ml + (x - xlo) / (xhi - xlo) * pw

    def sy(y: float) -> float:
        return mt + ph - (y - ylo) / (yhi - ylo) * ph

    parts = [
        f'<svg class="panel" data-points="{len(pts)}" id="{_esc(panel_id)}" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'role="img" aria-label="{_esc(y_label)} vs {_esc(x_label)}">'
    ]
    for ty in _ticks(ylo, yhi):
        y = sy(ty)
        parts.append(
            f'<line class="grid" x1="{ml}" y1="{y:.1f}" x2="{ml + pw}" y2="{y:.1f}"/>'
            f'<text class="tick" x="{ml - 6}" y="{y + 3:.1f}" text-anchor="end">{_fmt(ty)}</text>'
        )
    for tx in _ticks(xlo, xhi):
        x = sx(tx)
        parts.append(
            f'<text class="tick" x="{x:.1f}" y="{mt + ph + 16}" text-anchor="middle">{_fmt(tx)}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}"/>'
        f'<text class="axis-label" x="{ml + pw / 2:.0f}" y="{height - 4}" '
        f'text-anchor="middle">{_esc(x_label)}</text>'
        f'<text class="axis-label" transform="rotate(-90)" x="{-(mt + ph / 2):.0f}" '
        f'y="12" text-anchor="middle">{_esc(y_label)}</text>'
    )
    for name, slot, ps in series:
        good = sorted(
            (p for p in ps if math.isfinite(p[0]) and math.isfinite(p[1])),
            key=lambda p: p[0],
        )
        if not good:
            continue
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in good)
        if len(good) > 1:
            parts.append(f'<polyline class="line s{slot}" points="{coords}"/>')
        for x, y in good:
            parts.append(
                f'<circle class="dot s{slot}" cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4">'
                f"<title>{_esc(name)}: {x_label}={_fmt(x)}, {y_label}={_fmt(y)}</title>"
                f"</circle>"
            )
        lx, ly = good[-1]
        parts.append(
            f'<text class="dlabel" x="{sx(lx) + 8:.1f}" y="{sy(ly) + 3:.1f}">{_esc(name)}</text>'
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span class="chip"><span class="swatch s{slot}"></span>{_esc(name)}</span>'
        for name, slot, _ in series
    )
    return f'<div class="legend">{legend}</div>' + "".join(parts), len(pts)


def _heatmap_panel(
    panel_id: str,
    series,
    column_prefix: str = "port.qlen_bytes{",
    max_rows: int = 16,
    max_bins: int = 48,
) -> Tuple[str, int, str]:
    """Per-port queue-depth heatmap from a ColumnarSeries.

    Returns ``(html, n_cells, note)``; the note records any row cap so a
    truncated view never silently claims full coverage.
    """
    cols = [
        name
        for name in series.names()
        if name.startswith(column_prefix) and "max" not in name
    ]
    if not cols or not series.times:
        return "", 0, ""

    def peak(name: str) -> float:
        vals = [v for v in series.columns[name] if not math.isnan(v)]
        return max(vals) if vals else 0.0

    ranked = sorted(cols, key=lambda c: (-peak(c), c))
    note = ""
    if len(ranked) > max_rows:
        note = f"showing the {max_rows} deepest of {len(ranked)} ports"
        ranked = ranked[:max_rows]
    times = series.times
    n_bins = min(max_bins, len(times))
    vmax = max((peak(c) for c in ranked), default=0.0)
    cell_w, cell_h, ml, mt = 11, 13, 190, 6
    width = ml + n_bins * cell_w + 10
    height = mt + len(ranked) * cell_h + 30
    parts = []
    n_cells = 0
    for r, name in enumerate(ranked):
        label = name[len(column_prefix):].rstrip("}")
        y = mt + r * cell_h
        parts.append(
            f'<text class="tick" x="{ml - 6}" y="{y + cell_h - 3}" '
            f'text-anchor="end">{_esc(label[:28])}</text>'
        )
        col = series.columns[name]
        for b in range(n_bins):
            lo = b * len(times) // n_bins
            hi = max(lo + 1, (b + 1) * len(times) // n_bins)
            vals = [col[i] for i in range(lo, hi) if not math.isnan(col[i])]
            if not vals:
                continue
            v = max(vals)  # queue depth: the bin's high-water mark
            n_cells += 1
            if v <= 0 or vmax <= 0:
                fill = "var(--surface-2)"
            else:
                idx = min(len(_SEQ_RAMP) - 1, int(v / vmax * (len(_SEQ_RAMP) - 1)))
                fill = _SEQ_RAMP[idx]
            t0 = times[lo]
            parts.append(
                f'<rect x="{ml + b * cell_w}" y="{y}" width="{cell_w - 1}" '
                f'height="{cell_h - 1}" fill="{fill}">'
                f"<title>{_esc(label)} @ t={t0 * 1e3:.3f}ms: {_fmt(v)} B</title></rect>"
            )
    parts.append(
        f'<text class="tick" x="{ml}" y="{height - 14}">t={times[0] * 1e3:.2f}ms</text>'
        f'<text class="tick" x="{width - 8}" y="{height - 14}" text-anchor="end">'
        f"t={times[-1] * 1e3:.2f}ms</text>"
        f'<text class="axis-label" x="{ml}" y="{height - 2}">queue depth 0 → {_fmt(vmax)} B '
        f"(light → dark)</text>"
    )
    svg = (
        f'<svg class="panel" data-points="{n_cells}" id="{_esc(panel_id)}" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        f'role="img" aria-label="per-port queue depth heatmap">' + "".join(parts) + "</svg>"
    )
    if n_cells == 0:
        return "", 0, ""
    return svg, n_cells, note


def _html_table(columns: List[str], rows: List[List[Any]], *, classes: str = "") -> str:
    head = "".join(f"<th>{_esc(c)}</th>" for c in columns)
    body = []
    for row in rows:
        cells = "".join(
            cell if isinstance(cell, _Raw) else f"<td>{_esc(_fmt(cell))}</td>"
            for cell in row
        )
        body.append(f"<tr>{cells}</tr>")
    return (
        f'<table class="{classes}" data-rows="{len(rows)}">'
        f"<thead><tr>{head}</tr></thead><tbody>{''.join(body)}</tbody></table>"
    )


class _Raw(str):
    """Pre-rendered table cell (already HTML)."""


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #8a887f;
  --grid: #e4e2dc; --axis: #b5b2a7;
  --good: #008300; --bad: #e34948;
  @SERIES_LIGHT@
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #383835;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #8a887f;
    --grid: #33322f; --axis: #52514e;
    --good: #3dbd3d; --bad: #e66767;
    @SERIES_DARK@
  }
}
body { background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.45 system-ui, sans-serif; margin: 24px auto; max-width: 1080px;
  padding: 0 16px; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 32px; }
h3 { font-size: 13px; color: var(--text-secondary); font-weight: 600; }
.sub { color: var(--text-secondary); }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile { background: var(--surface-2); border-radius: 8px; padding: 10px 16px; }
.tile .v { font-size: 22px; font-weight: 650; }
.tile .k { font-size: 11px; color: var(--text-secondary); text-transform: uppercase;
  letter-spacing: 0.04em; }
table { border-collapse: collapse; margin: 8px 0 16px; font-size: 12.5px; }
th { text-align: left; color: var(--text-secondary); font-weight: 600; }
th, td { padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid); }
svg.panel { display: block; margin: 4px 0 20px; max-width: 100%; }
svg text { fill: var(--text-secondary); font: 10.5px system-ui, sans-serif; }
svg .axis-label { fill: var(--text-muted); font-size: 10px; }
svg .dlabel { fill: var(--text-secondary); font-weight: 600; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--axis); stroke-width: 1; }
svg .line { fill: none; stroke-width: 2; }
svg .dot { stroke: var(--surface-1); stroke-width: 2; }
.legend { display: flex; gap: 14px; flex-wrap: wrap; margin: 10px 0 2px;
  font-size: 12px; color: var(--text-secondary); }
.swatch { display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; }
.verdict-ok { color: var(--good); font-weight: 650; }
.verdict-bad { color: var(--bad); font-weight: 650; }
.note { color: var(--text-muted); font-size: 12px; }
pre { background: var(--surface-2); padding: 10px; border-radius: 6px;
  overflow-x: auto; font-size: 11.5px; }
code { font-size: 12px; }
""".replace(
    "@SERIES_LIGHT@",
    "\n  ".join(f"--series-{i + 1}: {c};" for i, c in enumerate(_SERIES_LIGHT)),
).replace(
    "@SERIES_DARK@",
    "\n    ".join(f"--series-{i + 1}: {c};" for i, c in enumerate(_SERIES_DARK)),
)

_SERIES_CSS = "\n".join(
    f"svg .s{i + 1} {{ stroke: var(--series-{i + 1}); }}\n"
    f"svg circle.s{i + 1} {{ fill: var(--series-{i + 1}); }}\n"
    f".swatch.s{i + 1} {{ background: var(--series-{i + 1}); }}"
    for i in range(_MAX_SLOTS)
)


def _runs_table(entries: List[LedgerEntry]) -> str:
    rows = []
    for e in entries:
        m, x = e.meta, e.metrics
        audit = e.audit
        if audit is None:
            audit_cell = _Raw('<td class="note">-</td>')
        elif audit.get("ok"):
            audit_cell = _Raw('<td><span class="verdict-ok">✓ pass</span></td>')
        else:
            audit_cell = _Raw('<td><span class="verdict-bad">✗ fail</span></td>')
        rows.append(
            [
                _Raw(f"<td><code>{_esc(e.key)}</code></td>"),
                m.get("protocol"),
                m.get("workload"),
                m.get("load"),
                m.get("seed"),
                x.get("mean_slowdown"),
                x.get("p99_slowdown"),
                x.get("drops_total"),
                x.get("events_processed"),
                audit_cell,
                m.get("git_revision") or "-",
            ]
        )
    return _html_table(
        ["key", "protocol", "workload", "load", "seed", "mean slowdown",
         "p99 slowdown", "drops", "events", "audit", "git"],
        rows,
    )


def _slowdown_section(entries: List[LedgerEntry]) -> str:
    by_workload: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for e in entries:
        wl = e.meta.get("workload", "?")
        proto = e.meta.get("protocol", "?")
        load = e.meta.get("load")
        slow = _metric_value(e, "mean_slowdown")
        if load is None or slow is None:
            continue
        by_workload.setdefault(wl, {}).setdefault(proto, []).append((float(load), slow))
    assigned: Dict[str, int] = {}
    chunks = []
    for wl in sorted(by_workload):
        series = [
            (proto, _slot_for(proto, assigned), sorted(pts))
            for proto, pts in sorted(by_workload[wl].items())
        ]
        svg, n = _line_panel(f"slowdown-{wl}", series, "load", "mean slowdown")
        if n:
            chunks.append(f"<h3>{_esc(wl)}</h3>{svg}")
    return "".join(chunks)


def _heatmap_section(entries: List[LedgerEntry], max_heatmaps: int) -> Tuple[str, List[str]]:
    chunks: List[str] = []
    notes: List[str] = []
    with_series = [e for e in entries if e.has_series]
    if len(with_series) > max_heatmaps:
        notes.append(
            f"heatmaps limited to the {max_heatmaps} most recent of "
            f"{len(with_series)} runs with stored series"
        )
        with_series = with_series[-max_heatmaps:]
    for e in with_series:
        series = e.load_series()
        svg, n, note = _heatmap_panel(f"heatmap-{e.key.replace('/', '-')}", series)
        if not n:
            continue
        m = e.meta
        title = (
            f"{m.get('protocol')}/{m.get('workload')} load={m.get('load')} "
            f"seed={m.get('seed')} — <code>{_esc(e.key)}</code>"
        )
        chunks.append(f"<h3>{title}</h3>")
        if note:
            chunks.append(f'<p class="note">{_esc(note)}</p>')
        chunks.append(svg)
    return "".join(chunks), notes


def _figures_section(ledger: RunLedger, figures_dir: Optional[str]) -> str:
    chunks = []
    for name, doc in ledger.figures().items():
        cols = doc.get("columns", [])
        rows = [[row.get(c) for c in cols] for row in doc.get("rows", [])]
        if not rows:
            continue
        chunks.append(f"<h3>{_esc(name)} — {_esc(doc.get('title', ''))}</h3>")
        chunks.append(_html_table(cols, rows))
        for note in doc.get("notes", []):
            chunks.append(f'<p class="note">{_esc(note)}</p>')
    if figures_dir:
        for path in sorted(Path(figures_dir).glob("fig*.txt")):
            chunks.append(f"<h3>{_esc(path.name)}</h3><pre>{_esc(path.read_text())}</pre>")
    return "".join(chunks)


def _diff_section(ledger: RunLedger) -> str:
    chunks = []
    for family, members in sorted(ledger.families().items()):
        if len(members) < 2:
            continue
        baseline, candidate = members[-2], members[-1]
        diff = diff_entries(baseline, candidate)
        verdict = (
            '<span class="verdict-ok">✓ no unexpected regressions</span>'
            if diff.ok
            else f'<span class="verdict-bad">✗ {len(diff.regressions)} regressions</span>'
        )
        rows = []
        for r in diff.rows:
            if r.regressed:
                flag = "advisory" if r.advisory else "✗ regressed"
                cls = "note" if r.advisory else "verdict-bad"
            else:
                flag, cls = "✓ ok", "verdict-ok"
            rows.append(
                [
                    r.metric,
                    r.baseline,
                    r.candidate,
                    "-" if r.rel_delta is None else f"{r.rel_delta:+.2%}",
                    _Raw(f'<td><span class="{cls}">{_esc(flag)}</span></td>'),
                    r.note,
                ]
            )
        b, c = baseline.meta, candidate.meta
        chunks.append(
            f"<h3>{_esc(b.get('protocol'))}/{_esc(b.get('workload'))} "
            f"load={_esc(b.get('load'))}: seed {_esc(b.get('seed'))} → "
            f"seed {_esc(c.get('seed'))} {verdict}</h3>"
            f'<p class="note">baseline <code>{_esc(baseline.key)}</code> vs '
            f"candidate <code>{_esc(candidate.key)}</code>"
            f"{'' if diff.same_spec else ' (cross-seed: exact pins not enforced)'}</p>"
        )
        chunks.append(
            _html_table(
                ["metric", "baseline", "candidate", "rel Δ", "verdict", "note"], rows
            )
        )
    return "".join(chunks)


def _artifact_section(entries: List[LedgerEntry]) -> str:
    items = []
    for e in entries:
        for artifact in e.artifacts:
            items.append(
                f'<li><code data-artifact="{_esc(artifact)}">{_esc(artifact)}</code>'
                f' <span class="note">({_esc(e.key)})</span></li>'
            )
    if not items:
        return '<p class="note">no run artifacts recorded</p>'
    return f"<ul>{''.join(items)}</ul>"


def render_dashboard(
    ledger: RunLedger,
    out_path,
    *,
    title: str = "pHost repro — run ledger dashboard",
    figures_dir: Optional[str] = None,
    max_heatmaps: int = 4,
) -> Path:
    """Render the whole ledger into one static HTML file."""
    out_path = Path(out_path)
    entries = ledger.entries()
    slowdown_html = _slowdown_section(entries)
    heatmap_html, heatmap_notes = _heatmap_section(entries, max_heatmaps)
    figures_html = _figures_section(ledger, figures_dir)
    diff_html = _diff_section(ledger)

    git = next(
        (e.meta.get("git_revision") for e in reversed(entries) if e.meta.get("git_revision")),
        None,
    )
    audits = [e for e in entries if e.audit is not None]
    audits_ok = sum(1 for e in audits if e.audit.get("ok"))
    tiles = [
        ("runs", str(len(entries))),
        ("protocols", str(len({e.meta.get("protocol") for e in entries}) if entries else 0)),
        ("audited", f"{audits_ok}/{len(audits)}" if audits else "0"),
        ("git", git or "?"),
    ]
    tiles_html = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>'
        for k, v in tiles
    )

    sections = [
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">regenerated from the ledger at <code>{_esc(str(ledger.root))}</code> '
        f"— no re-simulation; see docs/OBSERVABILITY.md</p>",
        f'<div class="tiles">{tiles_html}</div>',
        "<h2>Runs</h2>",
        _runs_table(entries) if entries else '<p class="note">ledger is empty</p>',
    ]
    if slowdown_html:
        sections += ["<h2>Slowdown curves</h2>", slowdown_html]
    if heatmap_html:
        sections.append("<h2>Per-port queue depth</h2>")
        for note in heatmap_notes:
            sections.append(f'<p class="note">{_esc(note)}</p>')
        sections.append(heatmap_html)
    if figures_html:
        sections += ["<h2>Figure acceptance tables</h2>", figures_html]
    if diff_html:
        sections += ["<h2>Cross-run regression diffs</h2>", diff_html]
    sections += ["<h2>Artifacts</h2>", _artifact_section(entries)]

    doc = (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}\n{_SERIES_CSS}</style></head>\n"
        f"<body>{''.join(sections)}</body></html>\n"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(doc)
    return out_path


# ----------------------------------------------------------------------
# Dashboard validation (the CI gate)
# ----------------------------------------------------------------------

def validate_dashboard(path, base_dir=None) -> List[str]:
    """Problems with a rendered dashboard (empty list = valid).

    Checks what CI gates on: the file exists and is non-trivial, every
    ``data-points``/``data-rows`` panel is non-empty, at least one panel
    or table rendered at all, and every ``data-artifact`` path resolves
    (relative paths against ``base_dir``, default the current
    directory).
    """
    import re

    path = Path(path)
    problems: List[str] = []
    if not path.is_file():
        return [f"{path}: dashboard file does not exist"]
    text = path.read_text()
    panels = re.findall(r'data-points="(\d+)"', text)
    tables = re.findall(r'data-rows="(\d+)"', text)
    if not panels and not tables:
        problems.append(f"{path}: no panels or tables rendered")
    for i, n in enumerate(panels):
        if int(n) == 0:
            problems.append(f"{path}: panel {i} is empty (data-points=0)")
    for i, n in enumerate(tables):
        if int(n) == 0:
            problems.append(f"{path}: table {i} is empty (data-rows=0)")
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    for artifact in re.findall(r'data-artifact="([^"]+)"', text):
        artifact = html.unescape(artifact)
        candidate = Path(artifact)
        if not candidate.is_absolute():
            candidate = base / candidate
        if not candidate.exists():
            problems.append(f"{path}: referenced artifact missing: {artifact}")
    return problems
