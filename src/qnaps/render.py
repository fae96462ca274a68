"""Result rendering: CSV, text tables, and deterministic SVG plots.

Everything here is a pure view over estimate dictionaries; no file IO.
The CSV column set is fixed (experiment, sweep_param, sweep_value,
station, class, metric, mean, ci_half_width_99, n, base_seed) so plots
and tables are derivable from the one format. Float cells use repr for
round-trip fidelity; text tables round for reading.

SVG output is assembled by hand so identical inputs give identical
bytes: no timestamps, no generated ids, fixed coordinate formatting.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from .egraph import ValidationRow

CSV_COLUMNS = (
    "experiment",
    "sweep_param",
    "sweep_value",
    "station",
    "class",
    "metric",
    "mean",
    "ci_half_width_99",
    "n",
    "base_seed",
)

VALIDATION_HEADERS = (
    "Job Class", "EG [%]", "QN [%]", "Error [%]", "EG [msec]", "QN [msec]", "Error [%]",
)

VALIDATION_CSV_COLUMNS = (
    "job_class",
    "eg_utilization_pct",
    "qn_utilization_pct",
    "qn_utilization_hw_pct",
    "utilization_error_pct",
    "eg_response_msec",
    "qn_response_msec",
    "qn_response_hw_msec",
    "response_time_error_pct",
)


def _escape(text: str) -> str:
    """text with &, > and < as XML entities, replaced in that order (what
    xml.sax.saxutils.escape does, without importing urllib)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class RenderError(ValueError):
    """Inconsistent inputs handed to a renderer."""


def _cell(value) -> str:
    """Stable text form: repr for floats (round-trip), str otherwise,
    JSON for structured sweep values."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return "" if value is None else str(value)


def render_csv(rows) -> str:
    """rows: iterables matching CSV_COLUMNS. Returns the full document."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        row = tuple(row)
        if len(row) != len(CSV_COLUMNS):
            raise RenderError(f"CSV row has {len(row)} cells, schema has {len(CSV_COLUMNS)}")
        writer.writerow([_cell(v) for v in row])
    return out.getvalue()


def estimate_rows(experiment, estimates, *, n, base_seed, sweep_param="", sweep_value=""):
    """Flatten an estimate dict into CSV-schema rows, preserving its order."""
    rows = []
    for (station, job_class, metric), ci in estimates.items():
        rows.append(
            (
                experiment,
                sweep_param,
                sweep_value,
                station,
                job_class,
                metric,
                ci.mean,
                ci.half_width,
                n,
                base_seed,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# text tables


def _pad_table(header, rows) -> str:
    cells = [list(header)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = [" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_estimates_table(estimates, *, heading: str = "") -> str:
    """Readable station/class/metric table of means with 99% half-widths."""
    rows = []
    for (station, job_class, metric), ci in estimates.items():
        rows.append(
            (station, job_class, metric, f"{ci.mean:.6g}", f"{ci.half_width:.6g}", str(ci.n))
        )
    table = _pad_table(("station", "class", "metric", "mean", "hw99", "n"), rows)
    return (heading + "\n" + table) if heading else table


def render_validation_table(rows: list[ValidationRow], *, decimals: int = 2) -> str:
    """Analytic-versus-simulated comparison, one line per job class.

    Column order and headers are fixed: Job Class | EG [%] | QN [%] |
    Error [%] | EG [msec] | QN [msec] | Error [%]. Simulated cells carry
    their 99% half-width as "mean (±hw)". decimals (1 or 2) sets the
    precision of the utilization percent columns; times and the response
    error are always two decimals.
    """
    if not rows:
        raise RenderError("validation table needs at least one row")
    if decimals not in (1, 2):
        raise RenderError(f"decimals must be 1 or 2, got {decimals}")
    d = decimals
    body = []
    for r in rows:
        body.append(
            (
                r.job_class,
                f"{r.eg_utilization:.{d}f}",
                f"{r.qn_utilization.mean:.{d}f} (±{r.qn_utilization.half_width:.2f})",
                f"{r.utilization_error:.{d}f}",
                f"{r.eg_response:.2f}",
                f"{r.qn_response.mean:.2f} (±{r.qn_response.half_width:.2f})",
                f"{r.response_error:.2f}",
            )
        )
    return _pad_table(VALIDATION_HEADERS, body)


def render_validation_csv(rows: list[ValidationRow]) -> str:
    """Machine-readable companion to the text table (full precision)."""
    if not rows:
        raise RenderError("validation table needs at least one row")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(VALIDATION_CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                r.job_class,
                repr(r.eg_utilization),
                repr(r.qn_utilization.mean),
                repr(r.qn_utilization.half_width),
                repr(r.utilization_error),
                repr(r.eg_response),
                repr(r.qn_response.mean),
                repr(r.qn_response.half_width),
                repr(r.response_error),
            ]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# SVG plots


@dataclass(frozen=True)
class PlotSeries:
    label: str
    x: tuple
    y: tuple
    hw: tuple  # symmetric error bar half-heights


_W, _H = 640, 420
_ML, _MR, _MT, _MB = 72, 24, 44, 58
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#17becf")


def _fmt(v: float) -> str:
    """Fixed-point SVG coordinate; two decimals keeps bytes stable."""
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _label(v: float) -> str:
    return f"{v:.4g}"


def _nice_ticks(lo: float, hi: float, target: int = 5):
    """1/2/5-stepped ticks covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def render_plot(series: list[PlotSeries], *, title: str = "", x_label: str = "",
                y_label: str = "", x_scale: str = "linear",
                annotate_minimum: bool = False) -> str:
    """Line plot with markers and symmetric error bars as a standalone SVG.

    x positions are shared per series point; y error bars span mean ± hw.
    With annotate_minimum the smallest y of the first series is marked
    and its x echoed next to the point. Output depends only on the
    arguments (fixed canvas, fixed formatting), so equal inputs give
    byte-equal files.
    """
    if not series:
        raise RenderError("plot needs at least one series")
    for s in series:
        if not (len(s.x) == len(s.y) == len(s.hw)):
            raise RenderError(
                f"series {s.label!r}: x/y/error lengths differ "
                f"({len(s.x)}/{len(s.y)}/{len(s.hw)})"
            )
        if not s.x:
            raise RenderError(f"series {s.label!r}: needs at least one point")
    if x_scale not in ("linear", "log"):
        raise RenderError(f"x_scale must be linear or log, got {x_scale!r}")

    def tx(v: float) -> float:
        if x_scale == "log":
            if v <= 0:
                raise RenderError(f"log x scale needs positive values, got {v!r}")
            return math.log10(v)
        return float(v)

    xs = [tx(v) for s in series for v in s.x]
    ylo = min(y - h for s in series for y, h in zip(s.y, s.hw))
    yhi = max(y + h for s in series for y, h in zip(s.y, s.hw))
    xlo, xhi = min(xs), max(xs)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        pad = abs(ylo) * 0.1 or 1.0
        ylo, yhi = ylo - pad, yhi + pad
    ypad = (yhi - ylo) * 0.08
    ylo, yhi = ylo - ypad, yhi + ypad
    xpad = (xhi - xlo) * 0.05
    xlo, xhi = xlo - xpad, xhi + xpad

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v: float) -> float:
        return _ML + (tx(v) - xlo) / (xhi - xlo) * pw

    def py(v: float) -> float:
        return _MT + (yhi - v) / (yhi - ylo) * ph

    if x_scale == "log":
        lo_dec = math.ceil(xlo - 1e-9)
        hi_dec = math.floor(xhi + 1e-9)
        xticks = [10.0 ** d for d in range(lo_dec, hi_dec + 1)]
        if len(xticks) < 2:
            xticks = [10.0 ** t for t in _nice_ticks(xlo, xhi)]
    else:
        xticks = _nice_ticks(xlo, xhi)
    yticks = _nice_ticks(ylo, yhi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
    ]
    font = 'font-family="Menlo, Consolas, monospace"'
    # frame and grid
    for t in yticks:
        y = _fmt(py(t))
        parts.append(
            f'<line x1="{_ML}" y1="{y}" x2="{_W - _MR}" y2="{y}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y}" {font} font-size="11" fill="#333333" '
            f'text-anchor="end" dominant-baseline="middle">{_label(t)}</text>'
        )
    for t in xticks:
        x = _fmt(_ML + (math.log10(t) - xlo) / (xhi - xlo) * pw) if x_scale == "log" else _fmt(px(t))
        parts.append(
            f'<line x1="{x}" y1="{_MT}" x2="{x}" y2="{_H - _MB}" stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{_H - _MB + 16}" {font} font-size="11" fill="#333333" '
            f'text-anchor="middle">{_label(t)}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    if title:
        parts.append(
            f'<text x="{_W // 2}" y="{_MT - 18}" {font} font-size="14" fill="#111111" '
            f'text-anchor="middle">{_escape(title)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_ML + pw / 2:.2f}" y="{_H - 14}" {font} font-size="12" fill="#111111" '
            f'text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="18" y="{_MT + ph / 2:.2f}" {font} font-size="12" fill="#111111" '
            f'text-anchor="middle" transform="rotate(-90 18 {_MT + ph / 2:.2f})">{_escape(y_label)}</text>'
        )

    for si, s in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        pts = sorted(zip(s.x, s.y, s.hw), key=lambda p: tx(p[0]))
        # error bars under the line
        for x, y, h in pts:
            if h <= 0:
                continue
            cx, y0, y1 = _fmt(px(x)), _fmt(py(y - h)), _fmt(py(y + h))
            parts.append(f'<line x1="{cx}" y1="{y0}" x2="{cx}" y2="{y1}" stroke="{color}" stroke-width="1"/>')
            for yy in (y0, y1):
                parts.append(
                    f'<line x1="{_fmt(px(x) - 3)}" y1="{yy}" x2="{_fmt(px(x) + 3)}" y2="{yy}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        if len(pts) > 1:
            path = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y, _ in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y, _ in pts:
            parts.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" fill="{color}"/>')

    if annotate_minimum:
        s = series[0]
        i = min(range(len(s.y)), key=lambda k: (s.y[k], k))
        mx, my = s.x[i], s.y[i]
        cx, cy = _fmt(px(mx)), _fmt(py(my))
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="6" fill="none" stroke="#111111" stroke-width="1.5"/>'
        )
        anchor = "end" if px(mx) > _ML + pw * 0.6 else "start"
        dx = -10 if anchor == "end" else 10
        parts.append(
            f'<text x="{_fmt(px(mx) + dx)}" y="{_fmt(py(my) - 10)}" {font} font-size="11" '
            f'fill="#111111" text-anchor="{anchor}">min at x={_label(mx)}</text>'
        )

    if len(series) > 1:
        lx, ly = _W - _MR - 150, _MT + 10
        parts.append(
            f'<rect x="{lx - 8}" y="{ly - 12}" width="150" height="{16 * len(series) + 8}" '
            f'fill="#ffffff" fill-opacity="0.85" stroke="#999999" stroke-width="0.5"/>'
        )
        for si, s in enumerate(series):
            color = _PALETTE[si % len(_PALETTE)]
            yy = ly + 16 * si
            parts.append(
                f'<line x1="{lx}" y1="{yy}" x2="{lx + 18}" y2="{yy}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 24}" y="{yy}" {font} font-size="11" fill="#111111" '
                f'dominant-baseline="middle">{_escape(s.label)}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
