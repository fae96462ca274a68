"""Result rendering: CSV, text tables, and deterministic SVG plots.

Everything here is a pure view over estimate dictionaries; no file IO.
The CSV column set is fixed (experiment, sweep_param, sweep_value,
station, class, metric, mean, ci_half_width_99, n, base_seed) so plots
and tables are derivable from the one format. cell_text spells every
value written out whole (CSV cells, progress lines, table headings);
text tables round their numbers for reading.

SVG output is assembled by hand so identical inputs give identical
bytes: no timestamps, no generated ids, fixed coordinate formatting.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .egraph import ValidationRow
from .records import FrozenRecord

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


def cell_text(value) -> str:
    """The one spelling of an output value, in CSV cells, progress lines
    and table headings alike: repr for a float (round-trip), a string as
    written, anything else as JSON with sorted keys (null, true, 8,
    [1, 2]), which is how the manifest spells it."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True)


def _csv_document(columns, rows) -> str:
    """The CSV document with header columns and each row's cell_text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        row = tuple(row)
        if len(row) != len(columns):
            raise RenderError(f"CSV row has {len(row)} cells, schema has {len(columns)}")
        writer.writerow([cell_text(v) for v in row])
    return out.getvalue()


def render_csv(rows) -> str:
    """rows: iterables matching CSV_COLUMNS. Returns the full document."""
    return _csv_document(CSV_COLUMNS, rows)


def estimate_rows(experiment, estimates, *, base_seed, sweep_param="", sweep_value="", n=None):
    """Flatten an estimate dict into CSV-schema rows, preserving its order.
    A row's n is its interval's: the replications that gave its metric a
    value. n, the replications run, is accepted from callers that still
    pass it, and not used."""
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
                ci.n,
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
    return _csv_document(VALIDATION_CSV_COLUMNS, (
        (r.job_class, r.eg_utilization, r.qn_utilization.mean, r.qn_utilization.half_width,
         r.utilization_error, r.eg_response, r.qn_response.mean, r.qn_response.half_width,
         r.response_error)
        for r in rows
    ))


# ---------------------------------------------------------------------------
# SVG plots


class PlotSeries(FrozenRecord):
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


def _wide(lo: float, hi: float) -> bool:
    return hi - lo > 2**20 * math.ulp(max(abs(lo), abs(hi)))


def _widened(lo: float, hi: float, pad: float) -> tuple[float, float]:
    """lo and hi, or each moved out by pad when they are no more than
    2**20 ulps apart: _nice_ticks would then step by less than half an
    ulp, and its t += step never move t. Where pad leaves them that close
    (|lo| or |hi| of 2**32 or more, for a pad of 0.5), the pad is a tenth
    of the larger magnitude instead."""
    if _wide(lo, hi):
        return lo, hi
    if not _wide(lo - pad, hi + pad):
        pad = 0.1 * max(abs(lo), abs(hi))
    return lo - pad, hi + pad


def _axis(lo: float, hi: float, pad: float, margin: float, log: bool = False):
    """The range an axis draws for values over [lo, hi] (decades on a log
    axis): widened by pad, then out by margin of its width on each side;
    None when it leaves the floats: its width is not finite, or a log
    axis passes decades -307 .. 308, whose ticks 10**d are normal."""
    lo, hi = _widened(lo, hi, pad)
    m = (hi - lo) * margin
    lo, hi = lo - m, hi + m
    if math.isfinite(hi - lo) and (not log or -307.0 <= lo <= hi <= 308.0):
        return lo, hi
    return None


def x_axis(xs, log: bool = False):
    """The range of a plot's x axis over xs, given in decades on a log
    axis, or None when no plot can draw them (_axis)."""
    return _axis(min(xs), max(xs), 0.5, 0.05, log)


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
    A point whose y is NaN (no estimate) is left out. Every x, and the
    error bar of every point drawn, must be finite. With
    annotate_minimum the smallest y of the first series is marked and its
    x echoed next to the point. Output depends only on the
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
        if not all(map(math.isfinite, s.x)):
            raise RenderError(f"series {s.label!r}: every x must be finite")
        if not all(math.isfinite(h) for y, h in zip(s.y, s.hw) if not math.isnan(y)):
            raise RenderError(f"series {s.label!r}: the error bar of a drawn point must be finite")
    if x_scale not in ("linear", "log"):
        raise RenderError(f"x_scale must be linear or log, got {x_scale!r}")

    def tx(v: float) -> float:
        if x_scale == "log":
            if v <= 0:
                raise RenderError(f"log x scale needs positive values, got {v!r}")
            return math.log10(v)
        return float(v)

    xs = [v for s in series for v in s.x]
    points = [[(x, y, h) for x, y, h in zip(s.x, s.y, s.hw) if not math.isnan(y)] for s in series]
    ylo = min((y - h for pts in points for _, y, h in pts), default=0.0)
    yhi = max((y + h for pts in points for _, y, h in pts), default=0.0)
    x_range = x_axis([tx(v) for v in xs], x_scale == "log")
    if x_range is None:
        raise RenderError(f"x values {min(xs)!r} to {max(xs)!r} do not fit on a plot's axis")
    y_range = _axis(ylo, yhi, abs(ylo) * 0.1 or 1.0, 0.08)
    if y_range is None:
        raise RenderError(f"y values {ylo!r} to {yhi!r} with errors do not fit on a plot's axis")
    (xlo, xhi), (ylo, yhi) = x_range, y_range

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
        x = _fmt(px(t))
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
        pts = sorted(points[si], key=lambda p: tx(p[0]))
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

    if annotate_minimum and points[0]:
        mx, my, _ = min(points[0], key=lambda p: p[1])
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
