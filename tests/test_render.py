"""Renderers: CSV schema, table formatting, deterministic SVG."""

import re
from xml.sax.saxutils import escape

import pytest

from qnaps.egraph import ValidationRow
from qnaps.render import (
    CSV_COLUMNS,
    PlotSeries,
    RenderError,
    _escape,
    estimate_rows,
    render_csv,
    render_estimates_table,
    render_plot,
    render_validation_csv,
    render_validation_table,
)
from qnaps.stats import ConfidenceInterval


def _ci(mean, hw):
    return ConfidenceInterval(mean, hw, 0.99, 30)


# frozen reference rows for the comparison table, mixed print precision
_ORIGINAL_ROWS = [
    ValidationRow("Analysis", 17.4, _ci(17.8, 0.41), 0.4, 5.53, _ci(5.35, 0.10), 3.18),
    ValidationRow("Status", 3.9, _ci(4.1, 0.08), 0.2, 1.17, _ci(1.11, 0.02), 5.05),
    ValidationRow("Actors", 16.1, _ci(15.8, 0.46), 0.3, 3.51, _ci(3.64, 0.07), 3.85),
    ValidationRow("Polling", 10.0, _ci(10.9, 0.30), 0.9, 2.06, _ci(2.18, 0.04), 5.72),
]


def test_csv_schema_and_float_fidelity():
    est = {("Q", "Jobs", "utilization"): _ci(0.1234567890123456, 0.01)}
    rows = estimate_rows("exp", est, n=30, base_seed=7, sweep_param="p", sweep_value=0.5)
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[:6] == ["exp", "p", "0.5", "Q", "Jobs", "utilization"]
    assert float(cells[6]) == 0.1234567890123456  # repr round-trips
    assert cells[8:] == ["30", "7"]

    with pytest.raises(RenderError, match="cells"):
        render_csv([("too", "short")])


def test_estimates_table_alignment():
    est = {
        ("Controller", "Analysis", "utilization"): _ci(0.178, 0.0041),
        ("system", "Analysis", "response-time-msec"): _ci(5.35, 0.10),
    }
    text = render_estimates_table(est, heading="# demo")
    lines = text.splitlines()
    assert lines[0] == "# demo"
    assert re.sub(r"\s+", " ", lines[1]) == "station | class | metric | mean | hw99 | n"
    assert "Controller" in lines[3] and "0.178" in lines[3]


def test_validation_table_layout_and_cells():
    text = render_validation_table(_ORIGINAL_ROWS, decimals=1)
    lines = text.splitlines()
    header = re.sub(r"\s+", " ", lines[0]).strip()
    assert header == "Job Class | EG [%] | QN [%] | Error [%] | EG [msec] | QN [msec] | Error [%]"
    body = [re.sub(r"\s+", " ", ln).strip() for ln in lines[2:]]
    assert body[0] == "Analysis | 17.4 | 17.8 (±0.41) | 0.4 | 5.53 | 5.35 (±0.10) | 3.18"
    assert body[1].startswith("Status | 3.9 | 4.1 (±0.08) | 0.2 |")
    assert body[3].endswith("| 2.06 | 2.18 (±0.04) | 5.72")


def test_validation_table_two_decimal_mode():
    rows = [ValidationRow("Analysis", 17.40, _ci(18.18, 0.42), 0.78, 5.38, _ci(5.33, 0.10), 0.92)]
    text = render_validation_table(rows, decimals=2)
    assert "18.18 (±0.42)" in text
    assert "17.40" in text and "0.78" in text


def test_validation_table_zero_renders_as_zero():
    rows = [ValidationRow("Only", 0.0, _ci(0.0, 0.0), 0.0, 0.0, _ci(0.0, 0.0), 0.0)]
    line = render_validation_table(rows, decimals=1).splitlines()[2]
    assert re.sub(r"\s+", " ", line).strip() == "Only | 0.0 | 0.0 (±0.00) | 0.0 | 0.00 | 0.00 (±0.00) | 0.00"


def test_validation_table_guards():
    with pytest.raises(RenderError):
        render_validation_table([])
    with pytest.raises(RenderError):
        render_validation_table(_ORIGINAL_ROWS, decimals=3)


def test_validation_csv_full_precision():
    text = render_validation_csv(_ORIGINAL_ROWS[:1])
    lines = text.splitlines()
    assert lines[0].startswith("job_class,eg_utilization_pct,qn_utilization_pct")
    assert lines[1].split(",")[1] == "17.4"


def _series(label="s"):
    return PlotSeries(label=label, x=(1.0, 2.0, 3.0, 4.0), y=(5.0, 3.0, 4.0, 6.0), hw=(0.5, 0.4, 0.3, 0.2))


def test_svg_is_deterministic_and_self_contained():
    a = render_plot([_series()], title="t", x_label="x", y_label="y")
    b = render_plot([_series()], title="t", x_label="x", y_label="y")
    assert a == b
    assert a.startswith("<svg xmlns=") and a.rstrip().endswith("</svg>")
    assert "http" not in a.replace("http://www.w3.org/2000/svg", "")  # no external fetches
    assert a.count("<circle") == 4
    # error bars: one stem and two caps per point
    assert a.count("<line") >= 12


def test_svg_minimum_annotation():
    svg = render_plot([_series()], annotate_minimum=True)
    assert "min at x=2" in svg
    # log-x variant annotates the same point
    logsvg = render_plot([_series()], annotate_minimum=True, x_scale="log")
    assert "min at x=2" in logsvg


def test_svg_legend_and_escaping():
    two = [_series("a & b"), _series("c<d")]
    svg = render_plot(two)
    assert "a &amp; b" in svg and "c&lt;d" in svg
    # the local escape replaces as xml.sax.saxutils.escape does: & first
    tricky = "x &lt; y > z & <w>"
    assert _escape(tricky) == escape(tricky) == "x &amp;lt; y &gt; z &amp; &lt;w&gt;"


def test_svg_input_validation():
    with pytest.raises(RenderError, match="lengths differ"):
        render_plot([PlotSeries("bad", (1.0, 2.0), (1.0,), (0.0, 0.0))])
    with pytest.raises(RenderError, match="at least one series"):
        render_plot([])
    with pytest.raises(RenderError, match="positive"):
        render_plot([PlotSeries("neg", (0.0, 1.0), (1.0, 1.0), (0.0, 0.0))], x_scale="log")
    single = PlotSeries("one", (5.0,), (2.0,), (0.1,))
    svg = render_plot([single])  # a single point renders without error
    assert svg.count("<circle") == 1
