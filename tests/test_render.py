"""Renderers: CSV schema, table formatting, deterministic SVG."""

import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

from qnaps.egraph import ValidationRow
from qnaps.render import (
    CSV_COLUMNS,
    PlotSeries,
    RenderError,
    _escape,
    cell_text,
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


@pytest.mark.parametrize("value, text", [
    (0.1, "0.1"),
    (-0.0, "-0.0"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    ("1e-2", "1e-2"),  # a string as written
    (8, "8"),
    (True, "true"),
    (None, "null"),
    ([1, 2], "[1, 2]"),
    ({"b": 1, "a": 2}, '{"a": 2, "b": 1}'),
])
def test_cell_text_spells_each_kind_of_value(value, text):
    assert cell_text(value) == text


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


@pytest.mark.parametrize("x, y, hw, scale, match", [
    ((1.7e308,), (1.0,), (0.0,), "linear", "x values"),  # the pad of a tenth carries it past
    ((-1.7e308, 1.7e308), (1.0, 1.0), (0.0, 0.0), "linear", "x values"),
    ((1.0,), (1.7e308,), (0.0,), "linear", "y values"),
    ((1.0, 2.0), (-1.7e308, 1.7e308), (0.0, 0.0), "linear", "y values"),
    ((1.0,), (1.0,), (1.7e308,), "linear", "y values"),
    ((1e308,), (1.0,), (0.0,), "log", "x values"),  # a tick at 10**308.4
    ((1e-300, 1e300), (1.0, 1.0), (0.0, 0.0), "log", "x values"),
], ids=["x", "x-span", "y", "y-span", "half-width", "log-x", "log-x-span"])
def test_svg_of_a_range_past_the_floats_is_a_render_error(x, y, hw, scale, match):
    # past the floats: the arithmetic of each one's ticks would overflow
    with pytest.raises(RenderError, match=f"{match} .* do not fit on a plot's axis"):
        render_plot([PlotSeries("s", x, y, hw)], x_scale=scale)


@pytest.mark.parametrize("x, y, hw, match", [
    ((1.0, math.nan), (1.0, 2.0), (0.0, 0.0), "every x must be finite"),
    ((math.nan, 1.0), (1.0, 2.0), (0.0, 0.0), "every x must be finite"),
    ((1.0, math.inf), (1.0, 2.0), (0.0, 0.0), "every x must be finite"),
    ((1.0, 2.0), (1.0, 2.0), (0.0, math.nan), "the error bar of a drawn point must be finite"),
    ((1.0, 2.0), (1.0, 2.0), (math.nan, 0.0), "the error bar of a drawn point must be finite"),
    ((1.0, 2.0), (1.0, 2.0), (0.0, math.inf), "the error bar of a drawn point must be finite"),
], ids=["nan-x-second", "nan-x-first", "inf-x", "nan-hw-second", "nan-hw-first", "inf-hw"])
def test_svg_of_a_non_finite_x_or_error_bar_is_a_render_error(x, y, hw, match):
    # min and max pass a NaN on only from the first position, so the axis
    # range alone cannot refuse a NaN elsewhere; each refusal names its series
    with pytest.raises(RenderError, match=f"series 's': {match}"):
        render_plot([PlotSeries("s", x, y, hw)])


def test_svg_leaves_out_a_nan_y_whatever_its_error_bar():
    # a point with no estimate is not drawn, so its error bar is not checked
    svg = render_plot([PlotSeries("s", (1.0, 2.0, 3.0), (1.0, math.nan, 2.0), (0.0, math.nan, 0.0))])
    assert svg.count("<circle") == 2 and not re.search(r"\bnan\b", svg)


# the plot of argv[1]'s x and y values on argv[2]'s x scale: its count of text labels
_NARROW_CHILD = """
import ast, re, sys
from qnaps.render import PlotSeries, render_plot
x, y = ast.literal_eval(sys.argv[1])
svg = render_plot([PlotSeries("s", x, y, (0.0,) * len(x))], x_scale=sys.argv[2])
print(len(re.findall("<text", svg)))
"""


@pytest.mark.parametrize("x, y, scale", [
    ((0.05, 0.05000000000000001), (1.0, 2.0), "linear"),
    ((1.0, 2.0), (1.0, 1.0000000000000002), "linear"),
    ((10.0, 10.000000000000004), (1.0, 2.0), "log"),  # logs 1.0 and 1.0000000000000002
    ((1e20,), (1.0,), "linear"),  # ±0.5 does not move a single x this large
    ((-1e20,), (1.0,), "linear"),
    ((2.0**53,), (1.0,), "linear"),
    ((2.0**51,), (1.0,), "linear"),  # ±0.5 moves it, by too little for the ticks
], ids=["x", "y", "log-x", "x-1e20", "x-minus-1e20", "x-2**53", "x-2**51"])
def test_svg_of_values_a_few_ulps_apart_returns(x, y, scale):
    # the ticks stepped t += step by less than half an ulp of t, so t never
    # moved and the tick list grew until memory ran out; run in a child
    # under a 1 GiB address-space cap and a timeout, so such a hang fails
    # the test and does not stop the suite
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", _NARROW_CHILD, repr((x, y)), scale],
                          capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory)
    assert done.returncode == 0, done.stderr
    assert 4 < int(done.stdout) < 40
