"""Traced replay of one qnaps experiment, layer by layer.

``traced_experiment`` calls the public functions of each qnaps module in
the order ``runner.run_experiment`` calls them, serially, and records a
span around every call. Spans are kept in memory by a ``Tracer`` and
written out by the caller when the run ends. Nothing inside qnaps is
instrumented: each span times one call from the outside.

Two differences from the runner are deliberate. ``validate_model`` is
called on its own before each replication so its time shows as a span
(``run_replication`` validates again inside ``kernel.replication``), and
no file is written: the artifacts are returned as strings.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from qnaps import render
from qnaps.config import apply_sweep_value, build_model_from_config, load_config
from qnaps.egraph import build_validation_table
from qnaps.kernel import run_replication
from qnaps.model import validate_model
from qnaps.runner import replication_seed
from qnaps.stats import MetricAccumulator


class Tracer:
    """In-memory spans: (id, name, start, end, parent id or None)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, *names: str) -> float:
        return sum(sum(self.durations(n)) for n in names)


def _plot_series(cfg, per_point) -> list[render.PlotSeries]:
    xs = tuple(float(v) for v, _ in per_point) if cfg.sweep_parameter else (0.0,)
    series = []
    for sel in cfg.plot.series:
        key = (sel.station, sel.job_class, sel.metric)
        series.append(render.PlotSeries(
            label=sel.label,
            x=xs,
            y=tuple(est[key].mean for _, est in per_point),
            hw=tuple(est[key].half_width for _, est in per_point),
        ))
    return series


def traced_experiment(tracer: Tracer, config_path, seed: int) -> dict:
    """Run the experiment serially under ``tracer``.

    Returns the rendered artifacts by file name, the number of
    replications run, and the engine's station completions and drops
    inside the measurement window, summed over every replication.
    """
    with tracer.span("config.load"):
        cfg = load_config(config_path).with_overrides(seed=seed)
    window = cfg.horizon - cfg.warmup
    points = list(cfg.sweep_values) if cfg.sweep_parameter is not None else [None]
    completions = dropped = replications = 0
    artifacts: dict[str, str] = {}
    with tracer.span("experiment"):
        per_point = []
        for i, value in enumerate(points):
            with tracer.span("point"):
                with tracer.span("config.apply_sweep_value"):
                    if cfg.sweep_parameter is not None:
                        model_section, antipattern_section = apply_sweep_value(cfg, value)
                    else:
                        model_section, antipattern_section = cfg.model, cfg.antipattern
                acc = MetricAccumulator()
                for r in range(cfg.replications):
                    with tracer.span("config.build_model"):
                        net = build_model_from_config(model_section, antipattern_section)
                    with tracer.span("model.validate"):
                        diagnostics = validate_model(net)
                    if diagnostics:
                        raise RuntimeError(f"model does not validate: {diagnostics}")
                    with tracer.span("kernel.replication"):
                        result = run_replication(
                            net, seed=replication_seed(cfg.seed, i, r),
                            horizon=cfg.horizon, warmup=cfg.warmup)
                    replications += 1
                    for s in result.samples:
                        if s.station != "system" and s.job_class == "all":
                            if s.metric == "throughput-per-msec":
                                completions += round(s.value * window)
                            elif s.metric == "dropped-count":
                                dropped += round(s.value)
                    with tracer.span("stats.add"):
                        acc.add(r, result)
                with tracer.span("stats.estimates"):
                    est = acc.estimates()
                per_point.append((value, est))

        with tracer.span("render.csv"):
            rows = []
            for value, est in per_point:
                rows += render.estimate_rows(
                    cfg.experiment, est, n=cfg.replications, base_seed=cfg.seed,
                    sweep_param=cfg.sweep_parameter or "",
                    sweep_value="" if cfg.sweep_parameter is None else value)
            if "csv" in cfg.outputs:
                artifacts[f"{cfg.experiment}.csv"] = render.render_csv(rows)

        validation_rows = None
        if cfg.validation is not None:
            with tracer.span("egraph.validation_table"):
                validation_rows = build_validation_table(
                    list(cfg.validation.scenarios), per_point[0][1], cfg.validation.resource_map)

        if "table" in cfg.outputs:
            with tracer.span("render.table"):
                blocks = []
                for value, est in per_point:
                    heading = f"# {cfg.experiment}"
                    if cfg.sweep_parameter is not None:
                        heading += f"  [{cfg.sweep_parameter} = {value!r}]"
                    blocks.append(render.render_estimates_table(est, heading=heading))
                artifacts[f"{cfg.experiment}_table.txt"] = "\n".join(blocks)

        if validation_rows is not None:
            with tracer.span("render.validation"):
                if "table" in cfg.outputs:
                    artifacts[f"{cfg.experiment}_validation.txt"] = render.render_validation_table(
                        validation_rows, decimals=cfg.validation.decimals)
                artifacts[f"{cfg.experiment}_validation.csv"] = render.render_validation_csv(
                    validation_rows)

        if "svg" in cfg.outputs:
            with tracer.span("render.svg"):
                artifacts[f"{cfg.experiment}.svg"] = render.render_plot(
                    _plot_series(cfg, per_point),
                    title=cfg.plot.title, x_label=cfg.plot.x_label, y_label=cfg.plot.y_label,
                    x_scale=cfg.plot.x_scale, annotate_minimum=cfg.plot.annotate_minimum)

    return {
        "artifacts": artifacts,
        "replications": replications,
        "completions": completions,
        "dropped": dropped,
    }


def layer_metrics(tracer: Tracer, completions: int, dropped: int) -> dict:
    """Per-layer figures from the spans of one traced experiment."""
    reps = tracer.durations("kernel.replication")
    return {
        "config.load_s": tracer.total("config.load"),
        "config.build_model_s": tracer.total("config.apply_sweep_value", "config.build_model"),
        "model.validate_s": tracer.total("model.validate"),
        "kernel.replication_s": statistics.median(reps),
        "kernel.completions": completions,
        "kernel.completions_per_s": completions / sum(reps),
        "kernel.dropped": dropped,
        "stats.estimates_s": tracer.total("stats.add", "stats.estimates"),
        "egraph.validation_table_s": tracer.total("egraph.validation_table"),
        "render.csv_s": tracer.total("render.csv"),
        "render.table_s": tracer.total("render.table"),
        "render.svg_s": tracer.total("render.svg"),
        "render.validation_s": tracer.total("render.validation"),
    }
