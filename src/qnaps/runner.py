"""Experiment orchestration: sweeps, parallel replications, outputs.

One experiment is: for each sweep point (once, without a sweep), run n
independent replications of the point's model and reduce them to 99%
interval estimates. Results are rendered to the requested formats and
written together with a manifest that pins everything needed to
re-execute the run bit-identically; only the manifest's wall-clock field
varies between identical runs.

Replication seeds are ``base_seed XOR replication_index`` (mod 2^64).
The sweep index is deliberately not mixed in: every sweep point sees the
same seed list, so paired comparisons across sweep values run under
common random numbers. The manifest records the derived list.

Each sweep point's model was built and validated once, when the config
was parsed; the run takes it from the config's points. The whole
experiment is one flat grid of (point model x replication seed),
point-major, over which kernel.run_replication is mapped: builtin map at
one worker, one thread pool's map otherwise, so no sweep point waits
for the slowest replication of the one before it. The compiled loop
runs without the GIL, so the threads' replications run in parallel; they
share each point's model, which nothing mutates. Results come back in
grid order and are folded in (point, replication) order, each point
reduced and announced as its last replication arrives, so the worker
count never changes any number. The first failing replication stops the
run: the pool's map cancels every replication not yet handed to a
worker, and the run returns once those in flight have ended.

An interrupt (SIGINT) reaches the main thread only, as KeyboardInterrupt,
which stops the run the same way: the pending replications are
cancelled, and each one already on a worker thread runs to its end,
since no signal reaches a worker thread.
"""

from __future__ import annotations

import json
import time
from itertools import repeat
from pathlib import Path

from . import __version__, render, sha256
from .config import ExperimentConfig
from .egraph import build_validation_table
from .kernel import run_replication
from .stats import MetricAccumulator

SEED_MASK = (1 << 64) - 1


def replication_seed(base_seed: int, sweep_index: int, rep_index: int) -> int:
    """Derived seed for one replication; constant in sweep_index by design
    (common random numbers across sweep values)."""
    del sweep_index
    return (base_seed ^ rep_index) & SEED_MASK


def _plot_series(cfg: ExperimentConfig, per_point) -> list[render.PlotSeries]:
    """per_point: list of (sweep_value, estimates). Each point sits at its
    x; the config checked at parse time that every x is a number and
    every series has an estimate at every point."""
    xs = tuple(p.x for p in cfg.points)
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


def run_experiment(cfg: ExperimentConfig, *, out_dir, jobs: int = 1, echo=None) -> list[Path]:
    """Run a parsed experiment and write its outputs.

    All artifacts are rendered in memory first and written only when the
    whole experiment has succeeded, so a failure leaves no partial files;
    if a write itself fails, files already written are removed. Returns
    the written paths (manifest last). echo, when given, receives
    human-facing text (tables, progress lines).
    """
    t0 = time.monotonic()
    out_dir = Path(out_dir)
    say = echo if echo is not None else (lambda _: None)

    reps = cfg.replications
    models = [p.model for p in cfg.points for _ in range(reps)]
    seeds = [replication_seed(cfg.seed, i, r) for i in range(len(cfg.points)) for r in range(reps)]
    grid = (models, seeds, repeat(cfg.horizon), repeat(cfg.warmup))

    pool = None
    per_point = []
    try:
        if jobs > 1:
            from concurrent.futures import ThreadPoolExecutor  # a serial run never loads the pool

            pool = ThreadPoolExecutor(max_workers=min(jobs, len(seeds)))
            results = pool.map(run_replication, *grid)
        else:
            results = map(run_replication, *grid)
        for k, result in enumerate(results):
            i, r = divmod(k, reps)
            if r == 0:
                acc = MetricAccumulator()
            acc.add(r, result)
            if r == reps - 1:
                value = cfg.points[i].value
                per_point.append((value, acc.estimates()))
                if cfg.sweep_parameter is not None:
                    say(f"{cfg.experiment}: {cfg.sweep_parameter} = {render.cell_text(value)} done "
                        f"({reps} replications)")
                else:
                    say(f"{cfg.experiment}: {reps} replications done")
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    # render everything in memory
    artifacts: dict[str, str] = {}

    csv_rows = []
    for value, est in per_point:
        csv_rows += render.estimate_rows(
            cfg.experiment,
            est,
            base_seed=cfg.seed,
            sweep_param=cfg.sweep_parameter or "",
            sweep_value="" if cfg.sweep_parameter is None else value,
        )
    if "csv" in cfg.outputs:
        artifacts[f"{cfg.experiment}.csv"] = render.render_csv(csv_rows)

    validation_rows = None
    if cfg.validation is not None:
        _, est = per_point[0]
        validation_rows = build_validation_table(
            list(cfg.validation.scenarios), est, cfg.validation.resource_map
        )

    if "table" in cfg.outputs:
        blocks = []
        for value, est in per_point:
            heading = f"# {cfg.experiment}"
            if cfg.sweep_parameter is not None:
                heading += f"  [{cfg.sweep_parameter} = {render.cell_text(value)}]"
            blocks.append(render.render_estimates_table(est, heading=heading))
        text = "\n".join(blocks)
        artifacts[f"{cfg.experiment}_table.txt"] = text
        say(text)
        if validation_rows is not None:
            vtext = render.render_validation_table(
                validation_rows, decimals=cfg.validation.decimals
            )
            artifacts[f"{cfg.experiment}_validation.txt"] = vtext
            say(vtext)

    if validation_rows is not None:
        artifacts[f"{cfg.experiment}_validation.csv"] = render.render_validation_csv(validation_rows)

    if "svg" in cfg.outputs:
        artifacts[f"{cfg.experiment}.svg"] = render.render_plot(
            _plot_series(cfg, per_point),
            title=cfg.plot.title,
            x_label=cfg.plot.x_label,
            y_label=cfg.plot.y_label,
            x_scale=cfg.plot.x_scale,
            annotate_minimum=cfg.plot.annotate_minimum,
        )

    # write, then manifest with digests of what was written
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name in sorted(artifacts):
            path = out_dir / name
            path.write_text(artifacts[name], encoding="utf-8")
            written.append(path)
        manifest = {
            "schema": "v1",
            "tool": "qnaps",
            "tool_version": __version__,
            "experiment": cfg.experiment,
            "config_sha256": cfg.config_sha256,
            "base_seed": cfg.seed,
            "replications": cfg.replications,
            "horizon_msec": cfg.horizon,
            "warmup_msec": cfg.warmup,
            "sweep_parameter": cfg.sweep_parameter,
            "sweep_values": list(cfg.sweep_values) if cfg.sweep_parameter is not None else None,
            "replication_seeds": [
                replication_seed(cfg.seed, 0, r) for r in range(cfg.replications)
            ],
            "outputs": {
                name: sha256(artifacts[name].encode("utf-8")).hexdigest()
                for name in sorted(artifacts)
            },
            "wall_clock_seconds": round(time.monotonic() - t0, 3),
        }
        mpath = out_dir / f"{cfg.experiment}_manifest.json"
        mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(mpath)
    except BaseException:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
    return written
