"""qnaps benchmark: shipped experiments end to end, each layer timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a qnaps checkout; qnaps is imported from the
checkout's src/, so nothing needs installing. The workloads are shipped
configs, unchanged except that the seed is their base seed:

    awty_sweep.jobs_nproc    awty_sweep.yaml at --jobs = usable CPUs
    wwi.jobs1                wwi.yaml at --jobs 1
    table6_validation.jobs1  table6_validation.yaml at --jobs 1

--trace 0 measures end to end. It times set-up in fresh interpreters
(setup_probe.py), then runs ``python3 -m qnaps.cli`` on the workload back
to back: as many whole experiments as take S seconds on the reference
machine. It reports set-up time, wall time, station completions per second
and peak resident memory.

--trace 1 measures each layer. It times the import in fresh interpreters,
replays the experiment serially with a span around every call into qnaps
(layers.py), then runs ``runner.run_experiment`` in process without
tracing, at jobs 1 and at the workload's jobs count. It reports per-layer
figures and the tracing overhead, and writes the spans to
perfbench/out/<workload>/trace.json. Its work is fixed; S is not used.

Every run checks its outputs (checks.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; attempted and failed count replications.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yaml

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = SRC / "qnaps" / "configs"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"

NPROC = len(os.sched_getaffinity(0))
# workload -> (shipped config, worker count, nominal seconds per experiment).
# The nominal time is the median wall_s of the README's reference figures; a
# run makes round(S / nominal) experiments, so the work measured is fixed by
# S and does not depend on how fast the code under test is.
WORKLOADS = {
    "awty_sweep.jobs_nproc": ("awty_sweep", NPROC, 15.0),
    "wwi.jobs1": ("wwi", 1, 12.5),
    "table6_validation.jobs1": ("table6_validation", 1, 4.2),
}
# Set-up is timed this many times per run, after one untimed warm-up that
# fills the bytecode and file caches; the median is reported.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "completions_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.import_s": "s",
    "config.load_s": "s",
    "config.build_model_s": "s",
    "model.validate_s": "s",
    "kernel.replication_s": "s",
    "kernel.completions": "count",
    "kernel.completions_per_s": "1/s",
    "kernel.dropped": "count",
    "stats.estimates_s": "s",
    "egraph.validation_table_s": "s",
    "render.csv_s": "s",
    "render.table_s": "s",
    "render.svg_s": "s",
    "render.validation_s": "s",
    "runner.experiment_s": "s",
    "runner.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    # let the warm-up write bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, log_stem: Path) -> tuple[int, float, float]:
    """Run ``python3 *args`` from the checkout root and wait for it.

    Standard output and error go to ``log_stem``.out / .err. Returns the
    exit code, the wall seconds from start to reaping, and the peak
    resident set in MB of the process or of any worker it reaped.
    """
    with open(log_stem.with_suffix(".out"), "wb") as out, \
            open(log_stem.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(),
                                stdout=out, stderr=err, start_new_session=True)
        # a hung experiment is killed with its pool workers
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_samples(config: Path, seed: int, work: Path) -> list[dict]:
    """One untimed warm-up, then SETUP_SAMPLES timed set-ups."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        stem = work / f"setup{i}"
        code, _, _ = spawn([str(SETUP_PROBE), str(config), str(seed)], stem)
        if code != 0:
            raise BenchError(f"set-up probe exited {code}: "
                             + stem.with_suffix(".err").read_text(errors="replace")[-2000:])
        if i:
            samples.append(json.loads(stem.with_suffix(".out").read_text().splitlines()[-1]))
    return samples


def _artifacts(out_dir: Path, experiment: str) -> dict:
    """Written files by name; the manifest without its wall-clock field."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == f"{experiment}_manifest.json":
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest.pop("wall_clock_seconds")
            files[path.name] = json.dumps(manifest, sort_keys=True).encode()
        else:
            files[path.name] = path.read_bytes()
    return files


def _fmt(values) -> str:
    return " ".join(f"{v:.4g}" for v in values)


def completions_from_csv(rows, window_ms: float) -> int:
    """Station completions inside the measurement window over every
    replication and sweep point: sum of throughput * (horizon - warmup) * n
    over the ``all`` rows of non-system stations."""
    return round(sum(
        float(r["mean"]) * window_ms * int(r["n"])
        for r in rows
        if r["station"] != "system" and r["class"] == "all" and r["metric"] == "throughput-per-msec"
    ))


def measure_end_to_end(config: Path, experiment: str, jobs: int, seed: int, experiments: int,
                       per_run: int, doc: dict, work: Path) -> dict:
    setup = setup_samples(config, seed, work)
    walls, rss, problems = [], [], []
    failed = 0
    first = None
    for i in range(experiments):
        run_dir = work / f"cli{i}"
        code, wall, peak = spawn(
            ["-m", "qnaps.cli", "--config", str(config), "--seed", str(seed),
             "--jobs", str(jobs), "--out", str(run_dir)],
            run_dir)
        walls.append(wall)
        rss.append(peak)
        if code != 0:
            failed += per_run
            print(f"perfbench: {run_dir.name} exited {code}", file=sys.stderr)
        elif first is None:
            first = run_dir
            first_files = _artifacts(run_dir, experiment)
            problems += checks.check_run(run_dir, experiment, doc)
        else:
            files = _artifacts(run_dir, experiment)
            for name in sorted(set(files) | set(first_files)):
                problems += checks.check_same_bytes(
                    files.get(name, b""), first_files.get(name, b""),
                    f"{run_dir.name}/{name} against {first.name}")
            shutil.rmtree(run_dir)
    if first is None:
        raise BenchError("no run of the experiment succeeded")
    run = doc["run"]
    window_ms = float(run["horizon_msec"]) - float(run["warmup_msec"])
    completions = completions_from_csv(checks.read_csv(first / f"{experiment}.csv"), window_ms)
    wall_s = statistics.median(walls)
    setup_s = [s["total_s"] for s in setup]
    return {
        "notes": [f"wall_s from {len(walls)} runs: {_fmt(walls)}",
                  f"setup_s from {len(setup_s)} set-ups: {_fmt(setup_s)}",
                  f"station completions per run: {completions}"],
        "problems": problems,
        "attempted": per_run * len(walls),
        "failed": failed,
        "metrics": {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_s),
            "completions_per_s": completions / wall_s,
            "peak_rss_mb": max(rss),
        },
    }


def measure_layers(config: Path, experiment: str, jobs: int, seed: int,
                   per_run: int, doc: dict, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import layers
    from qnaps.config import load_config
    from qnaps.runner import run_experiment

    setup = setup_samples(config, seed, work)
    tracer = layers.Tracer()
    traced = layers.traced_experiment(tracer, config, seed)
    (work / "trace.json").write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    traced_s = tracer.total("experiment")

    cfg = load_config(config).with_overrides(seed=seed)
    timings = {}
    problems = []
    for k in sorted({1, jobs}):
        run_dir = work / f"jobs{k}"
        start = time.perf_counter()
        run_experiment(cfg, out_dir=run_dir, jobs=k)
        timings[k] = time.perf_counter() - start
        problems += checks.check_run(run_dir, experiment, doc)
        written = _artifacts(run_dir, experiment)
        for name, text in sorted(traced["artifacts"].items()):
            problems += checks.check_same_bytes(
                written.get(name, b""), text.encode("utf-8"),
                f"{name} at jobs {k} against the traced run at jobs 1")

    metrics = {"cli.import_s": statistics.median(s["import_s"] for s in setup)}
    metrics.update(layers.layer_metrics(tracer, traced["completions"], traced["dropped"]))
    metrics["runner.experiment_s"] = timings[jobs]
    metrics["runner.parallel_efficiency"] = (
        sum(tracer.durations("kernel.replication")) / (jobs * timings[jobs]))
    metrics["trace.overhead_s"] = traced_s - timings[1]
    return {
        "notes": [f"replications traced: {len(tracer.durations('kernel.replication'))}",
                  f"spans written: {work / 'trace.json'} ({len(tracer.spans)} spans)"],
        "problems": problems,
        "attempted": traced["replications"] + per_run * len(timings),
        "failed": 0,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    experiment, jobs, nominal_s = WORKLOADS[args.workload]
    config = CONFIGS / f"{experiment}.yaml"
    if not (SRC / "qnaps" / "cli.py").is_file() or not config.is_file():
        print(f"perfbench: no qnaps sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("perfbench: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2

    doc = yaml.safe_load(config.read_text(encoding="utf-8"))
    points = len(doc["sweep"]["values"]) if doc.get("sweep") else 1
    per_run = points * int(doc["run"]["replications"])

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = measure_layers(config, experiment, jobs, args.seed, per_run, doc, work)
            units = LAYER_UNITS
        else:
            experiments = max(1, round(args.seconds / nominal_s))
            result = measure_end_to_end(config, experiment, jobs, args.seed, experiments,
                                        per_run, doc, work)
            units = E2E_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for note in result["notes"]:
        print(f"{args.workload}: {note}")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if not result["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
