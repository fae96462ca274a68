"""Experiment runner and command line behavior."""

import ast
import csv
import hashlib
import importlib.util
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import yaml

import qnaps
from qnaps import kernel
from qnaps.cli import main
from qnaps.config import ConfigError, apply_sweep_value, build_model_from_config, load_config
from qnaps.kernel import KernelError, run_replication
from qnaps.runner import replication_seed, run_experiment


def _write_config(path: Path, **overrides) -> Path:
    doc = {
        "schema": "v1",
        "experiment": "tiny",
        "model": {"builder": "baseline"},
        "run": {"replications": 2, "seed": 424242, "horizon_msec": 2000.0, "warmup_msec": 200.0},
        "outputs": ["csv", "table"],
    }
    doc.update(overrides)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


DEAD_MODEL = {
    "builder": "inline",
    "stations": [
        {"name": "Think", "kind": "delay", "service": {"Loop": {"kind": "deterministic", "value_msec": float("inf")}}},
        {"name": "Work", "kind": "fcfs", "service": {"Loop": {"kind": "exponential", "mean_msec": 1.0}}},
    ],
    "classes": [{"name": "Loop", "kind": "closed", "population": 1, "reference": "Think"}],
    "routing": [
        {"class": "Loop", "from": "Think", "to": "Work"},
        {"class": "Loop", "from": "Work", "to": "Think"},
    ],
}


def test_seed_derivation_is_pure_and_sweep_blind():
    assert replication_seed(424242, 0, 0) == 424242
    assert replication_seed(424242, 0, 3) == 424242 ^ 3
    # same seeds at every sweep index: common random numbers by design
    assert [replication_seed(9, 0, r) for r in range(5)] == [
        replication_seed(9, 4, r) for r in range(5)
    ]
    assert replication_seed(2**64 - 1, 0, 1) < 2**64


def test_run_experiment_outputs_and_manifest(tmp_path):
    cfg = load_config(_write_config(tmp_path / "tiny.yaml"))
    out = tmp_path / "out"
    written = run_experiment(cfg, out_dir=out, jobs=1)
    names = sorted(p.name for p in written)
    assert names == ["tiny.csv", "tiny_manifest.json", "tiny_table.txt"]

    manifest = json.loads((out / "tiny_manifest.json").read_text())
    assert manifest["experiment"] == "tiny"
    assert manifest["base_seed"] == 424242
    assert manifest["replication_seeds"] == [424242, 424242 ^ 1]
    assert manifest["config_sha256"] == cfg.config_sha256
    assert manifest["sweep_parameter"] is None
    assert "wall_clock_seconds" in manifest
    # recorded digests match the bytes on disk
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    csv_lines = (out / "tiny.csv").read_text().splitlines()
    assert csv_lines[0].startswith("experiment,sweep_param")
    assert all(ln.startswith("tiny,,") for ln in csv_lines[1:])


def test_worker_count_never_changes_results(tmp_path):
    cfg = load_config(_write_config(tmp_path / "tiny.yaml", run={
        "replications": 4, "seed": 11, "horizon_msec": 2000.0, "warmup_msec": 200.0,
    }))
    run_experiment(cfg, out_dir=tmp_path / "serial", jobs=1)
    run_experiment(cfg, out_dir=tmp_path / "parallel", jobs=3)
    assert (tmp_path / "serial/tiny.csv").read_bytes() == (tmp_path / "parallel/tiny.csv").read_bytes()


def test_more_threads_than_cores_switching_often_write_the_serial_bytes(tmp_path):
    # the worker threads share each point's model: with more threads than
    # cores and the interpreter switching threads every microsecond, a
    # replication that wrote to shared state would move a byte
    cfg = load_config(_write_config(
        tmp_path / "grid.yaml",
        experiment="grid",
        sweep={"parameter": "model.params.arrival_rate", "values": [0.02, 0.05]},
        run={"replications": 4, "seed": 5, "horizon_msec": 2000.0, "warmup_msec": 200.0},
    ))
    run_experiment(cfg, out_dir=tmp_path / "serial", jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_experiment(cfg, out_dir=tmp_path / "threads", jobs=2 * (os.cpu_count() or 1) + 1)
    finally:
        sys.setswitchinterval(interval)
    for name in ("grid.csv", "grid_table.txt"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "threads" / name).read_bytes()


def test_flat_grid_matches_serial_bytes_and_reports_points_in_order(tmp_path):
    # 3 points x 3 replications = 9 payloads: they do not divide evenly over
    # 2 workers, so points finish out of step with the pool's rounds
    cfg = load_config(_write_config(
        tmp_path / "grid.yaml",
        experiment="grid",
        sweep={"parameter": "model.params.arrival_rate", "values": [0.02, 0.05, 0.08]},
        run={"replications": 3, "seed": 77, "horizon_msec": 2000.0, "warmup_msec": 200.0},
        outputs=["csv", "table", "svg"],
        plot={
            "x_label": "arrival rate",
            "y_label": "utilization",
            "series": [{"station": "Controller", "class": "all", "metric": "utilization"}],
        },
    ))
    progress = {}
    for jobs in (1, 2):
        said = []
        run_experiment(cfg, out_dir=tmp_path / f"j{jobs}", jobs=jobs, echo=said.append)
        progress[jobs] = [ln for ln in said if ln.endswith("replications)")]
    for name in ("grid.csv", "grid_table.txt", "grid.svg"):
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()
    expected = [f"grid: model.params.arrival_rate = {v} done (3 replications)"
                for v in ("0.02", "0.05", "0.08")]
    assert progress[1] == progress[2] == expected


def test_run_experiment_builds_each_point_model_once(tmp_path, monkeypatch):
    built = []

    def counting(*sections):
        built.append(sections)
        return build_model_from_config(*sections)

    monkeypatch.setattr("qnaps.config.build_model_from_config", counting)
    cfg = load_config(_write_config(
        tmp_path / "sweep.yaml",
        sweep={"parameter": "model.params.arrival_rate", "values": [0.02, 0.05]},
        run={"replications": 3, "seed": 5, "horizon_msec": 500.0, "warmup_msec": 50.0},
    ))
    assert len(built) == 2  # one per sweep point, at parse
    run_experiment(cfg.with_overrides(seed=6), out_dir=tmp_path / "o", jobs=1)
    assert len(built) == 2  # the run reuses them, also after an override


def test_failed_write_leaves_no_partial_outputs(tmp_path):
    cfg = load_config(_write_config(tmp_path / "tiny.yaml"))
    out = tmp_path / "out"
    out.mkdir()
    (out / "tiny_table.txt").mkdir()  # the second write will fail on this
    with pytest.raises(OSError):
        run_experiment(cfg, out_dir=out, jobs=1)
    assert not (out / "tiny.csv").exists()
    assert not (out / "tiny_manifest.json").exists()


def test_cli_happy_path(tmp_path, capsys):
    cfg = _write_config(tmp_path / "tiny.yaml")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    seen = capsys.readouterr().out
    assert "wrote" in seen and "tiny.csv" in seen
    assert (tmp_path / "o" / "tiny.csv").exists()


def test_cli_flags_override_config(tmp_path):
    cfg = _write_config(tmp_path / "tiny.yaml")
    out = tmp_path / "o"
    assert main([
        "--config", str(cfg), "--out", str(out),
        "--seed", "7", "--replications", "3", "--format", "csv",
    ]) == 0
    manifest = json.loads((out / "tiny_manifest.json").read_text())
    assert manifest["base_seed"] == 7 and manifest["replications"] == 3
    assert sorted(manifest["outputs"]) == ["tiny.csv"]  # table suppressed
    assert not (out / "tiny_table.txt").exists()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = _write_config(
        tmp_path / "bad.yaml",
        sweep={"parameter": "model.params.no_such_knob", "values": [1, 2]},
    )
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "model.params.no_such_knob" in err  # diagnostics name the path

    assert main(["--config", str(tmp_path / "missing.yaml")]) == 2
    cfg = _write_config(tmp_path / "tiny.yaml")
    assert main(["--config", str(cfg), "--replications", "1"]) == 2
    assert main(["--config", str(cfg), "--format", "svg"]) == 2  # no plot section


def test_cli_malformed_outputs_exit_2(tmp_path, capsys):
    for outputs, got in ((5, "int"), ("csv", "str")):
        cfg = _write_config(tmp_path / "bad.yaml", outputs=outputs)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"outputs: expected a list, got {got}" in capsys.readouterr().err


@pytest.fixture
def no_replications(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr("qnaps.runner.run_replication", never)


def test_cli_unsound_validation_exits_2_before_any_replication(tmp_path, capsys, no_replications):
    scenario = {"class": "Ghost", "arrival_rate_per_msec": 0.05, "graph": {"basic": {"Controller": 10.0}}}
    cfg = _write_config(tmp_path / "ghost.yaml",
                        validation={"resource_map": {"Ghost": "Controller"}, "scenarios": [scenario]})
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
    assert "validation: class present only on the analytic side: Ghost" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_plot_series_exits_2_before_any_replication(tmp_path, capsys, no_replications):
    cfg = _write_config(
        tmp_path / "plot.yaml",
        sweep={"parameter": "model.params.arrival_rate", "values": [0.02, 0.05]},
        outputs=["csv", "svg"],
        plot={"series": [{"station": "Controler", "class": "all", "metric": "utilization"}]},
    )
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
    assert "plot.series[0]: no estimate for station='Controler'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_resource_map_without_utilization_exits_2_before_any_replication(
        tmp_path, capsys, no_replications):
    # Environment is a delay station: it carries Analysis's demand in the
    # scenario but has no utilization estimate to compare it with
    doc = yaml.safe_load((Path(kernel.__file__).with_name("configs") / "table6_validation.yaml").read_text())
    doc["validation"]["resource_map"]["Analysis"] = "Environment"
    doc["run"].update(horizon_msec=5e4, warmup_msec=5e3)
    path = tmp_path / "table6.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    message = ("validation.resource_map.Analysis: 'Environment' is not an fcfs station "
               "serving class 'Analysis'")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out), "--jobs", "1"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "shipped, parameter, values, x_scale, message",
    [
        ("ieok_sweep", "antipattern.check_period", [200.0, float("inf")], None,
         "plot: sweep values must be finite to plot, got inf"),
        ("wwi", "antipattern.overhead", [0.0, 1.0], "log",
         "plot: x_scale log needs positive sweep values, got 0.0"),
        ("wwi", "antipattern.overhead", [0.5, 1.7e308], None,
         "plot: sweep values [0.5, 1.7e+308] do not fit on a plot's x axis"),
    ],
    ids=["infinite", "zero-on-log-scale", "past-the-floats"],
)
def test_cli_sweep_value_the_plot_cannot_place_exits_2_before_any_replication(
        tmp_path, capsys, no_replications, shipped, parameter, values, x_scale, message):
    # the svg renderer failed on these after every replication had run
    doc = yaml.safe_load((Path(kernel.__file__).with_name("configs") / f"{shipped}.yaml").read_text())
    doc["sweep"] = {"parameter": parameter, "values": values}
    if x_scale is not None:
        doc["plot"]["x_scale"] = x_scale
    path = tmp_path / f"{shipped}.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out), "--jobs", "1"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_point_listed_twice_exits_2_before_any_replication(
        tmp_path, capsys, no_replications):
    cfg = _write_config(tmp_path / "twice.yaml",
                        sweep={"parameter": "model.params.arrival_rate", "values": [0.02, 0.05, 0.02]})
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "sweep.values[2]: the same point as sweep.values[0]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_cli_out_at_or_under_a_file_exits_2_before_any_replication(
        tmp_path, capsys, no_replications, under):
    afile = tmp_path / "afile"
    afile.write_text("kept", encoding="utf-8")
    out = afile / "sub" if under else afile
    cfg = _write_config(tmp_path / "tiny.yaml")
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
    # one line, naming the path, with no traceback before it
    [line] = capsys.readouterr().err.strip().splitlines()
    assert line == f"qnaps: config error: --out {out}: {afile}: Not a directory"
    assert afile.read_text(encoding="utf-8") == "kept"


def test_cli_out_name_too_long_exits_2_before_any_replication(tmp_path, capsys, no_replications):
    out = tmp_path / ("o" * 300)
    cfg = _write_config(tmp_path / "tiny.yaml")
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    assert line == f"qnaps: config error: --out {out}: File name too long"


def test_cli_deadlock_exits_3(tmp_path, capsys):
    dead = _write_config(tmp_path / "dead.yaml", experiment="dead", model=DEAD_MODEL)
    out = tmp_path / "o"
    assert main(["--config", str(dead), "--out", str(out)]) == 3
    assert "deadlock" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())  # nothing partial


def test_cli_parallel_sweep_deadlock_exits_3_without_running_the_grid(tmp_path, capsys):
    # point 1 (f_poll = 0) deadlocks at t = 0; point 2 keeps the pollers
    # busy to the horizon. Waiting for the whole grid would cost about
    # reps / 2 of point 2's replications; cancelling the pending ones leaves
    # at most the few already handed to a worker.
    reps = 20
    dead = _write_config(
        tmp_path / "dead.yaml",
        experiment="dead",
        model=DEAD_MODEL,
        antipattern={"kind": "are-we-there-yet", "controller": "Work", "target_class": "Loop"},
        sweep={"parameter": "antipattern.f_poll", "values": [0.0, 0.04]},
        run={"replications": reps, "seed": 3, "horizon_msec": 5000000.0, "warmup_msec": 0.0},
    )
    cfg = load_config(dead)
    live = build_model_from_config(*apply_sweep_value(cfg, 0.04))
    t0 = time.perf_counter()
    run_replication(live, seed=3, horizon=cfg.horizon)
    one_rep = time.perf_counter() - t0

    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert main(["--config", str(dead), "--out", str(out), "--jobs", "2"]) == 3
    elapsed = time.perf_counter() - t0
    assert "deadlock" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())  # nothing partial
    assert elapsed < (reps / 4) * one_rep, (elapsed, one_rep)


def test_cli_parallel_run_interrupted_stops_after_the_replications_in_flight(tmp_path):
    # SIGINT reaches the main thread only: the pending replications are
    # cancelled and each one on a worker thread runs to its end, so the
    # run exits within about one replication of the signal, and killed by
    # it, having written nothing. A replication is timed as the child runs
    # it, two at once.
    wwi = Path(qnaps.__file__).parent / "configs" / "wwi.yaml"
    horizon = 1e7
    cfg = load_config(wwi)
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(run_replication, [cfg.points[0].model] * 2, [cfg.seed, cfg.seed ^ 1],
                      [horizon] * 2, [cfg.warmup] * 2))
    one_rep = time.perf_counter() - t0

    out = tmp_path / "o"
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.Popen(
        [sys.executable, "-m", "qnaps.cli", "--config", str(wwi), "--horizon", str(horizon),
         "--replications", "4", "--jobs", "2", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    time.sleep(0.3 + one_rep / 2)  # start-up, then half way through the first replications
    child.send_signal(signal.SIGINT)
    t0 = time.perf_counter()
    _, err = child.communicate(timeout=60)
    after = time.perf_counter() - t0
    assert child.returncode == -signal.SIGINT, err
    assert b"KeyboardInterrupt" in err
    assert not out.exists() or not list(out.iterdir())
    assert after < 1.25 * one_rep, (after, one_rep)


def test_cli_open_class_with_no_way_out_exits_2(tmp_path, capsys):
    trap = {
        "builder": "inline",
        "stations": [
            {"name": "Source", "kind": "source"},
            {"name": "D", "kind": "delay", "service": {"Jobs": {"kind": "deterministic", "value_msec": 0.0}}},
            {"name": "Sink", "kind": "sink"},
        ],
        "classes": [{"name": "Jobs", "kind": "open", "arrival": {"kind": "exponential", "rate_per_msec": 1.0}}],
        "routing": [
            {"class": "Jobs", "from": "Source", "to": "D"},
            {"class": "Jobs", "from": "D", "to": "D"},
        ],
    }
    path = _write_config(tmp_path / "trap.yaml", experiment="trap", model=trap)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert "class Jobs: station D has no path to a sink" in capsys.readouterr().err
    assert not out.exists()


def test_cli_closed_class_with_no_way_back_exits_2(tmp_path):
    # at delay 0 the trapped jobs would spin at one instant forever, so
    # the CLI runs in a child with a time limit
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    for delay in (0.0, 1.0):
        fixed = {"kind": "deterministic", "value_msec": delay}
        model = {
            "builder": "inline",
            "stations": [
                {"name": "Ref", "kind": "delay", "service": {"C": {"kind": "exponential", "mean_msec": 1.0}}},
                {"name": "A", "kind": "fcfs", "service": {"C": {"kind": "exponential", "mean_msec": 0.5}}},
                # copies: safe_dump writes a dict met twice as an anchor and an alias
                {"name": "B", "kind": "delay", "service": {"C": dict(fixed)}},
                {"name": "X", "kind": "delay", "service": {"C": dict(fixed)}},
            ],
            "classes": [{"name": "C", "kind": "closed", "population": 2, "reference": "Ref"}],
            "routing": [
                {"class": "C", "from": "Ref", "to": {"A": 0.5, "B": 0.5}},
                {"class": "C", "from": "A", "to": "Ref"},
                {"class": "C", "from": "B", "to": "X"},
                {"class": "C", "from": "X", "to": "B"},
            ],
        }
        path = _write_config(tmp_path / "trap.yaml", experiment="trap", model=model)
        out = tmp_path / "o"
        done = subprocess.run(
            [sys.executable, "-m", "qnaps.cli", "--config", str(path), "--out", str(out), "--jobs", "1"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 2, done.stderr
        assert "class C: station B has no path back to reference station Ref" in done.stderr
        assert not out.exists()


def test_cli_zero_mean_arrivals_exit_2(tmp_path):
    # such a run would append arrivals at t = 0 forever, so the CLI runs in
    # a child with a time limit and a 1 GiB address-space cap
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    for arrival in ({"kind": "deterministic", "value_msec": 0.0},
                    {"kind": "uniform", "low_msec": 0.0, "high_msec": 0.0}):
        model = {
            "builder": "inline",
            "stations": [
                {"name": "Source", "kind": "source"},
                {"name": "Q", "kind": "fcfs", "service": {"Jobs": {"kind": "exponential", "mean_msec": 1.0}}},
                {"name": "Sink", "kind": "sink"},
            ],
            "classes": [{"name": "Jobs", "kind": "open", "arrival": arrival}],
            "routing": [
                {"class": "Jobs", "from": "Source", "to": "Q"},
                {"class": "Jobs", "from": "Q", "to": "Sink"},
            ],
        }
        path = _write_config(tmp_path / "zero.yaml", experiment="zero", model=model)
        out = tmp_path / "o"
        done = subprocess.run(
            [sys.executable, "-m", "qnaps.cli", "--config", str(path), "--out", str(out), "--jobs", "1"],
            capture_output=True, text=True, env=env, timeout=30, preexec_fn=cap_memory,
        )
        assert done.returncode == 2, done.stderr
        assert "class Jobs arrival: mean inter-arrival time must be > 0 (got 0.0)" in done.stderr
        assert not out.exists()


def test_cli_routing_into_a_source_exits_2(tmp_path, capsys):
    exp = {"kind": "exponential", "rate_per_msec": 1.0}
    for frm, to in (("Source", "Src2"), ("Q", {"Src2": 0.5, "Sink": 0.5})):
        model = {
            "builder": "inline",
            "stations": [
                {"name": "Source", "kind": "source"},
                {"name": "Src2", "kind": "source"},
                {"name": "Q", "kind": "fcfs", "service": {"Jobs": exp}},
                {"name": "Sink", "kind": "sink"},
            ],
            "classes": [{"name": "Jobs", "kind": "open", "arrival": {"kind": "exponential", "rate_per_msec": 0.5}}],
            "routing": [
                {"class": "Jobs", "from": "Source", "to": "Q"},
                {"class": "Jobs", "from": "Q", "to": "Sink"},
                {"class": "Jobs", "from": frm, "to": to},
                {"class": "Jobs", "from": "Src2", "to": "Q"},
            ],
        }
        path = _write_config(tmp_path / "src.yaml", experiment="src", model=model)
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert f"class Jobs: routing {frm} -> Src2 enters source station Src2" in capsys.readouterr().err
        assert not out.exists()


def test_cli_erlang_phases_beyond_a_c_int_exit_2(tmp_path, capsys):
    # it passed validation, then every replication failed in the compiled loop with exit 1
    model = {"builder": "baseline",
             "params": {"controller_service": {"kind": "erlang", "phases": 3_000_000_000, "mean_msec": 5.0}}}
    path = _write_config(tmp_path / "phases.yaml", experiment="phases", model=model)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "station Controller, class Analysis: erlang phases must be <= 16384 (got 3000000000)" in err
    assert not out.exists()


@pytest.mark.parametrize("params, message", [
    ({"controller_service": {"kind": "erlang", "phases": 10**400, "mean_msec": 2.0}},
     "model.params.controller_service.phases: too many phases for a float rate"),
    ({"controller_servers": 10**400}, "station Controller: servers must be >= 1 and <= 9007199254740992"),
    ({"controller_capacity": 10**400}, "station Controller: capacity must be >= 1 and <= 9007199254740992"),
    ({"status_population": 10**400}, "class Status: closed class needs population >= 1 and <= 16777216"),
], ids=["phases", "servers", "capacity", "population"])
def test_cli_count_past_float_or_index_range_exits_2(tmp_path, capsys, params, message):
    # each printed a traceback and exited 1: the Erlang from its mean in the
    # parser, the counts in every replication's table
    builder = "sensor-net" if "status_population" in params else "baseline"
    path = _write_config(tmp_path / "big.yaml", experiment="big", model={"builder": builder, "params": params})
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_cli_infinite_uniform_service_exits_2(tmp_path, capsys):
    # it ran with exit 0 and wrote a response time of 0.0 for a queue that never empties
    model = {
        "builder": "inline",
        "stations": [
            {"name": "Source", "kind": "source"},
            {"name": "Q", "kind": "fcfs",
             "service": {"Jobs": {"kind": "uniform", "low_msec": 0.5, "high_msec": float("inf")}}},
            {"name": "Sink", "kind": "sink"},
        ],
        "classes": [{"name": "Jobs", "kind": "open", "arrival": {"kind": "exponential", "rate_per_msec": 0.5}}],
        "routing": [
            {"class": "Jobs", "from": "Source", "to": "Q"},
            {"class": "Jobs", "from": "Q", "to": "Sink"},
        ],
    }
    path = _write_config(tmp_path / "inf.yaml", experiment="inf", model=model)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert "station Q, class Jobs: uniform bounds must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_cell_without_completions_reads_nan(tmp_path):
    # at 1e-7 arrivals per msec no job arrives in any replication: the
    # response-time rows read nan with n 0, every output is written, and
    # the plot leaves the point out
    exp = {"kind": "exponential", "mean_msec": 1.0}
    model = {
        "builder": "inline",
        "stations": [
            {"name": "Source", "kind": "source"},
            {"name": "Queue", "kind": "fcfs", "service": {"Jobs": exp}},
            {"name": "Sink", "kind": "sink"},
        ],
        "classes": [{"name": "Jobs", "kind": "open", "arrival": {"kind": "exponential", "rate_per_msec": 1e-7}}],
        "routing": [
            {"class": "Jobs", "from": "Source", "to": "Queue"},
            {"class": "Jobs", "from": "Queue", "to": "Sink"},
        ],
    }
    plot = {"series": [{"station": "system", "class": "Jobs", "metric": "response-time-msec"}]}
    path = _write_config(tmp_path / "idle.yaml", experiment="idle", model=model, plot=plot,
                         run={"replications": 3, "seed": 5, "horizon_msec": 1e5, "warmup_msec": 1e4},
                         outputs=["csv", "svg", "table"])
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
    rows = {(r["station"], r["metric"]): r for r in csv.DictReader((out / "idle.csv").open())}
    for station in ("Queue", "system"):
        row = rows[(station, "response-time-msec")]
        assert (row["mean"], row["ci_half_width_99"], row["n"]) == ("nan", "nan", "0")
        assert rows[(station, "throughput-per-msec")]["mean"] == "0.0"
    assert "<circle" not in (out / "idle.svg").read_text(encoding="utf-8")
    assert sorted(p.name for p in out.iterdir()) == [
        "idle.csv", "idle.svg", "idle_manifest.json", "idle_table.txt"]


def test_cli_validation_against_a_zero_simulated_response_reads_nan(tmp_path):
    # every service of the class takes 0 msec: its simulated response time
    # is 0, so the relative error is undefined; the run writes every file
    zero = {"kind": "deterministic", "value_msec": 0.0}
    model = {
        "builder": "inline",
        "stations": [
            {"name": "Source", "kind": "source"},
            {"name": "Queue", "kind": "fcfs", "service": {"Jobs": zero}},
            {"name": "Sink", "kind": "sink"},
        ],
        "classes": [{"name": "Jobs", "kind": "open", "arrival": {"kind": "exponential", "rate_per_msec": 0.1}}],
        "routing": [
            {"class": "Jobs", "from": "Source", "to": "Queue"},
            {"class": "Jobs", "from": "Queue", "to": "Sink"},
        ],
    }
    scenario = {"class": "Jobs", "arrival_rate_per_msec": 0.1, "graph": {"basic": {"Queue": 1.0}}}
    path = _write_config(tmp_path / "zero.yaml", experiment="zero", model=model,
                         validation={"resource_map": {"Jobs": "Queue"}, "scenarios": [scenario]})
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
    [row] = csv.DictReader((out / "zero_validation.csv").open())
    assert (row["qn_response_msec"], row["response_time_error_pct"]) == ("0.0", "nan")
    assert sorted(p.name for p in out.iterdir()) == [
        "zero.csv", "zero_manifest.json", "zero_table.txt", "zero_validation.csv", "zero_validation.txt"]


def test_cli_internal_error_exits_4_without_outputs(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KernelError("flow imbalance for class Analysis: created 3, sunk 1, dropped 0, in network 1")

    monkeypatch.setattr("qnaps.runner.run_replication", broken)
    cfg = _write_config(tmp_path / "tiny.yaml")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 4
    assert "flow imbalance for class Analysis" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def _child(probe: str) -> str:
    """Last line the probe prints, run in a fresh interpreter on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the CI quantile is computed in the standard library and SVG text is
    # escaped without xml.sax; a whole run, not only the import, must load
    # no scipy, xml.sax or urllib.request module, so a lazy import fails too.
    # A serial run with the compiled loop already cached, as it is once
    # this process has imported the kernel, loads neither the pool nor the
    # compiler tools.
    heavy = ("scipy", "xml.sax", "urllib.request",
             "concurrent.futures", "multiprocessing", "subprocess", "sysconfig")
    cfg = _write_config(tmp_path / "tiny.yaml")
    probe = (
        "import sys, qnaps.cli\n"
        f"assert qnaps.cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r},"
        " '--jobs', '1', '--format', 'all']) == 0\n"
        f"print(sorted(m for m in sys.modules for heavy in {heavy!r}"
        " if m == heavy or m.startswith(heavy + '.')))"
    )
    assert _child(probe) == "[]"
    assert (tmp_path / "o" / "tiny.csv").exists()


@pytest.mark.skipif(importlib.util.find_spec("_sha2") is None
                    and importlib.util.find_spec("_sha256") is None,
                    reason="this Python has no built-in SHA-256 module")
def test_run_loads_neither_numpy_random_nor_openssl(tmp_path):
    # the extension draws the Philox words and SHA-256 is CPython's own,
    # so a run holds neither numpy.random (2.5 MB) nor libcrypto (3.6 MB)
    heavy = ("_hashlib", "numpy.random")
    cfg = _write_config(tmp_path / "tiny.yaml")
    probe = (
        "import sys, qnaps.cli\n"
        f"assert qnaps.cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r},"
        " '--jobs', '1']) == 0\n"
        f"print(sorted(m for m in sys.modules for heavy in {heavy!r}"
        " if m == heavy or m.startswith(heavy + '.')))"
    )
    assert _child(probe) == "[]"


def test_serial_run_never_imports_numpy(tmp_path):
    # the extension makes every block of samples, so neither the import
    # nor a --jobs 1 run loads numpy (13 MB of a 32 MB run)
    cfg = _write_config(tmp_path / "tiny.yaml")
    probe = (
        "import sys, qnaps.cli\n"
        "imported = 'numpy' in sys.modules\n"
        f"assert qnaps.cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r},"
        " '--jobs', '1', '--format', 'all']) == 0\n"
        "print(imported, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    assert _child(probe) == "False []"


def test_no_product_module_imports_numpy():
    # numpy is a test dependency only: no module of the package imports
    # it, not even lazily, inside a function
    imports = []
    for path in sorted(Path(qnaps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            imports += [(path.name, n) for n in names if n.split(".")[0] == "numpy"]
    assert imports == []


def test_parallel_run_loads_no_process_machinery(tmp_path):
    # replications run on threads of the one process: a --jobs 2 run
    # starts no worker process and pickles nothing
    heavy = ("multiprocessing", "pickle", "_pickle", "concurrent.futures.process")
    cfg = _write_config(tmp_path / "tiny.yaml")
    probe = (
        "import sys, qnaps.cli\n"
        f"assert qnaps.cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r},"
        " '--jobs', '2']) == 0\n"
        f"print(sorted(m for m in sys.modules for heavy in {heavy!r}"
        " if m == heavy or m.startswith(heavy + '.')))"
    )
    assert _child(probe) == "[]"
    assert (tmp_path / "o" / "tiny.csv").exists()


def test_run_loads_neither_dataclasses_nor_inspect(tmp_path):
    # the record types share one __init__, __repr__ and __eq__ and compile
    # no code, so neither the import nor a run loads dataclasses or the
    # inspect module it imports; configs are read by qnaps.yamldoc, so
    # neither loads PyYAML either; the t quantile's Newton search starts at
    # 0, so neither loads statistics or the fractions module it imports
    cfg = _write_config(tmp_path / "tiny.yaml")
    probe = (
        "import sys, qnaps.cli\n"
        "modules = ('dataclasses', 'inspect', 'yaml', 'statistics', 'fractions')\n"
        "imported = sorted(m for m in modules if m in sys.modules)\n"
        f"assert qnaps.cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r},"
        " '--jobs', '1']) == 0\n"
        "print(imported, sorted(m for m in modules if m in sys.modules))"
    )
    assert _child(probe) == "[] []"


def test_sha256_is_hashlibs():
    for data in (b"", b"abc", b"qnaps|1|Queue|Jobs|service", bytes(range(256)) * 40):
        assert qnaps.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
        assert qnaps.sha256(data).digest() == hashlib.sha256(data).digest()


def test_import_and_main_leave_the_collector_on_and_unfrozen(tmp_path):
    # neither the import nor main() touches the collector
    cfg = _write_config(tmp_path / "tiny.yaml")
    probe = (
        "import gc\n"
        "before = (gc.isenabled(), gc.get_freeze_count())\n"
        "import qnaps.cli\n"
        "imported = (gc.isenabled(), gc.get_freeze_count())\n"
        f"assert qnaps.cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print(before == imported == (gc.isenabled(), gc.get_freeze_count()))"
    )
    assert _child(probe) == "True"
    assert (tmp_path / "o" / "tiny.csv").exists()


def test_main_is_the_one_program_entry(tmp_path):
    # `python -m qnaps.cli` and the installed script both run main()
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert '\nqnaps = "qnaps.cli:main"\n' in pyproject
    # a bad config exits 2 through the module's __main__ as through main()
    bad = _write_config(tmp_path / "bad.yaml", schema="v2")
    argv = ["--config", str(bad), "--out", str(tmp_path / "bad")]
    probe = (
        "import runpy, sys\n"
        f"sys.argv = ['qnaps', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('qnaps.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)"
    )
    assert _child(probe) == "2"
    assert main(argv) == 2
    assert not (tmp_path / "bad").exists()


def test_cli_jobs_below_one_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "tiny.yaml")
    assert main(["--config", str(cfg), "--jobs", "0"]) == 2
    assert "--jobs: must be >= 1, got 0" in capsys.readouterr().err


def test_cli_runs_one_worker_without_jobs_and_refuses_run_jobs(tmp_path, capsys, monkeypatch):
    taken = []
    monkeypatch.setattr("qnaps.cli.run_experiment",
                        lambda cfg, *, out_dir, jobs, echo: taken.append(jobs) or [])
    cfg = _write_config(tmp_path / "tiny.yaml")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert taken == [1]

    run = {"replications": 2, "seed": 424242, "horizon_msec": 2000.0, "warmup_msec": 200.0}
    bad = _write_config(tmp_path / "bad.yaml", run={**run, "jobs": 2})
    capsys.readouterr()
    assert main(["--config", str(bad), "--out", str(tmp_path / "o2")]) == 2
    assert "run: unknown key(s) 'jobs'" in capsys.readouterr().err
    assert taken == [1]
    assert not (tmp_path / "o2").exists()


def test_cli_format_all_and_sweep_plot(tmp_path):
    cfg_path = _write_config(
        tmp_path / "sweep.yaml",
        experiment="sweep",
        model={"builder": "baseline"},
        sweep={"parameter": "model.params.arrival_rate", "values": [0.02, 0.05]},
        outputs=["csv"],
        plot={
            "x_label": "arrival rate",
            "y_label": "utilization",
            "series": [{"station": "Controller", "class": "all", "metric": "utilization"}],
        },
    )
    out = tmp_path / "o"
    assert main(["--config", str(cfg_path), "--out", str(out), "--format", "all"]) == 0
    assert (out / "sweep.svg").exists() and (out / "sweep_table.txt").exists()
    table = (out / "sweep_table.txt").read_text()
    assert "model.params.arrival_rate = 0.02" in table
    csv_lines = (out / "sweep.csv").read_text().splitlines()[1:]
    assert {ln.split(",")[2] for ln in csv_lines} == {"0.02", "0.05"}


_PLOT = {"series": [{"station": "Controller", "class": "all", "metric": "utilization"}]}


def test_cli_plots_numeric_string_sweep_values_where_they_parse_to(tmp_path):
    # YAML reads 1e-2 (no dot) as a string; the float field parses it to
    # 0.01, and the plot puts the point there. The CSV, the table and the
    # manifest keep the values as written.
    written = _write_config(
        tmp_path / "strings.yaml", experiment="sweep", plot=_PLOT,
        sweep={"parameter": "model.params.arrival_rate", "values": ["1e-2", "2e-2"]},
    )
    assert yaml.safe_load(written.read_text())["sweep"]["values"] == ["1e-2", "2e-2"]
    numbers = _write_config(
        tmp_path / "numbers.yaml", experiment="sweep", plot=_PLOT,
        sweep={"parameter": "model.params.arrival_rate", "values": [0.01, 0.02]},
    )
    for path in (written, numbers):
        assert main(["--config", str(path), "--out", str(tmp_path / path.stem), "--format", "all"]) == 0
    out = tmp_path / "strings"
    assert (out / "sweep.svg").read_bytes() == (tmp_path / "numbers" / "sweep.svg").read_bytes()
    csv_lines = (out / "sweep.csv").read_text().splitlines()[1:]
    assert {ln.split(",")[2] for ln in csv_lines} == {"1e-2", "2e-2"}
    assert "[model.params.arrival_rate = 1e-2]" in (out / "sweep_table.txt").read_text()
    assert json.loads((out / "sweep_manifest.json").read_text())["sweep_values"] == ["1e-2", "2e-2"]


def test_cli_format_all_leaves_svg_out_when_sweep_values_are_not_numbers(tmp_path, capsys):
    path = _write_config(
        tmp_path / "names.yaml", experiment="names", plot=_PLOT,
        sweep={"parameter": "model.params.class_name", "values": ["A", "B"]},
    )
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out), "--format", "all"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["names.csv", "names_manifest.json", "names_table.txt"]
    assert main(["--config", str(path), "--out", str(tmp_path / "svg"), "--format", "svg"]) == 2
    assert "plot: sweep values must be numeric to plot, got 'A'" in capsys.readouterr().err


_SENSOR_NET = {"model": {"builder": "sensor-net"}}
_SWEEPS = {
    # a distribution swept whole: its text forms are JSON, keys sorted
    "mapping": ({"model": {"builder": "baseline"}}, "model.params.controller_service",
                [{"kind": "exponential", "mean_msec": 5}, {"kind": "erlang", "phases": 2, "mean_msec": 5}],
                ['{"kind": "exponential", "mean_msec": 5}', '{"kind": "erlang", "mean_msec": 5, "phases": 2}']),
    # a bool and null as JSON spells them, as the manifest does; an
    # unbounded buffer is a point like any other, and an empty
    # sweep_value cell would read as a run without a sweep
    "bool": (_SENSOR_NET, "model.params.include_polling", [True, False], ["true", "false"]),
    "null": ({**_SENSOR_NET, "antipattern": {"kind": "where-was-i"}}, "antipattern.buffer_capacity",
             [None, 8], ["null", "8"]),
}


@pytest.mark.parametrize("case", sorted(_SWEEPS))
def test_cli_writes_structured_and_bool_sweep_values(tmp_path, capsys, case):
    # the CSV cells, the progress lines and the table headings hold each
    # value's text form, and the manifest the value itself
    sections, parameter, values, texts = _SWEEPS[case]
    path = _write_config(tmp_path / "s.yaml", experiment="s", **sections,
                         sweep={"parameter": parameter, "values": values})
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    progress = [ln for ln in capsys.readouterr().out.splitlines() if ln.endswith("replications)")]
    assert progress == [f"s: {parameter} = {t} done (2 replications)" for t in texts]
    with open(out / "s.csv", newline="", encoding="utf-8") as f:
        assert {row["sweep_value"] for row in csv.DictReader(f)} == set(texts)
    headings = [ln for ln in (out / "s_table.txt").read_text().splitlines() if ln.startswith("# ")]
    assert headings == [f"# s  [{parameter} = {t}]" for t in texts]
    assert json.loads((out / "s_manifest.json").read_text())["sweep_values"] == values


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_cli_whose_stdout_reader_is_gone_writes_every_file_and_exits_0(tmp_path, unbuffered):
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first progress line meets a broken pipe
    baseline = Path(qnaps.__file__).parent / "configs" / "baseline.yaml"
    flags = ["--config", str(baseline), "--horizon", "20000", "--warmup", "1000"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "qnaps.cli", *flags, "--out", str(tmp_path / "piped")],
                              env=env, stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")
    assert main([*flags, "--out", str(tmp_path / "normal")]) == 0
    files = {}
    for side in ("piped", "normal"):
        files[side] = {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()}
        manifest = json.loads(files[side].pop("baseline_manifest.json"))
        manifest.pop("wall_clock_seconds")
        files[side]["baseline_manifest.json"] = manifest
    assert sorted(files["piped"]) == ["baseline.csv", "baseline_manifest.json", "baseline_table.txt"]
    assert files["piped"] == files["normal"]
