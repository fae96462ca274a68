"""Experiment runner and command line behavior."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from qnaps.cli import main
from qnaps.config import apply_sweep_value, build_model_from_config, load_config
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


def test_cli_unsound_validation_exits_2_before_any_replication(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr("qnaps.runner.run_replication", never)
    scenario = {"class": "Ghost", "arrival_rate_per_msec": 0.05, "graph": {"basic": {"Controller": 10.0}}}
    cfg = _write_config(tmp_path / "ghost.yaml",
                        validation={"resource_map": {"Ghost": "Controller"}, "scenarios": [scenario]})
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 2
    assert "validation: class present only on the analytic side: Ghost" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_internal_error_exits_4_without_outputs(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KernelError("flow imbalance for class Analysis: created 3, sunk 1, dropped 0, in network 1")

    monkeypatch.setattr("qnaps.runner.run_replication", broken)
    cfg = _write_config(tmp_path / "tiny.yaml")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 4
    assert "flow imbalance for class Analysis" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the CI quantile is computed in the standard library and SVG text is
    # escaped without xml.sax; a whole run, not only the import, must load
    # no scipy, xml.sax or urllib.request module, so a lazy import fails too
    cfg = _write_config(tmp_path / "tiny.yaml")
    probe = (
        "import sys, qnaps.cli\n"
        f"assert qnaps.cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r},"
        " '--jobs', '1', '--format', 'all']) == 0\n"
        "print(sorted(m for m in sys.modules for heavy in ('scipy', 'xml.sax', 'urllib.request')"
        " if m == heavy or m.startswith(heavy + '.')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "o" / "tiny.csv").exists()


def test_cli_jobs_below_one_is_a_config_error(tmp_path):
    cfg = _write_config(tmp_path / "tiny.yaml")
    assert main(["--config", str(cfg), "--jobs", "0"]) == 2


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
