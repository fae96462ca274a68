"""The benchmark's probes run on this checkout.

perfbench/setup_probe.py and perfbench/layers.py call qnaps.config by
name: load_config, apply_sweep_value, build_model_from_config and the
config's model, antipattern and sweep_values; perfbench/run.py reads the
files a run writes, its manifest's wall_clock_seconds among them. They
are loaded here from their files as they are, so a change to that API or
to those files which would break the benchmark fails this suite instead.
"""

from pathlib import Path

import pytest

import qnaps
from qnaps.config import load_config
from qnaps.runner import run_experiment

from _helpers import load_script

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIGS = sorted((Path(qnaps.__file__).parent / "configs").glob("*.yaml"))
BASELINE = Path(qnaps.__file__).parent / "configs" / "baseline.yaml"


def _load(name: str):
    return load_script(PERFBENCH / f"{name}.py")


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_setup_probe_runs_on_every_shipped_config(path):
    times = _load("setup_probe").main(str(path), 1)
    assert set(times) == {"import_s", "load_s", "build_s", "validate_s", "total_s"}


def test_traced_experiment_replays_the_baseline_run(tmp_path):
    layers = _load("layers")
    tracer = layers.Tracer()
    traced = layers.traced_experiment(tracer, BASELINE, 1)
    cfg = load_config(BASELINE).with_overrides(seed=1)
    assert traced["replications"] == cfg.replications
    assert traced["completions"] > 0
    assert layers.layer_metrics(tracer, traced["completions"], traced["dropped"])["kernel.completions"] > 0
    run_experiment(cfg, out_dir=tmp_path, jobs=1)
    for name, text in traced["artifacts"].items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text, name


def test_benchmark_reads_the_files_of_a_baseline_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports checks.py beside it
    run = _load("run")
    run_experiment(load_config(BASELINE), out_dir=tmp_path, jobs=1)
    artifacts = run._artifacts(tmp_path, "baseline")
    assert sorted(artifacts) == sorted(p.name for p in tmp_path.iterdir())
    assert b"wall_clock_seconds" not in artifacts["baseline_manifest.json"]
