"""Time a qnaps experiment's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG SEED

Imports qnaps.cli, loads the config with the seed as its base seed, and
builds and validates the model of the first sweep point (the only model
when there is no sweep), stopping before the first replication. Prints
one JSON object with the seconds each step took and their total.
qnaps must be importable (PYTHONPATH=src).
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(config_path: str, seed: int) -> dict:
    import qnaps.cli  # noqa: F401  (the import is what is timed)
    from qnaps.config import apply_sweep_value, build_model_from_config, load_config
    from qnaps.model import validate_model

    t_import = time.perf_counter()
    cfg = load_config(config_path).with_overrides(seed=seed)
    t_load = time.perf_counter()
    if cfg.sweep_parameter is not None:
        model_section, antipattern_section = apply_sweep_value(cfg, cfg.sweep_values[0])
    else:
        model_section, antipattern_section = cfg.model, cfg.antipattern
    net = build_model_from_config(model_section, antipattern_section)
    t_build = time.perf_counter()
    diagnostics = validate_model(net)
    t_validate = time.perf_counter()
    if diagnostics:
        raise SystemExit(f"model does not validate: {diagnostics}")
    return {
        "import_s": t_import - t0,
        "load_s": t_load - t_import,
        "build_s": t_build - t_load,
        "validate_s": t_validate - t_build,
        "total_s": t_validate - t0,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
