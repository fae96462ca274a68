"""Micro-benchmark of the event loop, outside tier-1.

Times ``_Engine.run`` alone (engine setup excluded) on the model of each
benchmark workload at a short horizon: a wwi sweep point (Shifted service,
finite buffer, 2-actor routing), an awty sweep point (detection flush)
and the default sensor net of table6_validation. Run from the checkout
root with

    PYTHONPATH=src python -m pytest bench --benchmark-only

``testpaths = tests`` keeps the tier-1 suite from collecting it.
"""

import pytest

from qnaps.config import build_model_from_config
from qnaps.kernel import _Engine

HORIZON, WARMUP = 300000.0, 30000.0

MODELS = {
    "wwi": (
        {"builder": "sensor-net", "params": {"sensor_count": 2, "actor_count": 2}},
        {"kind": "where-was-i", "overhead": 0.5, "buffer_capacity": 8},
        73003,
    ),
    "awty": (
        {"builder": "sensor-net", "params": {"include_polling": False}},
        {"kind": "are-we-there-yet", "f_poll": 0.0027825594022071257,
         "polling_demand": 4.0, "poller_count": 5},
        31001,
    ),
    "table6": ({"builder": "sensor-net"}, None, 95005),
}


@pytest.mark.parametrize("name", list(MODELS))
def test_engine_run(benchmark, name):
    model_section, antipattern_section, seed = MODELS[name]
    net = build_model_from_config(model_section, antipattern_section)

    def fresh_engine():
        return (_Engine(net, seed, HORIZON, WARMUP),), {}

    result = benchmark.pedantic(_Engine.run, setup=fresh_engine, rounds=10, warmup_rounds=1)
    assert result.samples
