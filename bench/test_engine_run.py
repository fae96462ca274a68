"""Micro-benchmark of the engine, outside tier-1.

Times one engine build plus its event loop on the model of each
benchmark workload at a short horizon: a wwi sweep point (Shifted
service, finite buffer, 2-actor routing), an awty sweep point (detection
flush) and the default sensor net of table6_validation. Build and loop
are timed together because the loop draws the external arrivals as it
takes them, work that an engine which pre-drew them did in its build;
only the sum compares across the two designs. Each model runs on both
loops, ``_Engine.run`` (compiled) and ``_Engine._run_python``, so one
run gives the speed-up of the compiled loop on one machine. A second
case times the samplers alone: fill() of one block sampler per
distribution kind, of a mixture whose base is a mixture, and of the
arrival-time and routing samplers the engine builds, over about 100k
values a round whatever the block size, reported as values per second
and nanoseconds per value in each benchmark's extra_info. It is the
per-block numpy cost that the compiled loop pays on top of reading the
values. Run from the checkout root with

    PYTHONPATH=src python -m pytest bench --benchmark-only

``testpaths = tests`` keeps the tier-1 suite from collecting it.
"""

import pytest

from qnaps.config import build_model_from_config
from qnaps.kernel import _BLOCK, RngStream, _arrival_times, _Engine, _loop
from qnaps.model import Deterministic, Erlang, Exponential, Mixture, Shifted, Uniform

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


@pytest.mark.parametrize("loop", ["run", "_run_python"])
@pytest.mark.parametrize("name", list(MODELS))
def test_engine_run(benchmark, name, loop):
    if loop == "run" and _loop is None:
        pytest.skip("compiled loop not available")
    model_section, antipattern_section, seed = MODELS[name]
    net = build_model_from_config(model_section, antipattern_section)

    def build_and_run():
        return getattr(_Engine(net, seed, HORIZON, WARMUP), loop)()

    result = benchmark.pedantic(build_and_run, rounds=10, warmup_rounds=1)
    assert result.samples


SAMPLERS = {
    "exponential": Exponential(0.5).sampler,
    "deterministic": Deterministic(2.0).sampler,
    "erlang": Erlang(3, 1.5).sampler,
    "uniform": Uniform(1.0, 3.0).sampler,
    "shifted": Shifted(0.5, Exponential(0.5)).sampler,
    "mixture": Mixture(0.25, Exponential(0.5), Exponential(0.1)).sampler,
    "nested-mixture": Mixture(0.4, Mixture(0.5, Uniform(1.0, 2.0), Exponential(2.0)),
                              Erlang(2, 1.0)).sampler,
    "arrival-times": lambda stream: _arrival_times(Exponential(0.05), stream),
    "routing": lambda stream: stream.batched_sampler(1, lambda u: u),
}
BLOCKS = 102_400 // _BLOCK  # fills per round


@pytest.mark.parametrize("kind", list(SAMPLERS))
def test_sampler_fill(benchmark, kind):
    def fill_blocks():
        sampler = SAMPLERS[kind](RngStream(1, "st", "cl", "service"))
        return sum(len(sampler.fill()) for _ in range(BLOCKS))

    values = benchmark.pedantic(fill_blocks, rounds=10, warmup_rounds=1)
    benchmark.extra_info["values_per_s"] = values / benchmark.stats.stats.median
    benchmark.extra_info["ns_per_value"] = benchmark.stats.stats.median / values * 1e9
