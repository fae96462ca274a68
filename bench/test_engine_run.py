"""Micro-benchmark of the engine, outside tier-1.

Times one engine build plus its event loop on the model of each
benchmark workload at a short horizon: a wwi sweep point (Shifted
service, finite buffer, 2-actor routing), an awty sweep point (detection
flush) and the default sensor net of table6_validation. Build and loop
are timed together because the loop draws the external arrivals as it
takes them, work that an engine which pre-drew them did in its build;
only the sum compares across the two designs. Each model runs on both
loops, ``_loop.run`` (compiled) and ``run`` of ``tests/_reference.py``
on the extension's fill, so one run gives the speed-up of the compiled
loop on one machine, and each reports the median over the completions in
its window (the tally's per-cell ``scnt``, summed) as nanoseconds per
completion, the loop's cost of an event, in its extra_info. A second
case times the samplers alone: fill(spec, first, _BLOCK) of the spec of
one sampler per distribution kind, of a mixture whose base is a mixture,
of a mixture that adds its Erlang extra to one value in twenty,
and of the arrival-gap and routing samplers the engine builds (routing
is the Philox words every sampler is made from, as uniforms), block
after block, and the log that the exponential and Erlang values take
alone, on a block of arguments 1 - u (log), over about 100k values a
round whatever the block size, reported as values per second and
nanoseconds per value in each benchmark's extra_info. Each is one fill
of the extension, and is the cost per block that the compiled loop
pays, in C, on top of reading the values.
A third case times building
the records a run makes most of, MetricSample (one per metric per
replication) and ConfidenceInterval (one per estimate), through the
__init__ every record class shares, reported as nanoseconds per record.
Run from the checkout root with

    PYTHONPATH=src python -m pytest bench --benchmark-only

``testpaths = tests`` keeps the tier-1 suite from collecting it.
"""

import sys
from array import array
from functools import partial
from pathlib import Path

import pytest

from qnaps.config import build_model_from_config, parse_antipattern, parse_model
from qnaps.kernel import _BLOCK, _U01, _arrival_spec, _build, _finalize, _loop, _spec
from qnaps.model import Deterministic, Erlang, Exponential, Mixture, Shifted, Uniform
from qnaps.stats import ConfidenceInterval, MetricSample

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import _reference  # noqa: E402  (the Python loop, a test module)

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
    model_section, antipattern_section, seed = MODELS[name]
    antipattern = None if antipattern_section is None else parse_antipattern(antipattern_section)
    net = build_model_from_config(parse_model(model_section), antipattern)

    def build_and_run():
        table = _build(net, seed, HORIZON, WARMUP)
        run = _loop.run if loop == "run" else partial(_reference.run, fill=_loop.fill)
        counts = run(*table)
        return _finalize(net, seed, table, counts), counts

    result, (cells, _) = benchmark.pedantic(build_and_run, rounds=10, warmup_rounds=1)
    assert result.samples
    if benchmark.stats is not None:  # None under --benchmark-disable
        completions = sum(row[3] for row in cells)  # each cell's scnt
        benchmark.extra_info["ns_per_completion"] = benchmark.stats.stats.median / completions * 1e9


SAMPLERS = {
    "exponential": partial(_spec, Exponential(0.5)),
    "deterministic": partial(_spec, Deterministic(2.0)),
    "erlang": partial(_spec, Erlang(3, 1.5)),
    "uniform": partial(_spec, Uniform(1.0, 3.0)),
    "shifted": partial(_spec, Shifted(0.5, Exponential(0.5))),
    "mixture": partial(_spec, Mixture(0.25, Exponential(0.5), Exponential(0.1))),
    "nested-mixture": partial(_spec, Mixture(0.4, Mixture(0.5, Uniform(1.0, 2.0), Exponential(2.0)),
                                             Erlang(2, 1.0))),
    # a rare extra is made for every value and taken for one in twenty
    "rare-mixture": partial(_spec, Mixture(0.05, Exponential(2.0), Erlang(3, 1.0))),
    "arrival-gaps": partial(_arrival_spec, Exponential(0.05)),
    "routing": partial(_spec, _U01),
    "log": None,  # the log of a block of 1 - u, the same block each time
}
BLOCKS = 102_400 // _BLOCK  # fills per round


@pytest.mark.parametrize("kind", list(SAMPLERS))
def test_sampler_fill(benchmark, kind):
    name = "1|st|cl|service"
    if kind == "log":
        args = array("d", [1.0 - u for u in _loop.fill(_spec(_U01, name), 0, _BLOCK)])

        def fill(first):
            return _loop.log(args)
    else:
        spec = SAMPLERS[kind](name)

        def fill(first):
            return _loop.fill(spec, first, _BLOCK)

    def fill_blocks():
        return sum(len(fill(first)) for first in range(0, BLOCKS * _BLOCK, _BLOCK))

    values = benchmark.pedantic(fill_blocks, rounds=10, warmup_rounds=1)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["values_per_s"] = values / benchmark.stats.stats.median
        benchmark.extra_info["ns_per_value"] = benchmark.stats.stats.median / values * 1e9


RECORDS = 10_000  # of each type per round


def test_records(benchmark):
    def build():
        for _ in range(RECORDS):
            MetricSample("Controller", "Analysis", "utilization", 0.5)
            ConfidenceInterval(2.0, 0.1, 0.99, 15)
        return 2 * RECORDS

    records = benchmark.pedantic(build, rounds=10, warmup_rounds=1)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_record"] = benchmark.stats.stats.median / records * 1e9
