"""Bit-level pin of the event loop on four short replications.

tests/data/engine_pin.json holds the float.hex of every ReplicationResult
sample of each case below, frozen from the engine before its hot loop was
trimmed. Speed work on the kernel or the samplers must not change the
order of any float operation or the word order of any random stream; if
it does, a value here moves. The cases cover a Shifted service with
finite-capacity drops and 2-actor routing (wwi), a detection flush
(awty), the default sensor net, and a Mixture service (ieok with
p_exc > 0). ieok_exc was re-frozen when each mixture part got its own
stream, after its mixture's sample mean and variance were checked
against their closed forms (test_kernel.py). ieok_exc, sensor_net and
wwi were re-frozen when the samplers took fdlibm's log in place of
numpy's log1p, after that log was checked against mpmath
(test_log.py) and every compiled fill against its Python port: 58
values moved, by at most 3.5e-13 relative. awty, ieok_exc, sensor_net
and wwi were re-frozen when an exponential arrival gap became -log(1 - u)
times 1 / rate, as every other exponential is, in place of divided by
the rate, so each distribution has one sampler: 101 of 360 values moved,
by at most 6.6e-13 relative, each gap that moved by 1 ulp. Each case is pinned on
both loops: _loop.run, compiled, and run of tests/_reference.py, the
Python loop it was ported from, on the extension's fill.
"""

import json
from pathlib import Path

import pytest

import _reference
from qnaps import kernel
from qnaps.config import build_model_from_config, parse_antipattern, parse_model
from qnaps.kernel import _build, _finalize, _Table

PIN = Path(__file__).parent / "data" / "engine_pin.json"

HORIZON, WARMUP = 40000.0, 4000.0

CASES = {
    "wwi": (
        {"builder": "sensor-net", "params": {"sensor_count": 2, "actor_count": 2}},
        {"kind": "where-was-i", "overhead": 4.0, "buffer_capacity": 8},
        73003,
    ),
    "awty": (
        {"builder": "sensor-net", "params": {"include_polling": False}},
        {"kind": "are-we-there-yet", "f_poll": 0.0027825594022071257,
         "polling_demand": 4.0, "poller_count": 5},
        31001,
    ),
    "sensor_net": ({"builder": "sensor-net"}, None, 95005),
    "ieok_exc": (
        {"builder": "sensor-net", "params": {"include_status": False}},
        {"kind": "is-everything-ok", "n_status": 5, "check_period": 200.0,
         "check_demand": 0.5, "device_demand": 0.1, "p_exc": 0.25,
         "exception_demand": 3.0},
        52002,
    ),
}


def case_model(case: str):
    """The network of CASES[case], built from its YAML sections."""
    model_section, antipattern_section, _ = CASES[case]
    antipattern = None if antipattern_section is None else parse_antipattern(antipattern_section)
    return build_model_from_config(parse_model(model_section), antipattern)


def tally(table: _Table, loop: str = "run"):
    """table's tally on loop: "run", the compiled loop, or "_run_python",
    the reference loop on the extension's fill."""
    if loop == "run":
        return kernel._loop.run(*table)
    return _reference.run(*table, fill=kernel._loop.fill)


def pinned_samples(case: str, loop: str = "run") -> list[list[str]]:
    model, seed = case_model(case), CASES[case][2]
    table = _build(model, seed, HORIZON, WARMUP)
    result = _finalize(model, seed, table, tally(table, loop))
    return [[s.station, s.job_class, s.metric, s.value.hex()] for s in result.samples]


@pytest.mark.parametrize("case", sorted(CASES))
def test_replication_samples_are_bit_identical_to_the_pin(case):
    frozen = json.loads(PIN.read_text(encoding="utf-8"))[case]
    assert pinned_samples(case) == frozen


@pytest.mark.parametrize("case", sorted(CASES))
def test_python_loop_samples_are_bit_identical_to_the_pin(case):
    frozen = json.loads(PIN.read_text(encoding="utf-8"))[case]
    assert pinned_samples(case, "_run_python") == frozen
