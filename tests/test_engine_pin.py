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
against their closed forms (test_kernel.py). Each case is pinned on
both loops: _Engine.run, compiled, and _Engine._run_python, the Python
loop it was ported from.
"""

import json
from pathlib import Path

import pytest

from qnaps.config import build_model_from_config
from qnaps.kernel import _Engine

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


def pinned_samples(case: str, loop: str = "run") -> list[list[str]]:
    model_section, antipattern_section, seed = CASES[case]
    net = build_model_from_config(model_section, antipattern_section)
    result = getattr(_Engine(net, seed, HORIZON, WARMUP), loop)()
    return [[s.station, s.job_class, s.metric, s.value.hex()] for s in result.samples]


@pytest.mark.parametrize("case", sorted(CASES))
def test_replication_samples_are_bit_identical_to_the_pin(case):
    frozen = json.loads(PIN.read_text(encoding="utf-8"))[case]
    assert pinned_samples(case) == frozen


@pytest.mark.parametrize("case", sorted(CASES))
def test_python_loop_samples_are_bit_identical_to_the_pin(case):
    frozen = json.loads(PIN.read_text(encoding="utf-8"))[case]
    assert pinned_samples(case, "_run_python") == frozen
