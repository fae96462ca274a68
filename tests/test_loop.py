"""The compiled event loop against the Python loop it was ported from.

_Engine._run_python is the executable specification of _Engine.run. The
differential test runs both on the same engines and requires every
sample to match bit for bit, every random stream to have handed out the
same number of draws, and every class to have created, sunk and dropped
the same jobs; one of its models puts every distribution kind on both
loops as service, arrival and probabilistic routing target. Two pins in
tests/data/engine_pin.json hold both loops' lazy arrival merge on tied
and non-exponential arrivals. The ties pin was frozen from an engine
that pre-drew every arrival and merged them with a lexsort. The
arrival_mix pin, whose class M arrives by a mixture, was re-frozen when
each mixture part got its own stream, after that mixture's sample mean
and variance were checked against their closed forms (test_kernel.py).
The remaining tests
cover the extension's build and fallback, block samplers handed between
Python and C, and exceptions and signals crossing the C boundary.
"""

import json
import math
import shutil
import signal
import time
from dataclasses import replace
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest

from qnaps import kernel
from qnaps.config import build_model_from_config
from qnaps.kernel import _Engine
from qnaps.model import (
    DELAY,
    FCFS,
    SINK,
    SOURCE,
    Deterministic,
    Erlang,
    Exponential,
    JobClass,
    Mixture,
    NetworkModel,
    RoutingTable,
    Shifted,
    Station,
    Uniform,
    validate_model,
)

from _helpers import closed_cycle_model, mm1_model, stopping_arrivals_model
from test_engine_pin import CASES, HORIZON, WARMUP, PIN, pinned_samples

compiled = pytest.mark.skipif(kernel._loop is None, reason="compiled loop not available")


def parking_model() -> NetworkModel:
    """Closed classes with an infinite delay: Idle parks at t = 0, and a
    Loop job parks for good whenever Work routes it to Park."""
    routing = RoutingTable()
    routing.add("Loop", "Think", "Work")
    routing.add("Loop", "Work", [("Think", 0.99), ("Park", 0.01)])
    routing.add("Loop", "Park", "Think")
    routing.add("Idle", "Rest", "Work")
    routing.add("Idle", "Work", "Rest")
    return NetworkModel(
        name="parking",
        stations=[
            Station("Think", kind=DELAY, service={"Loop": Exponential(0.2)}),
            Station("Work", kind=FCFS, service={"Loop": Exponential(1.0), "Idle": Exponential(1.0)}),
            Station("Park", kind=DELAY, service={"Loop": Deterministic(math.inf)}),
            Station("Rest", kind=DELAY, service={"Idle": Deterministic(math.inf)}),
        ],
        classes=[
            JobClass("Loop", "closed", population=4, reference="Think"),
            JobClass("Idle", "closed", population=2, reference="Rest"),
        ],
        routing=routing,
    )


def tie_model() -> NetworkModel:
    """Two open classes arriving together every 3 ms and waiting 1 ms at
    a delay: their timers fire at equal times, so the calendar's
    tie-break on scheduling order decides which one W serves first."""
    routing = RoutingTable()
    for cname in ("X", "Y"):
        routing.add(cname, "Source", "D")
        routing.add(cname, "D", "W")
        routing.add(cname, "W", "Sink")
    return NetworkModel(
        name="ties",
        stations=[
            Station("Source", kind=SOURCE),
            Station("D", kind=DELAY, service={"X": Deterministic(1.0), "Y": Deterministic(1.0)}),
            Station("W", kind=FCFS, service={"X": Exponential(0.5), "Y": Exponential(1.0)}),
            Station("Sink", kind=SINK),
        ],
        classes=[JobClass(c, "open", arrival=Deterministic(3.0)) for c in ("X", "Y")],
        routing=routing,
    )


def arrival_mix_model() -> NetworkModel:
    """Three open classes feeding one fcfs station of capacity 6, with
    Erlang arrivals, arrivals that mix a Uniform and a Shifted exponential,
    and a rate-0 exponential process that never fires."""
    routing = RoutingTable()
    for cname in ("E", "M", "Z"):
        routing.add(cname, "Source", "W")
        routing.add(cname, "W", "Sink")
    return NetworkModel(
        name="arrival-mix",
        stations=[
            Station("Source", kind=SOURCE),
            Station("W", kind=FCFS, capacity=6,
                    service={c: Exponential(0.6) for c in ("E", "M", "Z")}),
            Station("Sink", kind=SINK),
        ],
        classes=[
            JobClass("E", "open", arrival=Erlang(3, 0.9)),
            JobClass("M", "open",
                     arrival=Mixture(0.3, Uniform(1.0, 5.0), Shifted(0.5, Exponential(0.5)))),
            JobClass("Z", "open", arrival=Exponential(0.0)),
        ],
        routing=routing,
    )


def kinds(scale: float) -> dict:
    """One distribution of each kind with a finite mean of about scale."""
    s = scale
    return {
        "exponential": Exponential(1.0 / s),
        "deterministic": Deterministic(s),
        "erlang": Erlang(3, 3.0 / s),
        "uniform": Uniform(0.5 * s, 1.5 * s),
        "mixture": Mixture(0.25, Exponential(1.25 / s), Erlang(2, 2.0 / s)),
        "shifted-exponential": Shifted(0.25 * s, Exponential(1.0 / (0.75 * s))),
        "shifted-deterministic": Shifted(0.5 * s, Deterministic(0.5 * s)),
        "shifted-erlang": Shifted(0.5 * s, Erlang(2, 4.0 / s)),
        "shifted-uniform": Shifted(0.5 * s, Uniform(0.0, s)),
        "shifted-mixture": Shifted(0.2 * s, Mixture(0.5, Uniform(0.0, s), Deterministic(0.6 * s))),
    }


def every_kind_model() -> NetworkModel:
    """One open class per distribution kind, arriving with that kind and
    split at the source over an fcfs station (capacity 2) and a delay
    station that serve with it, and a park whose time is infinite. The
    mixture class's arrivals and delay have an infinite extra, and one
    more class arrives at rate 0."""
    service, arrival = kinds(10.0), kinds(12.0)
    arrival["mixture"] = Mixture(0.002, arrival["mixture"], Exponential(0.0))
    routing = RoutingTable()
    stations = [Station("Source", kind=SOURCE), Station("Sink", kind=SINK)]
    classes = []
    for kind in service:
        fcfs, delay = f"F-{kind}", f"D-{kind}"
        delay_service = service[kind]
        if kind == "mixture":
            delay_service = Mixture(0.05, delay_service, Deterministic(math.inf))
        stations += [
            Station(fcfs, kind=FCFS, capacity=2, service={kind: service[kind]}),
            Station(delay, kind=DELAY, service={kind: delay_service}),
            Station(f"P-{kind}", kind=DELAY, service={kind: Deterministic(math.inf)}),
        ]
        classes.append(JobClass(kind, "open", arrival=arrival[kind]))
        routing.add(kind, "Source", [(fcfs, 0.5), (delay, 0.49), (f"P-{kind}", 0.01)])
        for to in (fcfs, delay, f"P-{kind}"):
            routing.add(kind, to, "Sink")
    classes.append(JobClass("never", "open", arrival=Exponential(0.0)))
    routing.add("never", "Source", "F-exponential")
    routing.add("never", "F-exponential", "Sink")
    stations[2] = replace(stations[2], service={**stations[2].service,
                                                "never": Exponential(1.0)})
    return NetworkModel(name="every-kind", stations=stations, classes=classes, routing=routing)


MODELS = {
    **{case: build_model_from_config(m, a) for case, (m, a, _) in CASES.items()},
    "mm1_capacity3": mm1_model(capacity=3),
    "parking": parking_model(),
    "closed_cycle": closed_cycle_model(population=3),
    "ties": tie_model(),
    "arrival_mix": arrival_mix_model(),
    "stopping_arrivals": stopping_arrivals_model(),
    "every_kind": every_kind_model(),
}

# seeds of the arrival-merge pins in tests/data/engine_pin.json
ARRIVAL_PINS = {"ties": 61001, "arrival_mix": 62002}


def outcome(model, seed, loop):
    engine = _Engine(model, seed, HORIZON / 2, WARMUP)
    result = getattr(engine, loop)()
    return (
        [(s.station, s.job_class, s.metric, s.value.hex()) for s in result.samples],
        {key: s.draws for key, s in engine.space._streams.items()},
        [(c.name, c.created, c.sunk, c.dropped) for c in engine.classes],
    )


def pinned_run(name: str, loop: str) -> dict:
    engine = _Engine(MODELS[name], ARRIVAL_PINS[name], HORIZON, WARMUP)
    result = getattr(engine, loop)()
    return {
        "flow": [[c.name, c.created, c.sunk, c.dropped] for c in engine.classes],
        "samples": [[s.station, s.job_class, s.metric, s.value.hex()] for s in result.samples],
    }


@pytest.mark.parametrize("loop", ["run", "_run_python"])
@pytest.mark.parametrize("name", sorted(ARRIVAL_PINS))
def test_arrival_merge_is_bit_identical_to_the_pin(name, loop):
    frozen = json.loads(PIN.read_text(encoding="utf-8"))[name]
    assert pinned_run(name, loop) == frozen


@compiled
@pytest.mark.parametrize("name", sorted(MODELS))
def test_compiled_loop_matches_the_python_loop(name):
    model = MODELS[name]
    assert validate_model(model) == []
    for seed in range(1000, 1020):
        assert outcome(model, seed, "run") == outcome(model, seed, "_run_python"), seed


def test_parking_model_parks_jobs_during_the_run():
    engine = _Engine(parking_model(), 7, HORIZON / 2, WARMUP)
    engine._run_python()
    parked = engine.stations[2].cells[0].parked
    assert 0 < len(parked) <= 4


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_gcc_on_path_means_the_compiled_loop_is_loaded():
    # tier-1 must not quietly test only the fallback
    assert kernel._loop is not None


def test_build_failure_warns_once_and_falls_back(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    missing = tmp_path / "no-such-cc"
    assert kernel._build_loop(str(missing), cache) is None
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "compiled event loop unavailable" in err[0]
    assert "FileNotFoundError" in err[0] and str(missing) in err[0]
    assert list(cache.iterdir()) == []  # no half-written binary left behind

    monkeypatch.setattr(kernel, "_loop", None)
    frozen = json.loads(PIN.read_text(encoding="utf-8"))
    for case in sorted(CASES):
        assert pinned_samples(case) == frozen[case]


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_build_from_scratch_loads_and_replaces_older_binaries(tmp_path, capsys, monkeypatch):
    stale = tmp_path / f"_loop_0123456789abcdef{EXTENSION_SUFFIXES[0]}"
    stale.write_bytes(b"built from another source")
    module = kernel._build_loop("gcc", tmp_path)
    assert module is not None and capsys.readouterr().err == ""
    built = kernel._loop_path(kernel._LOOP_SOURCE.read_bytes(), tmp_path)
    assert sorted(tmp_path.iterdir()) == [built]
    monkeypatch.setattr(kernel, "_loop", module)
    assert outcome(MODELS["mm1_capacity3"], 5, "run") == outcome(MODELS["mm1_capacity3"], 5, "_run_python")


def test_cache_name_follows_the_source_hash(tmp_path):
    source = kernel._LOOP_SOURCE.read_bytes()
    name = kernel._loop_path(source, tmp_path).name
    assert kernel._loop_path(source, tmp_path).name == name
    assert kernel._loop_path(source + b"\n", tmp_path).name != name
    if kernel._loop is not None:
        assert kernel._loop.__file__.endswith(name)


@compiled
def test_blocks_hand_off_between_python_and_the_compiled_loop():
    # _build's closed-class init and a direct next() take values of the
    # Think block in Python before the run; the run continues that block
    # where they stopped, and a next() after it continues where the run
    # stopped: both loops hand out the same values and count the same draws
    def handed_off(loop):
        engine = _Engine(parking_model(), 7, HORIZON / 2, WARMUP)
        think = engine.stations[0].samplers[0]
        stream = engine.space.stream("Think", "Loop", "service")
        assert (think.i, stream.draws) == (4, 4)  # one think time per Loop job
        before = next(think)
        result = getattr(engine, loop)()
        draws = stream.draws
        return ([s.value.hex() for s in result.samples], before, draws,
                next(think), stream.draws - draws)

    samples, before, draws, after, after_draws = handed_off("run")
    assert (samples, before, draws, after, after_draws) == handed_off("_run_python")
    assert draws > 256 and after_draws == 1  # the run crossed blocks


def one_block_then(k, after):
    """fill() of a sampler whose first block is k values 1.0, and whose
    every later fill() returns after()."""
    first = [np.full(k, 1.0)]
    return lambda: first.pop() if first else after()


def broken_after(k):
    def fail():
        raise ValueError(f"fill() broke after {k} values")
    return fail


def break_sampler(engine, where, sampler):
    """Put sampler in place of the service, routing or arrival sampler
    of the wwi class that is routed over two actors."""
    station = next(st for st in engine.stations if st.kc == 0 and any(
        type(r) is tuple for r in st.routes))
    ci = next(i for i, r in enumerate(station.routes) if type(r) is tuple)
    if where == "service":
        station.samplers[ci] = sampler
    elif where == "routing":
        cums, sts, _ = station.routes[ci]
        station.routes[ci] = (cums, sts, sampler)
    else:
        engine.classes[ci].arrivals = sampler


@pytest.mark.parametrize("loop", ["run", "_run_python"])
@pytest.mark.parametrize("where", ["service", "routing", "arrival"])
def test_sampler_exception_comes_out_of_either_loop(loop, where):
    if loop == "run" and kernel._loop is None:
        pytest.skip("compiled loop not available")
    engine = _Engine(MODELS["wwi"], 73003, HORIZON, WARMUP)
    break_sampler(engine, where, kernel._Block(0, one_block_then(50, broken_after(50))))
    with pytest.raises(ValueError, match=r"fill\(\) broke after 50 values"):
        getattr(engine, loop)()


@pytest.mark.parametrize("loop", ["run", "_run_python"])
def test_sampler_that_runs_out_stops_either_loop(loop):
    # an empty block from fill() raises StopIteration in both loops
    engine = _Engine(MODELS["wwi"], 73003, HORIZON, WARMUP)
    sampler = kernel._Block(0, one_block_then(50, lambda: np.empty(0)))
    break_sampler(engine, "service", sampler)
    with pytest.raises(StopIteration):
        getattr(engine, loop)()
    assert (len(sampler.vals), sampler.i) == (0, 0)  # the empty block was kept


@compiled
def test_compiled_loop_rejects_a_sampler_that_is_not_a_block():
    engine = _Engine(MODELS["wwi"], 73003, HORIZON, WARMUP)
    break_sampler(engine, "service", iter([1.0] * 50))
    with pytest.raises(TypeError, match="is not a block sampler"):
        engine.run()


@compiled
def test_compiled_loop_rejects_a_block_that_is_not_float64():
    engine = _Engine(MODELS["wwi"], 73003, HORIZON, WARMUP)
    break_sampler(engine, "service", kernel._Block(0, lambda: np.ones(256, dtype=np.int64)))
    with pytest.raises(TypeError, match="is not a 1-d float64 array"):
        engine.run()


@compiled
def test_compiled_loop_checks_for_signals():
    # constant blocks only, whose fill() is C code, so no Python bytecode
    # runs inside the loop and only the loop's own check can deliver the
    # signal; uninterrupted this run takes about half a minute
    routing = RoutingTable()
    routing.add("Loop", "A", "B")
    routing.add("Loop", "B", "A")
    model = NetworkModel(
        name="ping-pong",
        stations=[
            Station("A", kind=DELAY, service={"Loop": Deterministic(1.0)}),
            Station("B", kind=DELAY, service={"Loop": Deterministic(1.0)}),
        ],
        classes=[JobClass("Loop", "closed", population=1, reference="A")],
        routing=routing,
    )
    engine = _Engine(model, 1, 1e9, 0.0)

    class Alarm(Exception):
        pass

    def ring(signum, frame):
        raise Alarm

    previous = signal.signal(signal.SIGALRM, ring)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        start = time.perf_counter()
        with pytest.raises(Alarm):
            engine.run()
        assert time.perf_counter() - start < 10.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
