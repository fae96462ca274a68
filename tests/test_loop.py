"""The compiled event loop against the Python loop it was ported from.

run of tests/_reference.py is the executable specification of
_loop.run; the tests run it on the extension's fill. The
differential test runs both on the same engines and requires every
sample to match bit for bit and every class to have created, sunk and
dropped the same jobs and to hold as many at the horizon; one of its
models puts every distribution kind on both loops as service, arrival and
probabilistic routing target, another gives two classes a source
each, so arrivals are read from source cells at two stations, and one
keeps about 250 events on the calendar, with ties, so sifts go eight
levels deep and the closing sweep walks a deep heap array; two hold the
orders of ties: three open classes, listed after a closed one, whose
arrivals tie every time, and closed jobs placed at -0.0 and +0.0; and
in one a closed population overfills its fcfs reference station at
t = 0, never dropped, beside an open class that is dropped there. Two
pins in tests/data/engine_pin.json hold both loops' lazy arrival merge on tied
and non-exponential arrivals. The ties pin was frozen from an engine
that pre-drew every arrival and merged them with a lexsort. The
arrival_mix pin, whose class M arrives by a mixture, was re-frozen when
each mixture part got its own stream, after that mixture's sample mean
and variance were checked against their closed forms (test_kernel.py);
its response times of class Z, which never arrives, read NaN since a
cell with no completion has no response time.
The remaining tests cover the extension's build and its failure, which
stops the import and so a CLI run, its cache, which names a build by
its source and flags, compiles each once and replaces only the older
builds of its own source and flag set, the profiler's sampler among
them, that each load of a build is a module of its own, a build of the
source with every gcc warning of -Wall -Wextra an error, a build under
AddressSanitizer and UndefinedBehaviorSanitizer that must pass the log,
pin, fill, calendar, table-check and thread tests without a report
(tools/sanitize.py), a smoke run of the sampling profiler on the
product's binary (tools/profile_loop.py), the checks the compiled loop
makes on its table, populations among them, and on
its specs, a fixed-seed fuzz of tables changed at random, that it calls
no Python function, that it runs without the GIL and raises its mid-run
errors alike on any thread, signals crossing the C boundary, and the
micro-benchmark in bench/, which must still import.
"""

import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

from qnaps import kernel
from qnaps.kernel import _build, _finalize, _Table, _Tally, run_replication
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
from qnaps.records import replace

from _helpers import closed_cycle_model, load_script, mm1_model, stopping_arrivals_model
from test_engine_pin import CASES, HORIZON, WARMUP, PIN, case_model, pinned_samples, tally

ROOT = Path(__file__).resolve().parents[1]


def parking_model(park: float = 0.01) -> NetworkModel:
    """Closed classes with an infinite delay: Idle parks at t = 0, and a
    Loop job parks for good whenever Work routes it to Park, which it
    does with probability park."""
    routing = RoutingTable()
    routing.add("Loop", "Think", "Work")
    routing.add("Loop", "Work", [("Think", 1.0 - park), ("Park", park)])
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


def two_source_model() -> NetworkModel:
    """Open classes A and B entering at sources of their own, SrcA and
    SrcB, listed apart so that their source cells sit at different
    stations: A goes to W, then to Sink or D; B splits at SrcB over W
    and D. W is fcfs with capacity 5."""
    routing = RoutingTable()
    routing.add("A", "SrcA", "W")
    routing.add("A", "W", [("Sink", 0.7), ("D", 0.3)])
    routing.add("A", "D", "Sink")
    routing.add("B", "SrcB", [("W", 0.5), ("D", 0.5)])
    routing.add("B", "W", "Sink")
    routing.add("B", "D", "Sink")
    return NetworkModel(
        name="two-sources",
        stations=[
            Station("W", kind=FCFS, capacity=5,
                    service={"A": Exponential(2.0), "B": Erlang(2, 3.0)}),
            Station("SrcA", kind=SOURCE),
            Station("D", kind=DELAY, service={"A": Exponential(0.5), "B": Uniform(0.5, 2.0)}),
            Station("SrcB", kind=SOURCE),
            Station("Sink", kind=SINK),
        ],
        classes=[
            JobClass("A", "open", arrival=Exponential(0.8)),
            JobClass("B", "open", arrival=Exponential(0.6)),
        ],
        routing=routing,
    )


def deep_calendar_model() -> NetworkModel:
    """300 closed jobs that cycle between Work, an fcfs station of 32
    servers with a deterministic service of 400.3 ms where they start, and
    Think, a delay with an exponential time of mean 2,800 ms. Work is
    saturated, so its servers finish in step, 32 events at one time whose
    order the calendar's tie-break on scheduling order decides, and about
    250 jobs are on the calendar at any time, the horizon too: the heap is
    eight levels deep, where on a shipped model it holds 3 to 5 events,
    and the closing sweep adds up a deep heap array's order. 400.3 is not
    a short binary fraction, so those sums round and their order shows."""
    routing = RoutingTable()
    routing.add("Crowd", "Work", "Think")
    routing.add("Crowd", "Think", "Work")
    return NetworkModel(
        name="deep-calendar",
        stations=[
            Station("Work", kind=FCFS, servers=32, service={"Crowd": Deterministic(400.3)}),
            Station("Think", kind=DELAY, service={"Crowd": Exponential(1.0 / 2800.0)}),
        ],
        classes=[JobClass("Crowd", "closed", population=300, reference="Work")],
        routing=routing,
    )


def arrival_tie_model() -> NetworkModel:
    """A closed class listed first, so class 0 never arrives, then three
    open classes whose deterministic arrivals tie every 6 ms: the lowest
    class index among them arrives first, and W, fcfs with a mean service
    that differs by class, serves them in that order."""
    routing = RoutingTable()
    routing.add("C", "Think", "W")
    routing.add("C", "W", "Think")
    for cname in ("A", "B", "D"):
        routing.add(cname, "Source", "W")
        routing.add(cname, "W", "Sink")
    return NetworkModel(
        name="arrival-ties",
        stations=[
            Station("Source", kind=SOURCE),
            Station("Think", kind=DELAY, service={"C": Exponential(0.1)}),
            Station("W", kind=FCFS, capacity=4,
                    service={"C": Exponential(1.0), "A": Exponential(2.0), "B": Exponential(1.0),
                             "D": Exponential(0.5)}),
            Station("Sink", kind=SINK),
        ],
        classes=[JobClass("C", "closed", population=2, reference="Think"),
                 *(JobClass(c, "open", arrival=Deterministic(6.0)) for c in ("A", "B", "D"))],
        routing=routing,
    )


def signed_zero_model() -> NetworkModel:
    """Closed classes P and Q that think for no time at delays of their
    own, P for -0.0 ms and Q for +0.0 ms, and are served at one fcfs
    station W: P's jobs are placed at t = -0.0 and Q's at +0.0, equal
    times, so the calendar's tie-break on scheduling order puts P's first,
    as heapq's tuples do."""
    routing = RoutingTable()
    for cname in ("P", "Q"):
        routing.add(cname, f"Think{cname}", "W")
        routing.add(cname, "W", f"Think{cname}")
    return NetworkModel(
        name="signed-zero",
        stations=[
            Station("ThinkP", kind=DELAY, service={"P": Deterministic(-0.0)}),
            Station("ThinkQ", kind=DELAY, service={"Q": Deterministic(0.0)}),
            Station("W", kind=FCFS, service={"P": Exponential(1.0), "Q": Exponential(0.5)}),
        ],
        classes=[JobClass("P", "closed", population=2, reference="ThinkP"),
                 JobClass("Q", "closed", population=2, reference="ThinkQ")],
        routing=routing,
    )


def closed_over_capacity_model() -> NetworkModel:
    """Five Loop jobs whose reference station W, fcfs with 2 servers and
    capacity 3, they overfill from t = 0: closed jobs are never dropped,
    so all five enter it, two in service and three queued, while open
    Jobs that share W are dropped whenever it holds 3 or more."""
    routing = RoutingTable()
    routing.add("Loop", "W", "Think")
    routing.add("Loop", "Think", "W")
    routing.add("Jobs", "Source", "W")
    routing.add("Jobs", "W", "Sink")
    return NetworkModel(
        name="closed-over-capacity",
        stations=[
            Station("Source", kind=SOURCE),
            Station("W", kind=FCFS, servers=2, capacity=3,
                    service={"Loop": Exponential(0.1), "Jobs": Exponential(0.2)}),
            Station("Think", kind=DELAY, service={"Loop": Exponential(0.05)}),
            Station("Sink", kind=SINK),
        ],
        classes=[JobClass("Loop", "closed", population=5, reference="W"),
                 JobClass("Jobs", "open", arrival=Exponential(0.05))],
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
    **{case: case_model(case) for case in CASES},
    "mm1_capacity3": mm1_model(capacity=3),
    "parking": parking_model(),
    "closed_cycle": closed_cycle_model(population=3),
    "ties": tie_model(),
    "arrival_mix": arrival_mix_model(),
    "stopping_arrivals": stopping_arrivals_model(),
    "every_kind": every_kind_model(),
    "two_sources": two_source_model(),
    "deep_calendar": deep_calendar_model(),
    "arrival_ties": arrival_tie_model(),
    "signed_zero": signed_zero_model(),
    "closed_over_capacity": closed_over_capacity_model(),
}

# seeds of the arrival-merge pins in tests/data/engine_pin.json
ARRIVAL_PINS = {"ties": 61001, "arrival_mix": 62002}


def outcome(model, seed, loop, horizon=HORIZON / 2):
    """The _Tally and every sample of one replication on loop."""
    table = _build(model, seed, horizon, WARMUP)
    counts = _Tally(*tally(table, loop))
    result = _finalize(model, seed, table, counts)
    return counts, [[s.station, s.job_class, s.metric, s.value.hex()] for s in result.samples]


def assert_loops_agree(model, seed):
    """The compiled loop's tally and samples are the Python loop's, field
    by field, so a mismatch names the field."""
    (ours, our_samples), (spec, spec_samples) = (outcome(model, seed, loop)
                                                 for loop in ("run", "_run_python"))
    for field in _Tally._fields:
        assert getattr(ours, field) == getattr(spec, field), (seed, field)
    assert our_samples == spec_samples, seed


def pinned_run(name: str, loop: str) -> dict:
    """Each class's [name, created, sunk, dropped] and every sample."""
    model = MODELS[name]
    counts, samples = outcome(model, ARRIVAL_PINS[name], loop, HORIZON)
    flows = zip([jc.name for jc in model.classes], counts.created, counts.sunk, counts.dropped)
    return {"flow": [list(f) for f in flows], "samples": samples}


@pytest.mark.parametrize("loop", ["run", "_run_python"])
@pytest.mark.parametrize("name", sorted(ARRIVAL_PINS))
def test_arrival_merge_is_bit_identical_to_the_pin(name, loop):
    frozen = json.loads(PIN.read_text(encoding="utf-8"))[name]
    assert pinned_run(name, loop) == frozen


@pytest.mark.parametrize("size", [97, 256])
@pytest.mark.parametrize("loop", ["run", "_run_python"])
def test_no_pinned_run_depends_on_the_block_size(loop, size, monkeypatch):
    # every pin of tests/data/engine_pin.json, with fills of 97 or 256
    # values in place of the shipped size: each sampler refills many times
    # more, and each arrival's t + gap crosses many block edges
    frozen = json.loads(PIN.read_text(encoding="utf-8"))
    monkeypatch.setattr(kernel, "_BLOCK", size)
    for case in sorted(CASES):
        assert pinned_samples(case, loop) == frozen[case], case
    for name in sorted(ARRIVAL_PINS):
        assert pinned_run(name, loop) == frozen[name], name


@pytest.mark.parametrize("name", sorted(MODELS))
def test_compiled_loop_matches_the_python_loop(name):
    model = MODELS[name]
    assert validate_model(model) == []
    for seed in range(1000, 1020):
        assert_loops_agree(model, seed)


@pytest.mark.parametrize("loop", ["run", "_run_python"])
def test_both_loops_return_the_fields_of_a_tally(loop):
    # the tally's contract: _Tally's fields in order, per cell or per
    # class, counts as ints and the rest as floats
    table = _build(MODELS["every_kind"], 1000, HORIZON / 2, WARMUP)
    nst, ncl = len(table.kind), len(table.reference)
    counts = tally(table, loop)
    assert len(counts) == len(_Tally._fields)
    if loop == "_run_python":
        assert type(counts) is _Tally
    for field, values in zip(_Tally._fields, counts):
        per_cell = field in ("area", "barea", "ssum", "scnt", "drops")
        number = float if field in ("area", "barea", "ssum", "rsum", "larea") else int
        assert type(values) is list, field
        assert len(values) == (nst * ncl if per_cell else ncl), field
        assert all(type(v) is number for v in values), field


@pytest.mark.parametrize("loop", ["run", "_run_python"])
def test_a_table_without_stations_or_classes_returns_the_empty_tally(loop):
    # route_ptr and flush_ptr are each [0], and neither loop reads a class
    # it does not have, the first arrival's cl[0] among them
    none = array("i")
    table = _Table(HORIZON, WARMUP, kernel._BLOCK, none, array("d"), array("d"), none,
                   array("i", [0]), none, array("d"), none, array("i", [0]), none, none, none, none, [])
    assert list(tally(table, loop)) == [[]] * len(_Tally._fields)


def test_deep_calendar_model_keeps_hundreds_of_events():
    # the time-average number of jobs thinking plus those in service, all
    # on the calendar, and Work's 32 servers busy the whole window
    model = deep_calendar_model()
    table = _build(model, 1000, HORIZON / 2, WARMUP)
    t = _Tally(*tally(table, "run"))
    work, think = 0, 1  # the cells of Crowd at Work and at Think
    window = HORIZON / 2 - WARMUP
    assert t.barea[work] / window == pytest.approx(32.0)
    assert (t.area[think] + t.barea[work]) / window > 200.0


@pytest.mark.parametrize("loop", ["run", "_run_python"])
def test_closed_jobs_overfill_their_reference_without_a_drop(loop):
    table = _build(closed_over_capacity_model(), 7, HORIZON / 2, WARMUP)
    t = _Tally(*tally(table, loop))
    closed, open_ = 0, 1  # classes Loop and Jobs
    assert t.dropped[closed] == 0 and t.live[closed] == 5
    assert t.dropped[open_] > 0


def test_parking_model_parks_jobs_during_the_run():
    model = parking_model()
    table = _build(model, 7, HORIZON / 2, WARMUP)
    result = _finalize(model, 7, table, tally(table, "_run_python"))
    park = {s.metric: s.value for s in result.samples
            if (s.station, s.job_class) == ("Park", "Loop")}
    # a Loop job that reaches Park stays there: none leaves, and between
    # one and all four of them are there at the horizon
    assert park["throughput-per-msec"] == 0.0
    assert 0 < park["queue-length"] <= 4


def fake_cc(path: Path, body: str) -> str:
    """A compiler at path that finds the file after -o and runs body on it
    as $2: a stand-in for gcc that builds nothing."""
    path.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n' + body)
    path.chmod(0o755)
    return str(path)


SAMPLER = ROOT / "tools" / "profile_sampler.c"
# (flags, source): the product's build, a test or tool build of _loop.c,
# and the profiler's sampler, a C file of its own through the same cache
BUILDS = (((), kernel._LOOP_SOURCE), (("-O1",), kernel._LOOP_SOURCE), ((), SAMPLER))


def test_build_failure_raises_and_leaves_no_file(tmp_path, capsys):
    missing = tmp_path / "no-such-cc"
    for i, (flags, source) in enumerate(BUILDS):
        cache = tmp_path / f"cache{i}"
        with pytest.raises(ImportError) as failed:
            kernel._built(str(missing), cache, *flags, source=source)
        message = str(failed.value)
        assert message.startswith("compiled event loop unavailable (FileNotFoundError: ")
        assert str(missing) in message
        assert capsys.readouterr().err == ""  # it raises; it does not warn
        assert list(cache.iterdir()) == []  # no half-written binary left behind


def test_compiler_that_exits_1_raises_and_leaves_no_file(tmp_path, capsys):
    # the compiler starts, writes part of its output and fails
    cc = fake_cc(tmp_path / "failing-cc", 'echo partial > "$2"\necho "_loop.c:1: error: broken" >&2\nexit 1\n')
    for i, (flags, source) in enumerate(BUILDS):
        cache = tmp_path / f"cache{i}"
        with pytest.raises(ImportError) as failed:
            kernel._built(cc, cache, *flags, source=source)
        message = str(failed.value)
        assert message.startswith("compiled event loop unavailable (")
        assert f"{cc} exited 1" in message and "error: broken" in message
        assert capsys.readouterr().err == ""
        assert list(cache.iterdir()) == []


def test_unloadable_cached_binary_raises_without_building(tmp_path, capsys):
    # a cache hit never runs the compiler, so its failure is the load's
    cached = kernel._cache_path(kernel._LOOP_SOURCE, tmp_path)
    cached.write_bytes(b"not a shared object")
    with pytest.raises(ImportError, match=r"^compiled event loop unavailable \(ImportError: "):
        kernel._load(kernel._built(str(tmp_path / "no-such-cc"), tmp_path))
    assert capsys.readouterr().err == ""
    assert sorted(tmp_path.iterdir()) == [cached]


def test_second_build_with_the_same_flags_runs_no_compiler(tmp_path):
    cc = fake_cc(tmp_path / "cc", 'echo built > "$2"\n')
    failing = fake_cc(tmp_path / "failing-cc", "exit 1\n")
    for i, (flags, source) in enumerate(BUILDS):
        cache = tmp_path / f"cache{i}"
        path = kernel._built(cc, cache, *flags, source=source)
        assert path == kernel._cache_path(source, cache, *flags)
        assert kernel._built(failing, cache, *flags, source=source) == path
        assert path.read_text() == "built\n" and sorted(cache.iterdir()) == [path]


def test_a_build_replaces_only_its_own_flag_sets_binaries(tmp_path):
    # tmp_path is the product's directory, a and b two flag sets' own; in
    # a, a build of either source replaces every other binary, of its own
    # source or not, as a, like each cache directory, holds one build
    suffix = EXTENSION_SUFFIXES[0]
    product = tmp_path / f"_loop_0123456789abcdef{suffix}"
    stale = tmp_path / "a" / product.name
    other = tmp_path / "b" / product.name
    stale_sampler = tmp_path / "a" / f"profile_sampler_0123456789abcdef{suffix}"
    for path in (product, stale, other, stale_sampler):
        path.parent.mkdir(exist_ok=True)
        path.write_text("built from another source")
    cc = fake_cc(tmp_path / "cc", 'echo built > "$2"\n')
    built = kernel._built(cc, tmp_path / "a", "-O1")
    assert sorted((tmp_path / "a").iterdir()) == [built]
    assert product.exists() and other.exists()
    # the profiler's former build of _loop.c beside its sampler's
    stale.write_text("built by a flag set no tool uses")
    sampler = kernel._built(cc, tmp_path / "a", "-O1", source=SAMPLER)
    assert sampler.name.startswith("profile_sampler_")
    assert sorted((tmp_path / "a").iterdir()) == [sampler]
    assert product.exists() and other.exists()


def test_cli_without_gcc_exits_1_naming_it(tmp_path):
    # a copy of the package with no cached binary, run where no gcc is on
    # PATH: the import of the engine fails, and with it the run
    shutil.copytree(Path(kernel.__file__).parent, tmp_path / "qnaps",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PATH": str(tmp_path / "bin")}
    config = tmp_path / "qnaps" / "configs" / "baseline.yaml"
    done = subprocess.run(
        [sys.executable, "-m", "qnaps.cli", "--config", str(config), "--out", str(tmp_path / "out")],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    # one line, the CLI's, with no traceback before it
    [line] = done.stderr.strip().splitlines()
    assert line.startswith("qnaps: compiled event loop unavailable (") and "'gcc'" in line, line
    assert not (tmp_path / "out").exists()
    assert list((tmp_path / "qnaps" / "__pycache__").glob("_loop_*")) == []


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_build_from_scratch_loads_and_replaces_older_binaries(tmp_path, capsys, monkeypatch):
    stale = tmp_path / f"_loop_0123456789abcdef{EXTENSION_SUFFIXES[0]}"
    stale.write_bytes(b"built from another source")
    module = kernel._load(kernel._built("gcc", tmp_path))
    assert capsys.readouterr().err == ""
    built = kernel._cache_path(kernel._LOOP_SOURCE, tmp_path)
    assert sorted(tmp_path.iterdir()) == [built]
    monkeypatch.setattr(kernel, "_loop", module)
    assert_loops_agree(MODELS["mm1_capacity3"], 5)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_source_compiles_without_a_warning(tmp_path):
    done = kernel._compile("gcc", tmp_path / "_loop.so", "-Wall", "-Wextra", "-Werror", timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.skipif(shutil.which("gcc") is None
                    or load_script(ROOT / "tools" / "sanitize.py").runtimes() is None,
                    reason="no gcc, or gcc finds no libasan.so or libubsan.so to preload")
def test_sanitized_build_passes_the_loops_tests():
    # tools/sanitize.py builds _loop.c under ASan and UBSan and runs the log,
    # pin and fill tests on it, failing on any sanitizer report
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "sanitize.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert " passed" in done.stdout


@pytest.mark.skipif(load_script(ROOT / "tools" / "profile_loop.py").refusal() is not None,
                    reason="the profiler refuses this machine: not x86-64 Linux, or no addr2line or gcc")
def test_profiler_attributes_samples_to_the_event_loop():
    # one round of baseline gets about 5 timer samples, and about 60% of
    # them fall in run_loop or what is inlined into it, so 5 rounds name it
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "profile_loop.py"), "baseline",
                           "--rounds", "5"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert done.stdout.startswith("profile_loop: baseline, 5 rounds: ")
    assert "run_loop" in done.stdout


def test_cache_name_follows_the_source_hash(tmp_path):
    source = kernel._LOOP_SOURCE
    name = kernel._cache_path(source, tmp_path).name
    assert kernel._cache_path(source, tmp_path).name == name
    edited = tmp_path / source.name
    edited.write_bytes(source.read_bytes() + b"\n")
    assert kernel._cache_path(edited, tmp_path).name != name
    assert kernel._loop.__file__.endswith(name)
    # the flags are hashed with the source, in order
    flag_sets = [(), ("-O1",), ("-O1", "-DNDEBUG"), ("-DNDEBUG", "-O1"), ("-DLANE_TARGETS=",)]
    assert len({kernel._cache_path(source, tmp_path, *flags).name for flags in flag_sets}) == 5
    assert kernel._cache_path(source, tmp_path, "-O1").name == kernel._cache_path(source, tmp_path, "-O1").name


def test_each_load_of_a_build_is_a_module_of_its_own(tmp_path):
    # a copy of the product's build, then the product's: two modules, each
    # running the build at its own path, as a tool comparing builds needs
    product = Path(kernel._loop.__file__)
    copy = tmp_path / product.name
    shutil.copyfile(product, copy)
    first, second = kernel._load(copy), kernel._load(product)
    assert first is not second
    assert (first.__file__, second.__file__) == (str(copy), str(product))


def test_micro_benchmark_still_collects():
    # bench/ sits outside testpaths, so a kernel name it imports that is
    # renamed or gone would break it unnoticed; collecting it imports it
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "bench"],
        cwd=root, capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "bench/test_engine_run.py::test_sampler_fill[nested-mixture]" in done.stdout


def test_compiled_loop_calls_no_python_function():
    # a wwi replication, every sampler kind of its model made in C
    table = _build(MODELS["wwi"], 73003, HORIZON, WARMUP)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        counts = kernel._loop.run(*table)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert sum(_Tally(*counts).created) > 5000  # it ran: jobs were created


@pytest.mark.parametrize("spec, error, match", [
    (("erlang", 1, 2), TypeError, r"fill\(\): \('erlang', 1, 2\) is not a sampler spec"),
    (("uniform", 1 << 64, 0, 0.0, 1.0), ValueError, r"has a key word outside \[0, 2\*\*64\)"),
    (("erlang", 1, 2, 0, 1.0), ValueError, "has fewer than one phase"),
    (("shift", 1.0, ["const", 1.0]), TypeError, r"\['const', 1.0\] is not a sampler spec"),
    (("shift", 1.0, ("const", math.nan)), ValueError, r"\('const', nan\) has a number below 0 or NaN"),
    (("mixture", 1, 2, 1.5, ("const", 1.0), ("const", 2.0)), ValueError,
     r"fill\(\): .* has a probability outside \[0, 1\]"),
], ids=["arity", "key", "phases", "part", "nan", "probability"])
def test_compiled_fill_rejects_a_malformed_spec(spec, error, match):
    with pytest.raises(error, match=match):
        kernel._loop.fill(spec, 0, 1)
    with pytest.raises(ValueError, match=r"fill\(\): no values -1 \+ \[0, 1\)"):
        kernel._loop.fill(("const", 1.0), -1, 1)
    # an Erlang-2 from the last int64 index on would need words past 2**64
    with pytest.raises(ValueError, match=r"^no words for values 9223372036854775807 \+ \[0, 4096\) "
                                         r"of 2 each$"):
        kernel._loop.fill(("erlang", 1, 2, 2, 1.0), 2**63 - 1, 4096)


def changed(values, at, value):
    values = array(values.typecode, values)
    values[at] = value
    return values


def replaced(specs, at, spec):
    specs = list(specs)
    specs[at] = spec
    return specs


# per case: the model, how the field before any / is corrupted, and the
# error the compiled loop raises for it (awty has 8 stations, 4 classes,
# 13 samplers and 11 route successors, the first of them the entry of
# class 0 at station 0, its source; its closed classes 2 and 3 think at
# delays, stations 5 and 6, with init samplers 11 and 12; wwi routes
# over two actors)
CORRUPT = {
    "block_size": ("awty", lambda t: 0, ValueError, "table 'block_size' is 0, not a positive count"),
    "kind": ("awty", lambda t: changed(t.kind, 0, 7), ValueError,
             r"table 'kind' holds 7 at 0, outside \[0, 4\)"),
    "servers": ("awty", lambda t: array("i", map(int, t.servers)), TypeError,
                "table 'servers' is not a 1-d float64 array"),
    "capacity": ("awty", lambda t: t.capacity[:-1], ValueError,
                 "table 'capacity' has 7 entries, expected 8"),
    "sampler": ("awty", lambda t: changed(t.sampler, 4, 13), ValueError,
                "table 'sampler' holds 13 at 4"),
    "route_ptr": ("awty", lambda t: changed(t.route_ptr, 5, 12), ValueError,
                  "table 'route_ptr' is not offsets from 0 to 11"),
    "route_to": ("awty", lambda t: changed(t.route_to, 0, 8), ValueError,
                 "table 'route_to' holds 8 at 0"),
    "route_to/unserved": ("awty", lambda t: changed(t.route_to, 0, 2), ValueError,
                          "table 'route_to' sends class 0 to station 2, which does not serve it"),
    "route_to/source": ("awty", lambda t: changed(t.route_to, 0, 0), ValueError,
                        "table 'route_to' sends class 0 to station 0, which is a source"),
    "route_cum": ("awty", lambda t: array("f", t.route_cum), TypeError,
                  "table 'route_cum' is not a 1-d float64 array"),
    "route_sampler": ("awty", lambda t: changed(t.route_sampler, 0, 13), ValueError,
                      "table 'route_sampler' holds 13 at 0"),
    "route_sampler/missing": ("wwi", lambda t: array("i", [-1] * len(t.route_sampler)), ValueError,
                              "table 'route_sampler' has no sampler for route row"),
    "flush_ptr": ("awty", lambda t: t.flush_ptr[1:], ValueError,
                  "table 'flush_ptr' has 32 entries, expected 33"),
    "flush_cls": ("awty", lambda t: changed(t.flush_cls, 0, -1), ValueError,
                  "table 'flush_cls' holds -1 at 0"),
    "reference": ("awty", lambda t: changed(t.reference, 2, 8), ValueError,
                  "table 'reference' holds 8 at 2"),
    "reference/unserved": ("awty", lambda t: changed(t.reference, 2, 4), ValueError,
                           "table 'population' places class 2 at station 4, which does not serve it"),
    "population": ("awty", lambda t: changed(t.population, 3, -1), ValueError,
                   r"table 'population' holds -1 at 3, outside \[0, 16777217\)"),
    # 2**31 - 1 jobs would be placed with no signal check
    "population/huge": ("awty", lambda t: changed(t.population, 3, 2**31 - 1), ValueError,
                        r"table 'population' holds 2147483647 at 3, outside \[0, 16777217\)"),
    # each population in range, but 2**24 + 1 jobs in all
    "population/total": ("awty", lambda t: changed(t.population, 3, 2**24), ValueError,
                         "table 'population' sums to 16777217, above 16777216"),
    "population/open": ("awty", lambda t: changed(t.population, 0, 1), ValueError,
                        "table 'population' places class 0 at station -1, which does not serve it"),
    "init": ("awty", lambda t: changed(t.init, 3, -1), ValueError,
             "table 'init' has no sampler for class 3"),
    "init/range": ("awty", lambda t: changed(t.init, 2, 13), ValueError,
                   r"table 'init' holds 13 at 2, outside \[-1, 13\)"),
    "horizon": ("awty", lambda t: math.inf, ValueError, "table 'horizon' is inf, not a finite time"),
    "horizon/nan": ("awty", lambda t: math.nan, ValueError, "table 'horizon' is nan, not a finite time"),
    "warmup": ("awty", lambda t: math.nan, ValueError, r"table 'warmup' is nan, not in \[0, horizon\)"),
    "warmup/negative": ("awty", lambda t: -1.0, ValueError, r"table 'warmup' is -1.0, not in \[0, horizon\)"),
    "warmup/horizon": ("awty", lambda t: t.horizon, ValueError,
                       r"table 'warmup' is \d+\.0, not in \[0, horizon\)"),
    "specs": ("awty", lambda t: tuple(t.specs), TypeError, "table 'specs' is not a list"),
    "specs/spec": ("awty", lambda t: replaced(t.specs, 3, ("gamma", 2.0)), TypeError,
                   r"sampler 3: \('gamma', 2.0\) is not a sampler spec"),
    "specs/part": ("awty", lambda t: replaced(t.specs, 3, ("shift", 1.0, ("const", "1"))),
                   TypeError, r"sampler 3: \('const', '1'\) is not a sampler spec"),
    "specs/key": ("awty", lambda t: replaced(t.specs, 3, ("uniform", -1, 0, 0.0, 1.0)),
                  ValueError, r"sampler 3: .* has a key word outside \[0, 2\*\*64\)"),
    # a service time that is NaN stalled the clock: this table ran forever
    "specs/nan": ("closed_cycle", lambda t: replaced(t.specs, 0, (*t.specs[0][:4], math.nan)),
                  ValueError, r"sampler 0: .* has a number below 0 or NaN"),
}


def test_corrupt_cases_cover_every_table_array():
    arrays = {case.split("/")[0] for case in CORRUPT}
    assert arrays == set(kernel._Table._fields)


def test_compiled_loop_runs_without_the_gil():
    # a wwi replication on a thread while this one sleeps 1 ms at a time:
    # were the GIL held for the whole loop, one of this thread's waits
    # would last about as long as the replication
    table = _build(MODELS["wwi"], 73003, 4e6, WARMUP)
    t0 = time.perf_counter()
    kernel._loop.run(*table)
    one_rep = time.perf_counter() - t0
    worker = threading.Thread(target=kernel._loop.run, args=table)
    longest = 0.0
    last = time.perf_counter()
    worker.start()
    while worker.is_alive():
        time.sleep(0.001)
        now = time.perf_counter()
        longest, last = max(longest, now - last), now
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert longest < one_rep / 4, (longest, one_rep)


def no_successor(t):
    # route row 5 of wwi, Actors leaving the Controller, with every
    # cumulative probability below any uniform
    cum = array("d", t.route_cum)
    for i in range(t.route_ptr[5], t.route_ptr[6]):
        cum[i] = -1.0
    return t._replace(route_cum=cum)


# tables the compiled loop fails on mid-run, where it runs without the
# GIL, and the error it raises; they pass the checks on entry
MID_RUN = {
    "route": (no_successor, IndexError, "route row 5 has no successor for class 1"),
}


@pytest.mark.parametrize("case", sorted(MID_RUN))
def test_mid_run_errors_are_the_same_on_any_thread(case):
    # raised with the GIL taken back: once on this thread, then twice at
    # once on two worker threads
    corrupt, error, message = MID_RUN[case]
    bad = corrupt(_build(MODELS["wwi"], 73003, HORIZON, WARMUP))
    with pytest.raises(error) as here:
        kernel._loop.run(*bad)
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(kernel._loop.run, *bad) for _ in range(2)]
        failed = [run.exception(timeout=60) for run in runs]
    assert [(type(e), str(e)) for e in (here.value, *failed)] == [(error, message)] * 3


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_compiled_loop_checks_its_table_on_entry(case):
    name, corrupt, error, match = CORRUPT[case]
    table = _build(MODELS[name], 73003, HORIZON, WARMUP)
    assert kernel._loop.run(*table)  # the table as built runs
    table = _build(MODELS[name], 73003, HORIZON, WARMUP)
    bad = table._replace(**{case.split("/")[0]: corrupt(table)})
    with pytest.raises(error, match=match):
        kernel._loop.run(*bad)


# fuzzed tables: the models they start from, what a run of one may raise,
# and the values a scalar field may become
FUZZ_BASES = ("mm1_capacity3", "closed_cycle", "parking", "two_sources", "wwi", "awty", "every_kind")
FUZZ_ERRORS = (ValueError, TypeError, IndexError, OverflowError, MemoryError)
FUZZ_SCALARS = {
    "horizon": (math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 50.0),
    "warmup": (math.nan, math.inf, -math.inf, -1.0, 0.0, 499.0, 500.0),
    "block_size": (-1, 0, 1, 3, 2**62, 2**63, 2.5),
}


def too_deep():
    spec = ("const", 1.0)
    for _ in range(65):
        spec = ("shift", 0.0, spec)
    return spec


# specs the loop refuses, alone or as a part of another
JUNK_SPECS = (
    None, (), ["const", 1.0], ("gamma", 2.0), ("const",), ("const", "1"), ("const", 1.0, 2.0),
    ("erlang", 1, 2), ("erlang", 1, 2, 0, 1.0), ("erlang", 1, 2, 2**31, 1.0),
    ("erlang", -1, 2, 1, 1.0), ("erlang", 1, 2, 1, 1.0, False), ("uniform", 1, 2**64, 0.0, 1.0),
    ("uniform", 1.5, 2, 0.0, 1.0),
    ("shift", 1.0, "x"), ("mixture", 1, 2, 0.5, ("const", 1.0)), too_deep(),
    # well formed, with a number outside the range validate_model enforces
    ("const", math.nan), ("const", -1.0), ("uniform", 1, 2, -1.0, 1.0), ("uniform", 1, 2, 0.0, -1.0),
    ("uniform", 1, 2, math.nan, 1.0), ("uniform", 1, 2, 0.0, math.nan),
    ("erlang", 1, 2, 1, -1.0), ("erlang", 1, 2, 2, math.nan),
    ("shift", -1.0, ("const", 1.0)), ("shift", math.nan, ("const", 1.0)),
    ("mixture", 1, 2, 1.5, ("const", 1.0), ("const", 1.0)),
    ("mixture", 1, 2, -0.5, ("const", 1.0), ("const", 1.0)),
    ("mixture", 1, 2, math.nan, ("const", 1.0), ("const", 1.0)),
)


def fuzzed_entry(rng, typecode):
    """An index or population, or a time or count that is NaN, infinite,
    negative, tiny or huge, for an array of typecode."""
    if typecode == "i":
        return rng.choice((-2**31, 2**31 - 1, *range(-2, 12)))
    return rng.choice((math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 0.5, 2.0, 1e300))


def fuzzed_specs(specs, rng):
    """specs with a junk spec, a junk part, two specs swapped, or another
    type or length."""
    specs, b = list(specs), rng.randrange(len(specs))
    how = rng.randrange(4)
    if how == 0:
        specs[b] = rng.choice(JUNK_SPECS)
    elif how == 1:
        specs[b] = rng.choice((("shift", 1.0, rng.choice(JUNK_SPECS)),
                               ("mixture", 1, 2, 0.5, specs[b], rng.choice(JUNK_SPECS))))
    elif how == 2:
        other = rng.randrange(len(specs))
        specs[b], specs[other] = specs[other], specs[b]
    else:
        specs = rng.choice((tuple(specs), specs[:-1], specs + specs[:1]))
    return specs


def fuzzed(table, name, rng):
    """table with its field name changed at random."""
    old = getattr(table, name)
    if name in FUZZ_SCALARS:
        new = rng.choice(FUZZ_SCALARS[name])
    elif name == "specs":
        new = fuzzed_specs(old, rng)
    else:
        how = rng.randrange(4)
        if how == 0:
            other = "q" if old.typecode == "d" else "d"
            new = rng.choice((old.tolist(), bytes(8 * len(old)), None, array(other, [0] * len(old)),
                              array("f", [0.0] * len(old)), array("l", [0] * len(old))))
        elif how == 1:
            new = rng.choice((old[:-1], old + old[:1], old[:0]))
        elif not old:
            new = old
        else:
            new = array(old.typecode, old)
            new[rng.randrange(len(new))] = fuzzed_entry(rng, old.typecode)
    return table._replace(**{name: new})


def test_fuzzed_tables_run_or_raise():
    """Tables of seven models changed at random, one or two fields at a time:
    an index or population set in or out of range, an array made shorter,
    longer or empty, or of another type, a time, count or probability made
    NaN, infinite, negative, tiny or huge, the horizon,
    warmup or block size made invalid, and a spec made malformed, given a
    malformed part, or swapped with another. Each run returns a tally or
    raises ValueError, TypeError, IndexError, OverflowError or MemoryError,
    within a second. The fuzz makes no well-formed spec of its own but
    those of JUNK_SPECS, so it leaves out the valid specs that make
    zero-time loops, such as a zero arrival gap or a closed cycle of zero
    demands: validate_model refuses them, the table check on entry does
    not. A spec whose numbers are NaN or negative is refused on entry."""
    rng = random.Random(20261019)
    bases = {name: _build(MODELS[name], 7, 500.0, 50.0) for name in FUZZ_BASES}

    class Overran(Exception):
        pass

    def ring(signum, frame):
        raise Overran

    previous = signal.signal(signal.SIGALRM, ring)
    outcomes = set()
    try:
        for _ in range(3000):
            base = rng.choice(FUZZ_BASES)
            table, changes = bases[base], rng.sample(kernel._Table._fields, rng.randint(1, 2))
            for name in changes:
                table = fuzzed(table, name, rng)
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                kernel._loop.run(*table)
                outcomes.add("tally")
            except FUZZ_ERRORS as exc:
                outcomes.add(type(exc).__name__)
            except Overran:
                pytest.fail(f"{base} with {changes} changed ran past 1 s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes == {"tally", "ValueError", "TypeError", "IndexError", "OverflowError", "MemoryError"}


def test_compiled_loop_checks_for_signals():
    # the compiled loop makes every value in C, so no Python bytecode runs
    # inside it and only the loop's own check can deliver the signal;
    # uninterrupted this run takes about half a minute
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

    class Alarm(Exception):
        pass

    def ring(signum, frame):
        raise Alarm

    previous = signal.signal(signal.SIGALRM, ring)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        start = time.perf_counter()
        with pytest.raises(Alarm):
            run_replication(model, 1, 1e9, 0.0)
        assert time.perf_counter() - start < 10.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
