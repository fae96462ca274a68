"""Simulation kernel: event ordering, seeded streams, window accounting.

The deterministic-distribution cases pin exact event orderings (tie
rules, window edges) with frozen numbers; the stochastic cases check
reproducibility and stream isolation rather than values.
"""

import gc
import hashlib
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qnaps import kernel
from qnaps.kernel import (
    DeadlockError,
    InvalidModelError,
    KernelError,
    RngStream,
    _arrival_gaps,
    _Engine,
    _sampler,
    run_replication,
)
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

from _helpers import (
    covers,
    estimate,
    job_class,
    mm1_model,
    open_trap_model,
    station,
    stopping_arrivals_model,
    table,
)
from test_engine_pin import CASES, case_model
from test_loop import ARRIVAL_PINS, MODELS, arrival_mix_model, kinds


# ---------------------------------------------------------------------------
# random streams

# mixtures whose base or extra is itself a mixture, or a shift of one
NESTED = {
    "mixture-base": Mixture(0.4, Mixture(0.5, Uniform(1.0, 2.0), Exponential(2.0)), Erlang(2, 1.0)),
    "shifted-mixture-extra": Mixture(
        0.3, Uniform(0.0, 1.0),
        Shifted(0.5, Mixture(0.2, Erlang(3, 1.0), Deterministic(float("inf"))))),
    "shifted-mixture-of-mixtures": Shifted(
        1.5, Mixture(0.6, Mixture(0.1, Exponential(1.0), Exponential(0.0)),
                     Mixture(0.9, Deterministic(2.0), Uniform(3.0, 4.0)))),
}


def _uniforms(stream, n):
    """The next n uniforms of stream, advancing it, from numpy's Philox
    keyed as the stream's docstring says: the top 53 bits of each raw
    word times 2**-53."""
    material = f"{stream.seed}|{stream.station_id}|{stream.class_id}|{stream.purpose}".encode()
    key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
    words = np.random.Philox(key=key).random_raw(stream.pos + n)[stream.pos:]
    stream.pos += n
    return (words >> np.uint64(11)) * (1.0 / (1 << 53))


def _words_taken(stream):
    """How many raw words stream has handed out: where its next word sits
    in a twin stream, searched over the twin's first 15 blocks of words."""
    twin = RngStream(stream.seed, stream.station_id, stream.class_id, stream.purpose)
    return _uniforms(twin, 15 * kernel._BLOCK).tolist().index(stream.uniforms(1)[0])


def _uniform01(stream):
    return stream.uniforms(1)[0]


_KEYS = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1] + [
    int.from_bytes(hashlib.sha256(str(i).encode()).digest()[:16], "little") for i in range(200)]


def _numpy_words(key, n):
    """The first n uniforms of Generator(Philox(key)).random, the words
    RngStream documents."""
    return np.random.Generator(np.random.Philox(key=key)).random(n)


@pytest.mark.skipif(kernel._loop is None, reason="compiled extension not available")
def test_extension_words_equal_numpys_philox():
    # start offsets 0-3 within the first block, starts on either side of
    # later block boundaries, and lengths that end inside, on and past one
    uniforms = kernel._loop.uniforms
    for key in _KEYS:
        want = _numpy_words(key, 8200)
        k0, k1 = key & ((1 << 64) - 1), key >> 64
        for start in (0, 1, 2, 3, 4091, 4092, 4094):
            for n in (0, 1, 3, 4, 4096, 4097):
                got = np.frombuffer(uniforms(k0, k1, start, n))
                assert got.tolist() == want[start:start + n].tolist(), (key, start, n)


def test_fallback_words_equal_numpys_philox():
    for key in _KEYS[::20]:
        want = _numpy_words(key, 8200)
        k0, k1 = key & ((1 << 64) - 1), key >> 64
        for start in (0, 1, 2, 3, 4094):
            for n in (1, 4, 4097):
                got = kernel._philox_uniforms(k0, k1, start, n)
                assert got.tolist() == want[start:start + n].tolist(), (key, start, n)


@pytest.mark.skipif(kernel._loop is None, reason="compiled extension not available")
def test_extension_and_fallback_agree_far_into_a_stream(monkeypatch):
    # a stream read in uneven pieces, past 2**32 blocks of words
    far = 5 << 34
    extension = RngStream(3, "st", "cl", "service")
    fallback = RngStream(3, "st", "cl", "service")
    extension.pos = fallback.pos = far + 1
    got = [extension.uniforms(n).tolist() for n in (1, 7, 4097)]
    monkeypatch.setattr(kernel, "_loop", None)
    assert [fallback.uniforms(n).tolist() for n in (1, 7, 4097)] == got
    assert extension.pos == fallback.pos == far + 1 + 4105


def test_stream_is_reproducible_and_purpose_separated():
    a1 = RngStream(42, "Queue", "Jobs", "service")
    a2 = RngStream(42, "Queue", "Jobs", "service")
    b = RngStream(42, "Queue", "Jobs", "routing")
    seq1 = [_uniform01(a1) for _ in range(50)]
    seq2 = [_uniform01(a2) for _ in range(50)]
    other = [_uniform01(b) for _ in range(50)]
    assert seq1 == seq2
    assert seq1 != other
    assert all(0.0 <= u < 1.0 for u in seq1 + other)
    assert _words_taken(a1) == 50


def test_streams_are_isolated_under_interleaving():
    a, b = RngStream(7, "A", "c", "service"), RngStream(7, "B", "c", "service")
    fresh = RngStream(7, "A", "c", "service")
    solo = [_uniform01(fresh) for _ in range(20)]
    interleaved = []
    for _ in range(20):
        interleaved.append(_uniform01(a))
        _uniform01(b)  # traffic on B must not disturb A
    assert interleaved == solo


def test_sampler_draw_accounting():
    # a batched sampler takes a whole block's words on its first value
    s = RngStream(11, "st", "cl", "service")
    exp = _sampler(Exponential(2.0), s)
    vals = [next(exp) for _ in range(10)]
    assert _words_taken(s) == kernel._BLOCK
    assert all(v >= 0 for v in vals)

    stream = RngStream(11, "st", "cl", "erl")
    erl = _sampler(Erlang(3, 1.0), stream)
    next(erl)
    assert _words_taken(stream) == 3 * kernel._BLOCK  # one word per phase per value

    zero = _sampler(Exponential(0.0), RngStream(11, "st", "cl", "z"))
    assert next(zero) == float("inf")


def test_model_samplers_draw_documented_amounts():
    stream = RngStream(5, "s", "c", "service")
    det = _sampler(Deterministic(4.0), stream)
    assert next(det) == 4.0
    expo = _sampler(Exponential(1.0), stream)
    next(expo)
    assert _words_taken(stream) == kernel._BLOCK  # the deterministic took none


@pytest.mark.parametrize(
    "dist, k",
    [
        (Exponential(2.0), 1),
        (Erlang(3, 1.0), 3),
        (Shifted(0.5, Exponential(2.0)), 1),
        (Mixture(0.3, Exponential(2.0), Erlang(2, 1.0)), 4),
        (NESTED["shifted-mixture-of-mixtures"], 5),
    ],
    ids=["exponential", "erlang", "shifted", "mixture", "shifted-mixture-of-mixtures"],
)
def test_draws_count_every_value_across_a_refill(dist, k, monkeypatch):
    # _BLOCK + 44 values cross the first block, so every stream the
    # sampler reads, its own and its part streams and theirs, has taken
    # two blocks of words, k words a value in all
    n = kernel._BLOCK + 44
    streams = [RngStream(11, "st", "cl", "refill")]
    part = RngStream.part

    def recorded_part(self, tag):
        streams.append(part(self, tag))
        return streams[-1]

    monkeypatch.setattr(RngStream, "part", recorded_part)
    sampler = _sampler(dist, streams[0])
    for _ in range(n):
        next(sampler)
    taken = [_words_taken(s) for s in streams]
    assert all(w % (2 * kernel._BLOCK) == 0 for w in taken)
    assert sum(taken) == 2 * kernel._BLOCK * k


def test_routing_stream_draws_one_word_per_decision():
    routing = RoutingTable()
    routing.add("Jobs", "Source", [("A", 0.3), ("B", 0.7)])
    routing.add("Jobs", "A", "Sink")
    routing.add("Jobs", "B", "Sink")
    m = NetworkModel(
        name="split",
        stations=[
            Station("Source", kind=SOURCE),
            Station("A", kind=DELAY, service={"Jobs": Exponential(1.0)}),
            Station("B", kind=DELAY, service={"Jobs": Exponential(1.0)}),
            Station("Sink", kind=SINK),
        ],
        classes=[JobClass("Jobs", "open", arrival=Exponential(0.5))],
        routing=routing,
    )
    engine = _Engine(m, seed=12, horizon=2000.0, warmup=0.0)
    decisions = engine._tally()[1][0][0]  # created: every arrival splits once at the source
    assert 300 < decisions < kernel._BLOCK
    u01 = engine.table.blocks[engine.table.route_block[0]]  # cell (Source, Jobs)
    twin = RngStream(12, "Source", "Jobs", "routing")
    assert u01.i == decisions
    assert u01.vals.tolist() == _uniforms(twin, kernel._BLOCK).tolist()


def _log1m(u):
    """log(1 - u) of each uniform, by the Python port of the extension's log."""
    return [kernel._log(1.0 - x) for x in u.tolist()]


@pytest.mark.parametrize(
    "dist, k, formula",
    [
        (Exponential(0.7), 1, lambda u: [-v * (1.0 / 0.7) for v in _log1m(u)]),
        (Uniform(2.0, 5.5), 1, lambda u: (2.0 + (5.5 - 2.0) * u).tolist()),
        (Erlang(3, 1.3), 3, lambda u: [-(a + b + c) * (1.0 / 1.3)
                                       for a, b, c in zip(*[iter(_log1m(u))] * 3)]),
    ],
    ids=["exponential", "uniform", "erlang"],
)
def test_batched_sampler_matches_the_formula_on_raw_words(dist, k, formula):
    # values come from blocks of _BLOCK values made from _BLOCK*k words;
    # _BLOCK + 44 values cross a refill
    n, size = kernel._BLOCK + 44, kernel._BLOCK
    sampler = _sampler(dist, RngStream(17, "st", "cl", "service"))
    twin = RngStream(17, "st", "cl", "service")
    want = [v for _ in range(2) for v in formula(_uniforms(twin, size * k))]
    assert [next(sampler) for _ in range(n)] == want[:n]


@pytest.mark.parametrize("k", range(1, 11))
def test_erlang_value_is_its_phases_summed_in_order(k):
    # value i is -(l[ik] + l[ik+1] + ... + l[ik+k-1]) / rate, summed left to
    # right in Python, with l = log(1 - u) over the block's _BLOCK*k uniforms
    n, size = kernel._BLOCK + 44, kernel._BLOCK
    sampler = _sampler(Erlang(k, 1.3), RngStream(17, "st", "cl", "service"))
    twin = RngStream(17, "st", "cl", "service")
    want = []
    for _ in range(2):
        logs = _log1m(_uniforms(twin, size * k))
        for i in range(size):
            total = logs[i * k]
            for phase in logs[i * k + 1:(i + 1) * k]:
                total += phase
            want.append(-total * (1.0 / 1.3))
    assert [next(sampler) for _ in range(n)] == want[:n]


@pytest.mark.parametrize(
    "dist", [Mixture(0.3, Uniform(0.0, 1.0), Uniform(2.0, 3.0)), *NESTED.values()],
    ids=["flat", *NESTED],
)
def test_mixture_parts_draw_from_their_own_streams(dist):
    # value i is base value i, plus extra value i when branch uniform i is
    # below p; each is rebuilt from a fresh stream keyed service/branch,
    # service/base or service/extra; _BLOCK + 44 values cross a refill
    n = kernel._BLOCK + 44
    offset, mix = (dist.offset, dist.base) if dist.kind == "shifted" else (0.0, dist)
    sampler = _sampler(dist, RngStream(29, "st", "cl", "service"))
    branch = _uniforms(RngStream(29, "st", "cl", "service/branch"), n).tolist()
    base = _sampler(mix.base, RngStream(29, "st", "cl", "service/base"))
    extra = _sampler(mix.extra, RngStream(29, "st", "cl", "service/extra"))
    want = []
    for u in branch:
        a, b = next(base), next(extra)
        want.append(offset + (a + b if u < mix.p_extra else a))
    assert [next(sampler) for _ in range(n)] == want


@pytest.mark.skipif(kernel._loop is None, reason="compiled extension not available")
@pytest.mark.parametrize("dist", [*kinds(10.0).values(), *NESTED.values(), Exponential(0.0)],
                         ids=[*kinds(10.0), *NESTED, "rate-0"])
def test_compiled_fills_equal_the_python_fills(dist, monkeypatch):
    # the extension's fills against _PythonFills, their fallback: values,
    # arrival gaps of dist (an exponential's divided by its rate) and
    # routing uniforms, _BLOCK + 44 of each, so every stream crosses a block
    n = kernel._BLOCK + 44

    def draw():
        values = _sampler(dist, RngStream(41, "st", "cl", "service"))
        gaps = _arrival_gaps(dist, RngStream(41, "st", "cl", "arrival"))
        routing = RngStream(41, "st", "cl", "routing").block(1, kernel._fills().uniforms)
        return [(next(values).hex(), next(gaps).hex(), next(routing).hex()) for _ in range(n)]

    compiled = draw()
    monkeypatch.setattr(kernel, "_loop", None)
    assert draw() == compiled


@pytest.mark.parametrize("dist", [*kinds(10.0).values(), *NESTED.values()],
                         ids=[*kinds(10.0), *NESTED])
def test_no_sampler_depends_on_the_block_size(dist, monkeypatch):
    # _BLOCK + 44 values, and as many arrival gaps of dist, span two
    # blocks of the shipped size and many of 97 or 256 values
    n = kernel._BLOCK + 44

    def draw():
        values = _sampler(dist, RngStream(31, "st", "cl", "service"))
        gaps = _arrival_gaps(dist, RngStream(31, "st", "cl", "arrival"))
        return [(next(values).hex(), next(gaps).hex()) for _ in range(n)]

    shipped = draw()
    for size in (97, 256):
        monkeypatch.setattr(kernel, "_BLOCK", size)
        assert draw() == shipped


@pytest.mark.parametrize(
    "case, mean, var",
    [
        # 0.5 + 0.25 * 3, and 0.25 + 0.25 * (9 + 3**2) - (0.25 * 3)**2
        ("ieok_exc", 1.25, 4.1875),
        # 3 + 0.3 * 2.5, and 16 / 12 + 0.3 * (4 + 2.5**2) - (0.3 * 2.5)**2
        ("arrival_mix", 3.75, 16 / 12 + 0.3 * 10.25 - 0.75**2),
    ],
    ids=["ieok_exc", "arrival_mix"],
)
def test_pinned_mixtures_match_their_closed_form_moments(case, mean, var):
    # the mixtures of the two engine pins that sample one, drawn 2**20 times
    # from the stream the pinned run uses: sample mean and variance within
    # 4 standard errors of the mean and variance of base + Bernoulli(p) * extra
    if case == "ieok_exc":
        model, seed = case_model(case), CASES[case][2]
        dist = station(model, "Controller").service["Status"]
        stream = RngStream(seed, "Controller", "Status", "service")
        assert dist == Mixture(0.25, Exponential(2.0), Exponential(1 / 3))
    else:
        dist = job_class(arrival_mix_model(), "M").arrival
        stream = RngStream(ARRIVAL_PINS[case], "Source", "M", "arrival")
        assert dist == Mixture(0.3, Uniform(1.0, 5.0), Shifted(0.5, Exponential(0.5)))
    sampler = _sampler(dist, stream)
    x = np.concatenate([sampler.fill() for _ in range(2**20 // kernel._BLOCK)])
    d = x - x.mean()
    m2, m4 = (d**2).mean(), (d**4).mean()
    assert abs(x.mean() - mean) / np.sqrt(var / len(x)) < 4
    assert abs(m2 - var) / np.sqrt((m4 - m2**2) / len(x)) < 4


@pytest.mark.parametrize(
    "dist, var",
    [(Exponential(0.7), 1 / 0.7**2), (Erlang(3, 1.3), 3 / 1.3**2)],
    ids=["exponential", "erlang"],
)
def test_exponential_and_erlang_match_their_closed_form_moments(dist, var):
    # 2**20 values: sample mean and variance within 4 standard errors of
    # k / rate and k / rate**2
    sampler = _sampler(dist, RngStream(43, "st", "cl", "service"))
    x = np.concatenate([sampler.fill() for _ in range(2**20 // kernel._BLOCK)])
    d = x - x.mean()
    m2, m4 = (d**2).mean(), (d**4).mean()
    assert abs(x.mean() - dist.mean()) / np.sqrt(var / len(x)) < 4
    assert abs(m2 - var) / np.sqrt((m4 - m2**2) / len(x)) < 4


def test_no_block_outlives_its_replication():
    # no stream holds a block, so a replication's streams, blocks and
    # values are freed by refcount as soon as it is dropped, with the
    # cyclic collector off
    def live_blocks():
        return {id(o) for o in gc.get_objects() if isinstance(o, kernel._Block)}

    gc.collect()
    gc.disable()
    try:
        before = live_blocks()
        run_replication(MODELS["wwi"], 73003, 40000.0, 4000.0)
        _Engine(MODELS["wwi"], 73003, 40000.0, 4000.0)._run_python()
        assert live_blocks() == before
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# deterministic end-to-end accounting


def _deterministic_queue(capacity=None, service=1.0):
    routing = RoutingTable()
    routing.add("Jobs", "Source", "Queue")
    routing.add("Jobs", "Queue", "Sink")
    return NetworkModel(
        name="det",
        stations=[
            Station("Source", kind=SOURCE),
            Station("Queue", kind=FCFS, capacity=capacity, service={"Jobs": Deterministic(service)}),
            Station("Sink", kind=SINK),
        ],
        classes=[JobClass("Jobs", "open", arrival=Deterministic(2.0))],
        routing=routing,
    )


def test_window_accounting_frozen_case():
    # arrivals at 2,4,6,8; completions at 3,5,7,9; window (3, 10]:
    # the completion at exactly t = warmup is excluded, leaving 3 jobs
    r = table(run_replication(_deterministic_queue(), seed=1, horizon=10.0, warmup=3.0))
    assert r[("Queue", "Jobs", "throughput-per-msec")] == pytest.approx(3 / 7, rel=1e-12)
    assert r[("Queue", "Jobs", "response-time-msec")] == pytest.approx(1.0, rel=1e-12)
    assert r[("Queue", "Jobs", "utilization")] == pytest.approx(3 / 7, rel=1e-12)
    assert r[("Queue", "Jobs", "queue-length")] == pytest.approx(3 / 7, rel=1e-12)
    assert r[("system", "Jobs", "response-time-msec")] == pytest.approx(1.0, rel=1e-12)
    assert r[("system", "Jobs", "queue-length")] == pytest.approx(3 / 7, rel=1e-12)


def test_arrival_beats_completion_on_time_tie():
    # service 2.0 makes arrivals collide with completions at t=4 and t=8;
    # capacity 1: the arrival processes first on the tie, still sees the
    # finishing job in service, and is dropped
    r = table(run_replication(
        _deterministic_queue(capacity=1, service=2.0), seed=1, horizon=10.0, warmup=0.0
    ))
    assert r[("Queue", "Jobs", "dropped-count")] == 2
    assert r[("Queue", "Jobs", "throughput-per-msec")] == pytest.approx(2 / 10, rel=1e-12)
    assert r[("Queue", "Jobs", "utilization")] == pytest.approx(0.4, rel=1e-12)


def test_replication_is_pure_and_seed_sensitive():
    m = mm1_model()
    a = run_replication(m, seed=99, horizon=5000.0, warmup=500.0)
    b = run_replication(m, seed=99, horizon=5000.0, warmup=500.0)
    c = run_replication(m, seed=100, horizon=5000.0, warmup=500.0)
    assert a.samples == b.samples
    assert a.samples != c.samples
    assert a.seed == 99 and a.horizon == 5000.0 and a.warmup == 500.0


def test_invalid_model_and_window_guards():
    broken = mm1_model()
    broken.classes[0] = JobClass("Jobs", "open", arrival=None)
    with pytest.raises(InvalidModelError) as err:
        run_replication(broken, seed=1, horizon=10.0)
    assert any("arrival" in d for d in err.value.diagnostics)
    with pytest.raises(ValueError):
        run_replication(mm1_model(), seed=1, horizon=10.0, warmup=10.0)


def test_open_class_without_a_path_to_a_sink_is_rejected():
    with pytest.raises(InvalidModelError) as err:
        run_replication(open_trap_model(), seed=1, horizon=1000.0)
    assert "class Jobs: station D has no path to a sink" in str(err.value)


def test_open_class_routed_from_source_straight_to_sink():
    # the arrival takes the same routing step as a departure, sink included
    routing = RoutingTable()
    routing.add("Jobs", "Source", "Sink")
    m = NetworkModel(
        name="pass-through",
        stations=[Station("Source", kind=SOURCE), Station("Sink", kind=SINK)],
        classes=[JobClass("Jobs", "open", arrival=Exponential(0.5))],
        routing=routing,
    )
    engine = _Engine(m, seed=3, horizon=2000.0, warmup=200.0)
    created, sunk, *_ = engine._tally()[1][0]
    assert created == sunk > 900
    reps = [run_replication(m, seed=s, horizon=2000.0, warmup=200.0) for s in range(5)]
    assert covers(estimate(reps)[("system", "Jobs", "throughput-per-msec")], 0.5)


def test_flow_check_fires_from_the_engine():
    engine = _Engine(mm1_model(capacity=3), seed=5, horizon=2000.0, warmup=200.0)
    cells, classes = engine._tally()
    created, sunk, dropped, *rest = classes[0]
    assert created > 1000 and dropped > 0
    engine._finalize((cells, classes))  # balanced as the loop left it
    with pytest.raises(KernelError, match="flow imbalance for class Jobs"):
        engine._finalize((cells, [(created, sunk - 1, dropped, *rest)]))


def test_arrivals_run_until_their_first_infinite_gap():
    model = stopping_arrivals_model()
    assert validate_model(model) == []
    engine = _Engine(model, seed=1, horizon=1e4, warmup=1e3)
    tally = engine._tally()
    created, sunk, *_ = tally[1][0]
    # about 100 arrivals, where 1e4 msec at rate 0.8 would give 8000
    assert 0 < created == sunk < 1000
    engine._finalize(tally)  # the flow check holds


_HIGH_RATE_CHILD = """
from _helpers import mm1_model
from qnaps.kernel import _Engine
model = mm1_model(lam=100, mu=1000)
_Engine(model, 1, 1e6, 1e5)
engine = _Engine(model, 1, 1e4, 1e3)
tally = engine._tally()
engine._finalize(tally)  # the flow check
print(*tally[1][0][:3])
"""


def test_high_rate_arrivals_build_in_bounded_memory():
    # 1e8 arrivals over the horizon: drawn as the loop takes them, not up
    # front, so the engine builds under a 1 GiB address-space cap
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _HIGH_RATE_CHILD], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=cap_memory)
    assert done.returncode == 0, done.stderr
    created, sunk, dropped = map(int, done.stdout.split())
    assert created == pytest.approx(1e6, rel=0.01)
    assert dropped == 0 and 0 <= created - sunk < 100


def test_deadlock_when_nothing_can_ever_happen():
    routing = RoutingTable()
    routing.add("Loop", "Think", "Work")
    routing.add("Loop", "Work", "Think")
    parked = NetworkModel(
        name="parked",
        stations=[
            Station("Think", kind=DELAY, service={"Loop": Deterministic(float("inf"))}),
            Station("Work", kind=FCFS, service={"Loop": Exponential(1.0)}),
        ],
        classes=[JobClass("Loop", "closed", population=3, reference="Think")],
        routing=routing,
    )
    with pytest.raises(DeadlockError) as err:
        run_replication(parked, seed=4, horizon=100.0)
    assert err.value.class_names == ["Loop"]


def test_parked_class_is_dormant_not_deadlocked_beside_open_traffic():
    routing = RoutingTable()
    routing.add("Jobs", "Source", "Queue")
    routing.add("Jobs", "Queue", "Sink")
    routing.add("Idle", "Think", "Queue")
    routing.add("Idle", "Queue", "Think")
    m = NetworkModel(
        name="dormant",
        stations=[
            Station("Source", kind=SOURCE),
            Station("Queue", kind=FCFS, service={"Jobs": Exponential(1.0), "Idle": Exponential(1.0)}),
            Station("Sink", kind=SINK),
            Station("Think", kind=DELAY, service={"Idle": Deterministic(float("inf"))}),
        ],
        classes=[
            JobClass("Jobs", "open", arrival=Exponential(0.5)),
            JobClass("Idle", "closed", population=2, reference="Think"),
        ],
        routing=routing,
    )
    r = table(run_replication(m, seed=8, horizon=2000.0, warmup=100.0))
    assert r[("Queue", "Jobs", "throughput-per-msec")] > 0.3
    assert r[("system", "Idle", "throughput-per-msec")] == 0.0
    assert math.isnan(r[("system", "Idle", "response-time-msec")])  # no cycle completed


def test_detection_gate_stretches_system_time_only():
    # watched jobs leave the queue physically but count as in-system until
    # the poller's next pass through the queue confirms completion
    def build(watched: bool):
        routing = RoutingTable()
        routing.add("Work", "Source", "Queue")
        routing.add("Work", "Queue", "Sink")
        routing.add("Poll", "Think", "Queue")
        routing.add("Poll", "Queue", "Think")
        m = NetworkModel(
            name="gate",
            stations=[
                Station("Source", kind=SOURCE),
                Station("Queue", kind=FCFS, service={"Work": Exponential(1.0), "Poll": Exponential(4.0)}),
                Station("Sink", kind=SINK),
                Station("Think", kind=DELAY, service={"Poll": Exponential(0.05)}),
            ],
            classes=[
                JobClass("Work", "open", arrival=Exponential(0.4)),
                JobClass("Poll", "closed", population=1, reference="Think"),
            ],
            routing=routing,
        )
        if watched:
            m.detection["Work"] = ("Poll", "Queue")
        return m

    plain = table(run_replication(build(False), seed=21, horizon=50000.0, warmup=5000.0))
    gated = table(run_replication(build(True), seed=21, horizon=50000.0, warmup=5000.0))
    r_plain = plain[("system", "Work", "response-time-msec")]
    r_gated = gated[("system", "Work", "response-time-msec")]
    assert r_gated > r_plain  # waiting for the verdict costs time
    # station-level behavior is untouched by the bookkeeping
    assert gated[("Queue", "Work", "response-time-msec")] == pytest.approx(
        plain[("Queue", "Work", "response-time-msec")], rel=1e-12
    )
    # Little's law on the gated class: N = X * R within simulation noise
    n = gated[("system", "Work", "queue-length")]
    x = gated[("system", "Work", "throughput-per-msec")]
    rr = gated[("system", "Work", "response-time-msec")]
    assert abs(n - x * rr) <= 0.02 * n
