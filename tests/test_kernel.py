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
from itertools import islice
from pathlib import Path
from types import GeneratorType

import numpy as np
import pytest

import _reference
from qnaps import kernel
from qnaps.kernel import (
    DeadlockError,
    InvalidModelError,
    KernelError,
    _build,
    _finalize,
    _spec,
    _Tally,
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
    closed_cycle_model,
    covers,
    estimate,
    job_class,
    mm1_model,
    open_trap_model,
    station,
    stopping_arrivals_model,
    table,
)
from test_engine_pin import CASES, case_model, tally
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


def _uniforms(name, n):
    """The first n uniforms of the stream called name, from numpy's Philox
    keyed as _key's docstring says, by the first 16 bytes of the name's
    SHA-256: the top 53 bits of each raw word times 2**-53."""
    key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:16], "little")
    words = np.random.Philox(key=key).random_raw(n)
    return (words >> np.uint64(11)) * (1.0 / (1 << 53))


def _fill(spec, first, n, fill=kernel._loop.fill):
    """Values first .. first + n - 1 of the sampler spec, in one fill of
    the extension, or of the fill given."""
    return fill(spec, first, n).tolist()


def _take(spec, n, block=None, fill=kernel._loop.fill):
    """The first n values of the sampler spec as the Python loop takes
    them, block (_BLOCK by default) to a fill."""
    return list(islice(_reference._values(fill, spec, block or kernel._BLOCK), n))


_KEYS = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1] + [
    int.from_bytes(hashlib.sha256(str(i).encode()).digest()[:16], "little") for i in range(200)]


def _numpy_words(key, n):
    """The first n uniforms of Generator(Philox(key)).random, the words
    of the stream keyed key."""
    return np.random.Generator(np.random.Philox(key=key)).random(n)


def test_extension_words_equal_numpys_philox():
    # start offsets 0-3 within the first block, starts on either side of
    # later block boundaries, and lengths that end inside, on and past one
    for key in _KEYS:
        want = _numpy_words(key, 8200)
        u01 = ("uniform", key & ((1 << 64) - 1), key >> 64, 0.0, 1.0)
        for start in (0, 1, 2, 3, 4091, 4092, 4094):
            for n in (0, 1, 3, 4, 4096, 4097):
                got = np.frombuffer(kernel._loop.fill(u01, start, n))
                assert got.tolist() == want[start:start + n].tolist(), (key, start, n)


def test_reference_words_equal_numpys_philox():
    for key in _KEYS[::20]:
        want = _numpy_words(key, 8200)
        k0, k1 = key & ((1 << 64) - 1), key >> 64
        for start in (0, 1, 2, 3, 4094):
            for n in (1, 4, 4097):
                got = _reference._philox_uniforms(k0, k1, start, n)
                assert got.tolist() == want[start:start + n].tolist(), (key, start, n)


def test_extension_and_reference_agree_far_into_a_stream():
    # values past 2**32 blocks of words into a stream, in uneven pieces
    # that together are one fill, of the extension and of the reference
    far = 5 << 34
    u01 = ("uniform", *kernel._key("3|st|cl|service"), 0.0, 1.0)
    pieces = [(far + 1, 1), (far + 2, 7), (far + 9, 4097)]
    got = [_fill(u01, first, n) for first, n in pieces]
    assert sum(got, []) == _fill(u01, far + 1, 4105)
    assert [_fill(u01, first, n, _reference.fill) for first, n in pieces] == got


def test_key_is_the_first_16_bytes_of_the_names_sha256():
    for name in ("42|Queue|Jobs|service", "0|Sensor 1|Reading|arrival/base/extra",
                 "18446744073709551615|é|ß|init"):
        digest = hashlib.sha256(name.encode()).digest()
        k0, k1 = int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:16], "little")
        assert kernel._key(name) == (k0, k1), name


def test_stream_is_reproducible_and_purpose_separated():
    a1 = _fill(_spec(kernel._U01, "42|Queue|Jobs|service"), 0, 50)
    a2 = _fill(_spec(kernel._U01, "42|Queue|Jobs|service"), 0, 50)
    other = _fill(_spec(kernel._U01, "42|Queue|Jobs|routing"), 0, 50)
    assert a1 == a2
    assert a1 != other
    assert all(0.0 <= u < 1.0 for u in a1 + other)


def test_streams_are_isolated_under_interleaving():
    # a fill keeps no state: one value at a time, between fills of another
    # stream, gives the values of one fill
    a, b = _spec(kernel._U01, "7|A|c|service"), _spec(kernel._U01, "7|B|c|service")
    interleaved = []
    for j in range(20):
        interleaved += _fill(a, j, 1)
        _fill(b, j, 1)  # traffic on B must not disturb A
    assert interleaved == _fill(a, 0, 20)


def test_sampler_draw_accounting():
    # value j of a sampler that takes k words a value is made from words
    # jk .. jk + k - 1 of its stream, whatever value a fill starts at
    name = "11|st|cl|service"
    logs = _log1m(_uniforms(name, 12))
    assert _fill(_spec(Exponential(2.0), name), 7, 3) == [-v * 0.5 for v in logs[7:10]]
    erlang = _spec(Erlang(3, 1.0), name)
    assert _fill(erlang, 2, 2) == [-(a + b + c) * 1.0 for a, b, c in zip(*[iter(logs[6:12])] * 3)]
    assert _fill(_spec(Exponential(0.0), name), 5, 2) == [math.inf, math.inf]


def test_model_samplers_draw_documented_amounts():
    name = "5|s|c|service"
    det = _spec(Deterministic(4.0), name)
    assert det == ("const", 4.0)  # no key: it takes no words
    assert _fill(det, 3, 2) == [4.0, 4.0]
    assert _spec(Exponential(1.0), name) == ("erlang", *kernel._key(name), 1, 1.0)


def _words_per_value(spec) -> int:
    """The words value j of the sampler spec takes, over every stream it reads."""
    kind = spec[0]
    if kind in ("const", "uniform"):
        return kind == "uniform"
    if kind == "erlang":
        return spec[3]
    if kind == "shift":
        return _words_per_value(spec[2])
    return 1 + _words_per_value(spec[4]) + _words_per_value(spec[5])


def _keys(spec) -> list:
    """The key of every stream the sampler spec reads, once per node."""
    kind = spec[0]
    if kind == "shift":
        return _keys(spec[2])
    keys = [] if kind == "const" else [spec[1:3]]
    return keys + (_keys(spec[4]) + _keys(spec[5]) if kind == "mixture" else [])


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
def test_draws_count_every_value_across_a_refill(dist, k):
    # every stream the sampler reads, its own and its part streams and
    # theirs (name + "/branch", "/base" or "/extra", two deep here), is
    # one node's, and a value takes k words of them in all; _BLOCK + 44
    # values taken across a refill are those of one fill
    names = ["11|st|cl|refill"]
    for _ in range(2):
        names += [n + tag for n in names for tag in ("/branch", "/base", "/extra")]
    spec = _spec(dist, names[0])
    keys = _keys(spec)
    assert len(set(keys)) == len(keys)
    assert set(keys) <= set(map(kernel._key, names))
    assert _words_per_value(spec) == k
    n = kernel._BLOCK + 44
    assert _take(spec, n) == _fill(spec, 0, n)


def test_routing_stream_draws_one_word_per_decision(monkeypatch):
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
    table = _build(m, seed=12, horizon=2000.0, warmup=0.0)
    b = table.route_sampler[0]  # cell (Source, Jobs)
    u01 = table.specs[b]
    # value j of the routing sampler is word j of its stream, from the first
    assert _fill(u01, 0, kernel._BLOCK) == _uniforms("12|Source|Jobs|routing", kernel._BLOCK).tolist()
    taken = []
    values = _reference._values

    def counted(fill, spec, block):
        for v in values(fill, spec, block):
            taken.append(spec)
            yield v

    monkeypatch.setattr(_reference, "_values", counted)
    decisions = tally(table, "_run_python").created[0]  # every arrival splits once at the source
    assert decisions > 300
    assert sum(spec is u01 for spec in taken) == decisions


def _log1m(u):
    """log(1 - u) of each uniform, by the Python port of the extension's log."""
    return [_reference._log(1.0 - x) for x in u.tolist()]


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
    # value j is made from words jk .. jk + k - 1; _BLOCK + 44 values
    # cross a refill
    n, size = kernel._BLOCK + 44, kernel._BLOCK
    sampler = _spec(dist, "17|st|cl|service")
    want = formula(_uniforms("17|st|cl|service", 2 * size * k))
    assert _take(sampler, n) == want[:n]


@pytest.mark.parametrize("k", range(1, 11))
def test_erlang_value_is_its_phases_summed_in_order(k):
    # value i is -(l[ik] + l[ik+1] + ... + l[ik+k-1]) / rate, summed left to
    # right in Python, with l = log(1 - u) over the uniforms of the words
    n, size = kernel._BLOCK + 44, kernel._BLOCK
    sampler = _spec(Erlang(k, 1.3), "17|st|cl|service")
    logs = _log1m(_uniforms("17|st|cl|service", 2 * size * k))
    want = []
    for i in range(2 * size):
        total = logs[i * k]
        for phase in logs[i * k + 1:(i + 1) * k]:
            total += phase
        want.append(-total * (1.0 / 1.3))
    assert _take(sampler, n) == want[:n]


@pytest.mark.parametrize(
    "dist", [Mixture(0.3, Uniform(0.0, 1.0), Uniform(2.0, 3.0)), *NESTED.values()],
    ids=["flat", *NESTED],
)
def test_mixture_parts_draw_from_their_own_streams(dist):
    # value i is base value i, plus extra value i when branch uniform i is
    # below p; each is rebuilt from its part stream, named name +
    # "/branch", "/base" or "/extra"; _BLOCK + 44 values cross a refill
    n = kernel._BLOCK + 44
    offset, mix = (dist.offset, dist.base) if dist.kind == "shifted" else (0.0, dist)
    sampler = _spec(dist, "29|st|cl|service")
    branch = _uniforms("29|st|cl|service/branch", n).tolist()
    base = _take(_spec(mix.base, "29|st|cl|service/base"), n)
    extra = _take(_spec(mix.extra, "29|st|cl|service/extra"), n)
    want = [offset + (a + b if u < mix.p_extra else a) for u, a, b in zip(branch, base, extra)]
    assert _take(sampler, n) == want


# mixtures at the edges of the extension's fill, which makes a mixture's
# extra values 512 at a time, taken or not
MIXTURE_EDGES = {
    "p-0": Mixture(0.0, Exponential(2.0), Erlang(3, 1.0)),
    "p-1": Mixture(1.0, Exponential(2.0), Erlang(3, 1.0)),
    "rate-0-extra": Mixture(0.3, Uniform(1.0, 2.0), Exponential(0.0)),
    "infinite-extra": Mixture(0.3, Exponential(1.0), Deterministic(math.inf)),
    "mixture-extra": Mixture(0.5, Exponential(1.0), Mixture(0.3, Erlang(2, 1.0), Uniform(0.0, 1.0))),
}


@pytest.mark.parametrize("dist", [*kinds(10.0).values(), *NESTED.values(), Exponential(0.0),
                                  *MIXTURE_EDGES.values()],
                         ids=[*kinds(10.0), *NESTED, "rate-0", *MIXTURE_EDGES])
def test_compiled_fills_equal_the_python_fills(dist):
    # the extension's fill against the reference's, its specification: values
    # and routing uniforms, _BLOCK + 44 of each, so every stream crosses a
    # block, 9 from value 4093 on, and 1100 from value 700 on, from a first
    # value that is not a multiple of 512 and over two of the 512-value
    # chunks in which a mixture makes its extra values
    n = kernel._BLOCK + 44

    def draw(fill):
        values = _spec(dist, "41|st|cl|service")
        routing = _spec(kernel._U01, "41|st|cl|routing")
        return [[v.hex() for v in _take(spec, n, fill=fill) + _fill(spec, 4093, 9, fill)
                 + _fill(spec, 700, 1100, fill)]
                for spec in (values, routing)]

    assert draw(_reference.fill) == draw(kernel._loop.fill)


@pytest.mark.parametrize("dist", [*kinds(10.0).values(), *NESTED.values()],
                         ids=[*kinds(10.0), *NESTED])
def test_no_sampler_depends_on_the_block_size(dist):
    # _BLOCK + 44 values of dist span two blocks of the shipped size and
    # many of 97 or 256 values; a fill from value 1000 makes the values
    # from 1000 on
    n = kernel._BLOCK + 44
    spec = _spec(dist, "31|st|cl|service")
    shipped = _take(spec, n)
    for size in (97, 256):
        assert _take(spec, n, size) == shipped
    assert _fill(spec, 1000, 50) == shipped[1000:1050]


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
        name = f"{seed}|Controller|Status|service"
        assert dist == Mixture(0.25, Exponential(2.0), Exponential(1 / 3))
    else:
        dist = job_class(arrival_mix_model(), "M").arrival
        name = f"{ARRIVAL_PINS[case]}|Source|M|arrival"
        assert dist == Mixture(0.3, Uniform(1.0, 5.0), Shifted(0.5, Exponential(0.5)))
    x = np.frombuffer(kernel._loop.fill(_spec(dist, name), 0, 2**20))
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
    x = np.frombuffer(kernel._loop.fill(_spec(dist, "43|st|cl|service"), 0, 2**20))
    d = x - x.mean()
    m2, m4 = (d**2).mean(), (d**4).mean()
    assert abs(x.mean() - dist.mean()) / np.sqrt(var / len(x)) < 4
    assert abs(m2 - var) / np.sqrt((m4 - m2**2) / len(x)) < 4


def test_no_block_outlives_its_replication():
    # the Python loop's samplers are generators of _values that nothing
    # else holds, so a replication's samplers and their blocks are freed
    # by refcount as soon as it is dropped, with the cyclic collector off;
    # the compiled loop frees the buffers it makes before it returns
    def live_blocks():
        return {id(o) for o in gc.get_objects()
                if isinstance(o, GeneratorType) and o.gi_code is _reference._values.__code__}

    gc.collect()
    gc.disable()
    try:
        before = live_blocks()
        run_replication(MODELS["wwi"], 73003, 40000.0, 4000.0)
        tally(_build(MODELS["wwi"], 73003, 40000.0, 4000.0), "_run_python")
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


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_non_finite_horizon_is_refused_before_validation(horizon):
    # an infinite horizon would run forever; the model is invalid too, and
    # the horizon is what is reported
    broken = mm1_model()
    broken.classes[0] = JobClass("Jobs", "open", arrival=None)
    with pytest.raises(ValueError, match=f"horizon {horizon} must be finite"):
        run_replication(broken, seed=1, horizon=horizon)


def test_negative_warmup_is_refused():
    # a window that opens before t = 0 would read mm1's utilization at
    # about half of rho = 0.5
    with pytest.raises(ValueError, match="warmup -10000.0 must be at least 0"):
        run_replication(mm1_model(lam=0.5), seed=1, horizon=1e4, warmup=-1e4)


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
    t = _Tally(*kernel._loop.run(*_build(m, seed=3, horizon=2000.0, warmup=200.0)))
    assert t.created == t.sunk and t.created[0] > 900
    reps = [run_replication(m, seed=s, horizon=2000.0, warmup=200.0) for s in range(5)]
    assert covers(estimate(reps)[("system", "Jobs", "throughput-per-msec")], 0.5)


def test_flow_check_fires_from_the_engine():
    model = mm1_model(capacity=3)
    table = _build(model, seed=5, horizon=2000.0, warmup=200.0)
    t = _Tally(*kernel._loop.run(*table))
    assert t.created[0] > 1000 and t.dropped[0] > 0
    _finalize(model, 5, table, t)  # balanced as the loop left it
    with pytest.raises(KernelError, match="flow imbalance for class Jobs"):
        _finalize(model, 5, table, t._replace(sunk=[t.sunk[0] - 1]))


def test_population_check_fires_from_the_engine():
    model = closed_cycle_model(population=3)
    table = _build(model, seed=5, horizon=2000.0, warmup=200.0)
    t = _Tally(*kernel._loop.run(*table))
    assert t.live == [3] and t.rcnt[0] > 0
    _finalize(model, 5, table, t)  # every job as the loop left it
    with pytest.raises(KernelError, match="closed population leak: class Jobs holds 2 of 3"):
        _finalize(model, 5, table, t._replace(live=[t.live[0] - 1]))


def test_arrivals_run_until_their_first_infinite_gap():
    model = stopping_arrivals_model()
    assert validate_model(model) == []
    table = _build(model, seed=1, horizon=1e4, warmup=1e3)
    t = _Tally(*kernel._loop.run(*table))
    # about 100 arrivals, where 1e4 msec at rate 0.8 would give 8000
    assert t.created == t.sunk and 0 < t.created[0] < 1000
    _finalize(model, 1, table, t)  # the flow check holds


_HIGH_RATE_CHILD = """
from _helpers import mm1_model
from qnaps.kernel import _build, _finalize, _loop, _Tally
model = mm1_model(lam=100, mu=1000)
_build(model, 1, 1e6, 1e5)
table = _build(model, 1, 1e4, 1e3)
t = _Tally(*_loop.run(*table))
_finalize(model, 1, table, t)  # the flow check
print(*t.created, *t.sunk, *t.dropped)
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


_BIG_POPULATION_CHILD = """
from qnaps.kernel import run_replication
from qnaps.model import DELAY, FCFS, Exponential, JobClass, NetworkModel, RoutingTable, Station
routing = RoutingTable()
routing.add("Crowd", "Think", "Work")
routing.add("Crowd", "Work", "Think")
model = NetworkModel(
    name="crowd",
    stations=[Station("Think", kind=DELAY, service={"Crowd": Exponential(1e-6)}),
              Station("Work", kind=FCFS, service={"Crowd": Exponential(1.0)})],
    classes=[JobClass("Crowd", "closed", population=2_500_000, reference="Think")],
    routing=routing,
)
result = run_replication(model, 1, 20.0, 10.0)
print(*(s.value for s in result.samples
        if (s.station, s.job_class, s.metric) == ("Think", "Crowd", "queue-length")))
"""


def test_big_populations_build_in_bounded_memory():
    # 2.5e6 closed jobs at a delay, each thinking for a phase of a think
    # time of mean 1e6 ms: the loop places them itself, a few dozen bytes
    # a job, so a replication runs under a 512 MiB address-space cap
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _BIG_POPULATION_CHILD], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=cap_memory)
    assert done.returncode == 0, done.stderr
    assert 2_499_000 < float(done.stdout) < 2_500_000


def dormant_model(arrival, think: float) -> NetworkModel:
    """Two Idle jobs that think for think ms at Think, their reference
    station, beside open Jobs whose gaps between arrivals are arrival;
    both are served at Queue."""
    routing = RoutingTable()
    routing.add("Jobs", "Source", "Queue")
    routing.add("Jobs", "Queue", "Sink")
    routing.add("Idle", "Think", "Queue")
    routing.add("Idle", "Queue", "Think")
    return NetworkModel(
        name="dormant",
        stations=[
            Station("Source", kind=SOURCE),
            Station("Queue", kind=FCFS, service={"Jobs": Exponential(1.0), "Idle": Exponential(1.0)}),
            Station("Sink", kind=SINK),
            Station("Think", kind=DELAY, service={"Idle": Deterministic(think)}),
        ],
        classes=[
            JobClass("Jobs", "open", arrival=arrival),
            JobClass("Idle", "closed", population=2, reference="Think"),
        ],
        routing=routing,
    )


@pytest.mark.parametrize("first_arrival, think, deadlocked", [
    (100.0, math.inf, True),   # the first arrival at the horizon: nothing ever happens
    (99.0, math.inf, False),   # one arrival before it
    (100.0, 1e9, False),       # the first thinks end past the horizon, but they are events
], ids=["arrival-at-horizon", "arrival-before-horizon", "think-past-horizon"])
def test_deadlock_boundary(first_arrival, think, deadlocked):
    model = dormant_model(Deterministic(first_arrival), think)
    if deadlocked:
        with pytest.raises(DeadlockError) as err:
            run_replication(model, seed=4, horizon=100.0)
        assert err.value.class_names == ["Idle"]
    else:
        r = table(run_replication(model, seed=4, horizon=100.0))
        assert r[("system", "Idle", "throughput-per-msec")] == 0.0
        assert r[("Queue", "Jobs", "throughput-per-msec")] <= 0.01


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
    m = dormant_model(Exponential(0.5), math.inf)
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
