"""Simulation kernel: event ordering, seeded streams, window accounting.

The deterministic-distribution cases pin exact event orderings (tie
rules, window edges) with frozen numbers; the stochastic cases check
reproducibility and stream isolation rather than values.
"""

import numpy as np
import pytest

from qnaps.kernel import (
    DeadlockError,
    InvalidModelError,
    KernelError,
    RngSpace,
    RngStream,
    _Engine,
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
)
from qnaps.stats import estimate

from _helpers import mm1_model, open_trap_model


# ---------------------------------------------------------------------------
# random streams


def test_stream_is_reproducible_and_purpose_separated():
    a1 = RngStream(42, "Queue", "Jobs", "service")
    a2 = RngStream(42, "Queue", "Jobs", "service")
    b = RngStream(42, "Queue", "Jobs", "routing")
    seq1 = [a1.uniform01() for _ in range(50)]
    seq2 = [a2.uniform01() for _ in range(50)]
    other = [b.uniform01() for _ in range(50)]
    assert seq1 == seq2
    assert seq1 != other
    assert all(0.0 <= u < 1.0 for u in seq1 + other)
    assert a1.draws == 50


def test_streams_are_isolated_under_interleaving():
    space = RngSpace(7)
    a, b = space.stream("A", "c", "service"), space.stream("B", "c", "service")
    assert space.stream("A", "c", "service") is a  # cached handle
    fresh = RngStream(7, "A", "c", "service")
    solo = [fresh.uniform01() for _ in range(20)]
    interleaved = []
    for _ in range(20):
        interleaved.append(a.uniform01())
        b.uniform01()  # traffic on B must not disturb A
    assert interleaved == solo


def test_take_block_walks_one_sequence():
    s1 = RngStream(9, "x", "y", "service")
    s2 = RngStream(9, "x", "y", "service")
    whole = s1.take_block(64)
    parts = list(s2.take_block(10)) + list(s2.take_block(54))
    assert list(whole) == parts


def test_sampler_draw_accounting():
    s = RngStream(11, "st", "cl", "service")
    exp = Exponential(2.0).sampler(s)
    before = s.draws
    vals = [exp() for _ in range(10)]
    assert s.draws - before == 10
    assert all(v >= 0 for v in vals)

    stream = RngStream(11, "st", "cl", "erl")
    erl = Erlang(3, 1.0).sampler(stream)
    erl()
    assert stream.draws == 3  # one value consumes one draw per phase

    zero = Exponential(0.0).sampler(RngStream(11, "st", "cl", "z"))
    assert zero() == float("inf")


def test_model_samplers_draw_documented_amounts():
    stream = RngStream(5, "s", "c", "service")
    det = Deterministic(4.0).sampler(stream)
    assert det() == 4.0 and stream.draws == 0
    expo = Exponential(1.0).sampler(stream)
    expo()
    assert stream.draws == 1


@pytest.mark.parametrize(
    "dist, k",
    [
        (Exponential(2.0), 1),
        (Erlang(3, 1.0), 3),
        (Shifted(0.5, Exponential(2.0)), 1),
        (Mixture(0.3, Exponential(2.0), Erlang(2, 1.0)), 4),
    ],
    ids=["exponential", "erlang", "shifted", "mixture"],
)
def test_draws_count_every_value_across_a_refill(dist, k):
    # 300 values cross the first 256-value block; draws counts what was
    # handed out, not what the open block holds
    stream = RngStream(11, "st", "cl", "refill")
    sampler = dist.sampler(stream)
    counts = []
    for _ in range(300):
        sampler()
        counts.append(stream.draws)
    assert counts == [k * n for n in range(1, 301)]


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
    engine.run()
    decisions = engine.classes[0].created  # every arrival splits once at the source
    assert decisions > 300
    assert engine.space.stream("Source", "Jobs", "routing").draws == decisions


def _uniforms(stream, n):
    return (stream.take_block(n) >> np.uint64(11)) * (1.0 / (1 << 53))


@pytest.mark.parametrize(
    "dist, k, formula",
    [
        (Exponential(0.7), 1, lambda u: -np.log1p(-u) * (1.0 / 0.7)),
        (Uniform(2.0, 5.5), 1, lambda u: 2.0 + (5.5 - 2.0) * u),
        (Erlang(3, 1.3), 3, lambda u: -np.log1p(-u).reshape(256, 3).sum(axis=1) * (1.0 / 1.3)),
    ],
    ids=["exponential", "uniform", "erlang"],
)
def test_batched_sampler_matches_the_formula_on_raw_words(dist, k, formula):
    # values come from 256-value blocks of 256*k words; 300 values cross a refill
    sampler = dist.sampler(RngStream(17, "st", "cl", "service"))
    twin = RngStream(17, "st", "cl", "service")
    want = [v for _ in range(2) for v in formula(_uniforms(twin, 256 * k)).tolist()]
    assert [sampler() for _ in range(300)] == want[:300]


def test_mixture_takes_words_in_refill_order():
    # the branch uniform takes one word per value; base and extra each take
    # a 256-word block on their first value and when it runs out
    p, lo1, hi1, lo2, hi2 = 0.3, 0.0, 1.0, 2.0, 3.0
    sampler = Mixture(p, Uniform(lo1, hi1), Uniform(lo2, hi2)).sampler(
        RngStream(23, "st", "cl", "service")
    )
    twin = RngStream(23, "st", "cl", "service")
    base, extra, want = [], [], []
    for _ in range(600):
        u = float(_uniforms(twin, 1)[0])
        if not base:
            base = (lo1 + (hi1 - lo1) * _uniforms(twin, 256)).tolist()
        if not extra:
            extra = (lo2 + (hi2 - lo2) * _uniforms(twin, 256)).tolist()
        a, b = base.pop(0), extra.pop(0)
        want.append(a + b if u < p else a)
    assert [sampler() for _ in range(600)] == want


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
    r = run_replication(_deterministic_queue(), seed=1, horizon=10.0, warmup=3.0).table()
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
    r = run_replication(
        _deterministic_queue(capacity=1, service=2.0), seed=1, horizon=10.0, warmup=0.0
    ).table()
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
    engine.run()
    jobs = engine.classes[0]
    assert jobs.created == jobs.sunk > 900
    reps = [run_replication(m, seed=s, horizon=2000.0, warmup=200.0) for s in range(5)]
    assert estimate(reps)[("system", "Jobs", "throughput-per-msec")].covers(0.5)


def test_flow_check_fires_from_the_engine():
    engine = _Engine(mm1_model(capacity=3), seed=5, horizon=2000.0, warmup=200.0)
    engine.run()
    jobs = engine.classes[0]
    assert jobs.created > 1000 and jobs.dropped > 0
    engine._finalize()  # balanced as the loop left it
    jobs.sunk -= 1
    with pytest.raises(KernelError, match="flow imbalance for class Jobs"):
        engine._finalize()


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
    r = run_replication(m, seed=8, horizon=2000.0, warmup=100.0).table()
    assert r[("Queue", "Jobs", "throughput-per-msec")] > 0.3
    assert r[("system", "Idle", "throughput-per-msec")] == 0.0
    assert r[("system", "Idle", "response-time-msec")] == 0.0


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

    plain = run_replication(build(False), seed=21, horizon=50000.0, warmup=5000.0).table()
    gated = run_replication(build(True), seed=21, horizon=50000.0, warmup=5000.0).table()
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
