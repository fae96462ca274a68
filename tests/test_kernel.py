"""Simulation kernel: calendar ordering, seeded streams, window accounting.

The deterministic-distribution cases pin exact event orderings (tie
rules, window edges) with frozen numbers; the stochastic cases check
reproducibility and stream isolation rather than values.
"""

import pytest

from qnaps.kernel import (
    EVENT_KINDS,
    EXTERNAL_ARRIVAL,
    SERVICE_COMPLETION,
    TIMER,
    DeadlockError,
    EventCalendar,
    InvalidModelError,
    KernelError,
    RngSpace,
    RngStream,
    SchedulingInPastError,
    run_replication,
)
from qnaps.model import (
    DELAY,
    FCFS,
    SINK,
    SOURCE,
    Deterministic,
    Exponential,
    JobClass,
    NetworkModel,
    RoutingTable,
    Station,
)

from _helpers import mm1_model, open_trap_model


# ---------------------------------------------------------------------------
# event calendar


def test_calendar_orders_by_time():
    cal = EventCalendar()
    cal.schedule(3.0, SERVICE_COMPLETION)
    cal.schedule(1.0, EXTERNAL_ARRIVAL)
    cal.schedule(2.0, TIMER)
    times = [cal.pop_next().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]
    assert cal.clock == 3.0
    assert len(cal) == 0


def test_calendar_breaks_ties_by_schedule_order():
    cal = EventCalendar()
    first = cal.schedule(5.0, SERVICE_COMPLETION, job_id=1)
    second = cal.schedule(5.0, EXTERNAL_ARRIVAL, job_id=2)
    assert first.seq < second.seq
    assert cal.pop_next().job_id == 1
    assert cal.pop_next().job_id == 2


def test_calendar_rejects_past_and_nonfinite_times():
    cal = EventCalendar()
    cal.schedule(2.0, TIMER)
    cal.pop_next()
    with pytest.raises(SchedulingInPastError):
        cal.schedule(1.0, TIMER)
    with pytest.raises(SchedulingInPastError):
        cal.schedule(float("inf"), TIMER)
    with pytest.raises(SchedulingInPastError):
        cal.schedule(float("nan"), TIMER)


def test_calendar_empty_pop_and_peek():
    cal = EventCalendar()
    assert cal.peek_time() is None
    with pytest.raises(KernelError):
        cal.pop_next()
    cal.schedule(7.0, TIMER)
    assert cal.peek_time() == 7.0
    assert set(EVENT_KINDS) == {EXTERNAL_ARRIVAL, SERVICE_COMPLETION, TIMER}


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
    exp = s.exponential_sampler(2.0)
    before = s.draws
    vals = [exp() for _ in range(10)]
    assert s.draws - before == 10
    assert all(v >= 0 for v in vals)

    erl = RngStream(11, "st", "cl", "erl").erlang_sampler(3, 1.0)
    stream = RngStream(11, "st", "cl", "erl")
    erl = stream.erlang_sampler(3, 1.0)
    erl()
    assert stream.draws == 3  # one value consumes one draw per phase

    zero = RngStream(11, "st", "cl", "z").exponential_sampler(0.0)
    assert zero() == float("inf")


def test_model_samplers_draw_documented_amounts():
    stream = RngStream(5, "s", "c", "service")
    det = Deterministic(4.0).sampler(stream)
    assert det() == 4.0 and stream.draws == 0
    expo = Exponential(1.0).sampler(stream)
    expo()
    assert stream.draws == 1


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
    r = run_replication(_deterministic_queue(), seed=1, horizon=10.0, warmup=3.0)
    assert r.value("Queue", "Jobs", "throughput-per-msec") == pytest.approx(3 / 7, rel=1e-12)
    assert r.value("Queue", "Jobs", "response-time-msec") == pytest.approx(1.0, rel=1e-12)
    assert r.value("Queue", "Jobs", "utilization") == pytest.approx(3 / 7, rel=1e-12)
    assert r.value("Queue", "Jobs", "queue-length") == pytest.approx(3 / 7, rel=1e-12)
    assert r.value("system", "Jobs", "response-time-msec") == pytest.approx(1.0, rel=1e-12)
    assert r.value("system", "Jobs", "queue-length") == pytest.approx(3 / 7, rel=1e-12)


def test_arrival_beats_completion_on_time_tie():
    # service 2.0 makes arrivals collide with completions at t=4 and t=8;
    # capacity 1: the arrival processes first on the tie, still sees the
    # finishing job in service, and is dropped
    r = run_replication(
        _deterministic_queue(capacity=1, service=2.0), seed=1, horizon=10.0, warmup=0.0
    )
    assert r.value("Queue", "Jobs", "dropped-count") == 2
    assert r.value("Queue", "Jobs", "throughput-per-msec") == pytest.approx(2 / 10, rel=1e-12)
    assert r.value("Queue", "Jobs", "utilization") == pytest.approx(0.4, rel=1e-12)


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
    r = run_replication(m, seed=8, horizon=2000.0, warmup=100.0)
    assert r.value("Queue", "Jobs", "throughput-per-msec") > 0.3
    assert r.value("system", "Idle", "throughput-per-msec") == 0.0
    assert r.value("system", "Idle", "response-time-msec") == 0.0


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

    plain = run_replication(build(False), seed=21, horizon=50000.0, warmup=5000.0)
    gated = run_replication(build(True), seed=21, horizon=50000.0, warmup=5000.0)
    r_plain = plain.value("system", "Work", "response-time-msec")
    r_gated = gated.value("system", "Work", "response-time-msec")
    assert r_gated > r_plain  # waiting for the verdict costs time
    # station-level behavior is untouched by the bookkeeping
    assert gated.value("Queue", "Work", "response-time-msec") == pytest.approx(
        plain.value("Queue", "Work", "response-time-msec"), rel=1e-12
    )
    # Little's law on the gated class: N = X * R within simulation noise
    n = gated.value("system", "Work", "queue-length")
    x = gated.value("system", "Work", "throughput-per-msec")
    rr = gated.value("system", "Work", "response-time-msec")
    assert abs(n - x * rr) <= 0.02 * n
