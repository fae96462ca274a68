"""Model layer: distributions, validation diagnostics, builders."""

import math

import pytest

from qnaps.kernel import RngStream
from qnaps.model import (
    DELAY,
    FCFS,
    SINK,
    SOURCE,
    BaselineParams,
    Deterministic,
    Erlang,
    Exponential,
    JobClass,
    Mixture,
    NetworkModel,
    RoutingTable,
    SensorNetParams,
    Shifted,
    Station,
    Uniform,
    build_baseline,
    build_sensor_net,
    validate_model,
)

from _helpers import closed_cycle_model, mm1_model, open_trap_model


# ---------------------------------------------------------------------------
# distributions


def _stream(tag="d"):
    return RngStream(123, "st", "cl", tag)


def test_distribution_means():
    assert Exponential(0.25).mean() == 4.0
    assert Exponential.from_mean(4.0).rate == 0.25
    assert Deterministic(7.5).mean() == 7.5
    assert Erlang(4, 2.0).mean() == 2.0
    assert Uniform(1.0, 3.0).mean() == 2.0
    assert Shifted(1.5, Exponential(1.0)).mean() == 2.5
    assert Mixture(0.2, Deterministic(1.0), Deterministic(10.0)).mean() == pytest.approx(3.0)
    assert Mixture(0.0, Deterministic(1.0), Deterministic(math.inf)).mean() == 1.0


@pytest.mark.parametrize(
    "dist",
    [
        Exponential(0.5),
        Erlang(3, 1.5),
        Uniform(0.5, 2.5),
        Shifted(2.0, Exponential(1.0)),
        Mixture(0.3, Exponential(1.0), Deterministic(4.0)),
    ],
)
def test_sample_average_approaches_mean(dist):
    stream = _stream(dist.kind)
    sampler = dist.sampler(stream)
    n = 40000
    avg = math.fsum(sampler() for _ in range(n)) / n
    assert avg == pytest.approx(dist.mean(), rel=0.03)


def test_zero_offset_shift_is_bit_identical():
    base = Exponential(0.7)
    a = base.sampler(_stream("a"))
    b = Shifted(0.0, base).sampler(_stream("a"))
    assert [a() for _ in range(200)] == [b() for _ in range(200)]


def test_erlang_is_sum_of_phases():
    # phases=1 erlang must match the exponential with the same rate
    e1 = Erlang(1, 0.8).sampler(_stream("e"))
    ex = Exponential(0.8).sampler(_stream("e"))
    assert [e1() for _ in range(100)] == pytest.approx([ex() for _ in range(100)])


# ---------------------------------------------------------------------------
# validation diagnostics


def _diag_contains(model, text):
    diags = validate_model(model)
    assert any(text in d for d in diags), f"wanted {text!r} in {diags}"


def test_validate_accepts_known_good_models():
    assert validate_model(mm1_model()) == []
    assert validate_model(closed_cycle_model(population=3)) == []
    assert validate_model(build_baseline(BaselineParams())) == []
    assert validate_model(build_sensor_net(SensorNetParams())) == []


def test_validate_duplicate_and_reserved_names():
    m = mm1_model()
    m.stations.append(Station("Queue", kind=FCFS, service={"Jobs": Exponential(1.0)}))
    _diag_contains(m, "station names are not unique")

    m = mm1_model()
    m.classes.append(JobClass("all", "open", arrival=Exponential(0.1)))
    _diag_contains(m, "reserved for aggregate metrics")


def test_validate_station_fields():
    m = mm1_model()
    m.stations[1] = Station("Queue", kind="spa", service={"Jobs": Exponential(1.0)})
    _diag_contains(m, "unknown kind")

    m = mm1_model()
    m.stations[1] = Station("Queue", kind=FCFS, servers=0, service={"Jobs": Exponential(1.0)})
    _diag_contains(m, "servers must be >= 1")

    m = mm1_model()
    m.stations[1] = Station("Queue", kind=FCFS, capacity=0, service={"Jobs": Exponential(1.0)})
    _diag_contains(m, "capacity must be >= 1")


def test_validate_infinite_service_needs_delay_station():
    m = mm1_model()
    m.stations[1] = Station("Queue", kind=FCFS, service={"Jobs": Deterministic(float("inf"))})
    _diag_contains(m, "infinite")


def test_validate_class_requirements():
    m = mm1_model()
    m.classes[0] = JobClass("Jobs", "open", arrival=None)
    _diag_contains(m, "needs an arrival distribution")

    m = closed_cycle_model(population=2)
    m.classes[0] = JobClass("Jobs", "closed", population=0, reference="S1")
    _diag_contains(m, "population >= 1")

    m = closed_cycle_model(population=2)
    m.classes[0] = JobClass("Jobs", "closed", population=2, reference="Nowhere")
    _diag_contains(m, "existing reference station")


def test_validate_routing_rows():
    m = mm1_model()
    m.routing.rows["Jobs"]["Queue"] = (("Sink", 0.5),)
    _diag_contains(m, "sums to")

    m = mm1_model()
    m.routing.rows["Jobs"]["Queue"] = (("Mars", 1.0),)
    _diag_contains(m, "unknown station 'Mars'")

    m = mm1_model()
    del m.routing.rows["Jobs"]["Queue"]
    _diag_contains(m, "has no outgoing routing row")


def test_validate_reachable_station_needs_service():
    m = mm1_model()
    m.stations[1] = Station("Queue", kind=FCFS, service={})
    _diag_contains(m, "no service entry")


def test_validate_closed_class_cycle_rules():
    m = closed_cycle_model(population=1)
    m.stations.append(Station("Sink", kind=SINK))
    m.routing.rows["Jobs"]["S2"] = (("Sink", 1.0),)
    _diag_contains(m, "must not reach a sink")

    m = closed_cycle_model(population=1)
    m.routing.rows["Jobs"]["S2"] = (("S2", 1.0),)
    _diag_contains(m, "no route returns to reference station")

    m = closed_cycle_model(demands=(1.0, 1.0), population=1)
    for st in m.stations:
        st.service["Jobs"] = Deterministic(0.0)
    _diag_contains(m, "total service demand around the cycle is zero")


def test_validate_open_class_needs_a_path_to_a_sink():
    assert validate_model(open_trap_model()) == [
        "class Jobs: station Source has no path to a sink (open-class jobs reaching it never leave)",
        "class Jobs: station D has no path to a sink (open-class jobs reaching it never leave)",
    ]

    # an exit with probability 0 is no exit
    m = mm1_model()
    m.routing.rows["Jobs"]["Queue"] = (("Queue", 1.0), ("Sink", 0.0))
    _diag_contains(m, "station Queue has no path to a sink")

    # a feedback loop with a positive exit is fine, and so is a trap that
    # only a zero-probability edge leads to
    m = mm1_model()
    m.routing.rows["Jobs"]["Queue"] = (("Queue", 0.5), ("Sink", 0.5))
    assert validate_model(m) == []
    m = mm1_model()
    m.stations.insert(2, Station("Trap", kind=DELAY, service={"Jobs": Deterministic(0.0)}))
    m.routing.add("Jobs", "Queue", [("Trap", 0.0), ("Sink", 1.0)])
    m.routing.add("Jobs", "Trap", "Trap")
    assert validate_model(m) == []


def test_validate_arrivals_need_a_positive_mean():
    # zero gaps would keep the arrival list growing at t = 0 forever
    for dist in (Deterministic(0.0), Uniform(0.0, 0.0), Shifted(0.0, Deterministic(0.0)),
                 Mixture(0.0, Deterministic(0.0), Exponential(1.0))):
        m = mm1_model()
        m.classes[0] = JobClass("Jobs", "open", arrival=dist)
        assert validate_model(m) == [
            "class Jobs arrival: mean inter-arrival time must be > 0 (got 0.0)"
        ]
    # a zero part is fine when the whole has a positive mean, and rate 0
    # (mean inf) still means the class never arrives
    for dist in (Shifted(1.0, Deterministic(0.0)), Mixture(0.5, Deterministic(0.0), Exponential(1.0)),
                 Mixture(0.0, Deterministic(1.0), Exponential(0.0)), Uniform(0.0, 2.0), Exponential(0.0)):
        m = mm1_model()
        m.classes[0] = JobClass("Jobs", "open", arrival=dist)
        assert validate_model(m) == []


def test_validate_rejects_routing_into_a_source():
    # Src2 leads on to the queue, so the edge into it is the only fault
    for frm, targets in (("Source", "Src2"), ("Queue", [("Src2", 0.5), ("Sink", 0.5)])):
        m = mm1_model()
        m.stations.insert(1, Station("Src2", kind=SOURCE))
        m.routing.add("Jobs", frm, targets)
        m.routing.add("Jobs", "Src2", "Queue")
        assert validate_model(m) == [f"class Jobs: routing {frm} -> Src2 enters source station Src2"]


def test_validate_shared_reference_station():
    m = closed_cycle_model(population=1)
    m.classes.append(JobClass("Second", "closed", population=1, reference="S1"))
    m.stations[0].service["Second"] = Exponential(1.0)
    m.stations[1].service["Second"] = Exponential(1.0)
    m.routing.add("Second", "S1", "S2")
    m.routing.add("Second", "S2", "S1")
    _diag_contains(m, "more than one closed class uses it as reference")


# ---------------------------------------------------------------------------
# builders


def test_baseline_builder_shape():
    m = build_baseline(BaselineParams())
    assert m.station_names() == ["Source", "Controller", "Environment", "Sink"]
    assert [c.name for c in m.classes] == ["Analysis"]
    assert validate_model(m) == []


def test_baseline_without_environment():
    m = build_baseline(BaselineParams(environment_delay=None))
    assert "Environment" not in m.station_names()
    assert validate_model(m) == []


def test_sensor_net_default_shape():
    m = build_sensor_net(SensorNetParams())
    names = m.station_names()
    for expected in ("Source", "Controller", "Sensor1", "Actor1", "Environment",
                     "StatusThink", "PollThink", "Sink"):
        assert expected in names
    assert [c.name for c in m.classes] == ["Analysis", "Actors", "Status", "Polling"]
    status = m.job_class("Status")
    assert status.kind == "closed" and status.reference == "StatusThink"


def test_sensor_net_scales_and_validates():
    m = build_sensor_net(SensorNetParams(sensor_count=3, actor_count=2))
    names = m.station_names()
    assert {"Sensor1", "Sensor2", "Sensor3", "Actor1", "Actor2"} <= set(names)
    assert validate_model(m) == []
    # actors split across actor stations with probabilities summing to one
    targets = dict(m.routing.rows["Actors"]["Controller"])
    assert set(targets) == {"Actor1", "Actor2"}
    assert math.fsum(targets.values()) == pytest.approx(1.0, abs=1e-12)


def test_sensor_net_rejects_empty_counts():
    with pytest.raises(ValueError):
        build_sensor_net(SensorNetParams(sensor_count=0))
    with pytest.raises(ValueError):
        build_sensor_net(SensorNetParams(actor_count=0))


def test_sensor_net_optional_cycles_removed():
    m = build_sensor_net(SensorNetParams(include_status=False, include_polling=False))
    assert [c.name for c in m.classes] == ["Analysis", "Actors"]
    assert "StatusThink" not in m.station_names()
    assert "PollThink" not in m.station_names()
    assert validate_model(m) == []


def test_clone_is_deep_for_mutable_parts():
    m = build_sensor_net(SensorNetParams())
    c = m.clone()
    c.stations[1].service["Analysis"] = Deterministic(1.0)
    c.routing.rows["Analysis"]["Controller"] = (("Sink", 1.0),)
    c.detection["Analysis"] = ("Polling", "Controller")
    assert m.stations[1].service["Analysis"].kind == "exponential"
    assert m.routing.rows["Analysis"]["Controller"] != c.routing.rows["Analysis"]["Controller"]
    assert "Analysis" not in m.detection
