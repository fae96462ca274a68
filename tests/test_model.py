"""Model layer: distributions, validation diagnostics, builders."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnaps.antipatterns import AreWeThereYet, IsEverythingOk, TransformError, WhereWasI, apply
from qnaps.kernel import InvalidModelError, _build, _loop, _spec, run_replication
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
from qnaps.records import replace

from _helpers import closed_cycle_model, closed_trap_model, job_class, mm1_model, open_trap_model


# ---------------------------------------------------------------------------
# distributions


def _stream(tag="d"):
    return f"123|st|cl|{tag}"


def _values(dist, name, n):
    """The first n values of dist's sampler on the stream called name."""
    return _loop.fill(_spec(dist, name), 0, n).tolist()


def test_distribution_means():
    assert Exponential(0.25).mean() == 4.0
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
    n = 40000
    avg = math.fsum(_values(dist, _stream(dist.kind), n)) / n
    assert avg == pytest.approx(dist.mean(), rel=0.03)


def test_zero_offset_shift_is_bit_identical():
    base = Exponential(0.7)
    assert _values(base, _stream("a"), 200) == _values(Shifted(0.0, base), _stream("a"), 200)
    # as an open class's arrival gaps too, and so in a whole replication
    plain, shifted = mm1_model(), mm1_model()
    shifted.classes[0] = replace(plain.classes[0], arrival=Shifted(0.0, Exponential(0.8)))
    tables = [_build(m, seed=11, horizon=2000.0, warmup=200.0) for m in (plain, shifted)]
    gaps = [_loop.fill(t.specs[t.sampler[0]], 0, 4096).tolist() for t in tables]  # cell Source, Jobs
    assert gaps[0] == gaps[1]
    runs = [run_replication(m, seed=11, horizon=2000.0, warmup=200.0).samples for m in (plain, shifted)]
    assert [(x.key, x.value.hex()) for x in runs[0]] == [(x.key, x.value.hex()) for x in runs[1]]


def test_erlang_is_sum_of_phases():
    # phases=1 erlang must match the exponential with the same rate
    e1 = _values(Erlang(1, 0.8), _stream("e"), 100)
    assert e1 == pytest.approx(_values(Exponential(0.8), _stream("e"), 100))


# ---------------------------------------------------------------------------
# validation diagnostics

NAN = math.nan
_SERVICE = "station Controller, class Analysis"


def _baseline(**params):
    return build_baseline(BaselineParams(**params))


def _nan_route():
    model = mm1_model()
    model.routing.add("Jobs", "Queue", [("Sink", NAN)])
    return model


# parameter -> (model, or (base model, transform spec)), the failure it gets
NAN_PARAMETERS = {
    "Exponential.rate": (_baseline(controller_service=Exponential(NAN)),
                         f"{_SERVICE}: exponential rate must be > 0 (got nan)"),
    "arrival Exponential.rate": (_baseline(arrival_rate=NAN),
                                 "class Analysis arrival: exponential rate must be > 0 (got nan)"),
    "Deterministic.value": (_baseline(environment_delay=Deterministic(NAN)),
                            "station Environment, class Analysis: deterministic value must be >= 0"),
    "Erlang.rate": (_baseline(controller_service=Erlang(2, NAN)),
                    f"{_SERVICE}: erlang rate must be > 0"),
    "Uniform.low": (_baseline(controller_service=Uniform(NAN, 1.0)),
                    f"{_SERVICE}: uniform bounds need 0 <= low <= high"),
    "Uniform.high": (_baseline(controller_service=Uniform(0.5, NAN)),
                     f"{_SERVICE}: uniform bounds need 0 <= low <= high"),
    "Shifted.offset": (_baseline(controller_service=Shifted(NAN, Exponential(1.0))),
                       f"{_SERVICE}: shift offset must be >= 0"),
    "routing probability": (_nan_route(),
                            "class Jobs: routing Queue -> Sink probability nan outside [0, 1]"),
    "routing row sum": (_nan_route(), "class Jobs: routing row Queue sums to nan, not 1"),
    "f_poll": ((SensorNetParams(include_polling=False), AreWeThereYet(f_poll=NAN)),
               "f_poll must be >= 0 (got nan)"),
    "polling_demand": ((SensorNetParams(include_polling=False),
                        AreWeThereYet(f_poll=0.01, polling_demand=NAN)),
                       "polling_demand must be > 0 (got nan)"),
    "check_period": ((SensorNetParams(include_status=False),
                      IsEverythingOk(check_period=NAN)),
                     "check_period must be > 0 (got nan)"),
    "check_demand": ((SensorNetParams(include_status=False),
                      IsEverythingOk(check_period=100.0, check_demand=NAN)),
                     "check_demand must be > 0 (got nan)"),
    "device_demand": ((SensorNetParams(include_status=False),
                       IsEverythingOk(check_period=100.0, device_demand=NAN)),
                      "device_demand must be > 0 (got nan)"),
    "exception_demand": ((SensorNetParams(include_status=False),
                          IsEverythingOk(check_period=100.0, p_exc=0.5, exception_demand=NAN)),
                         "exception_demand must be > 0 when p_exc > 0"),
    "overhead": ((SensorNetParams(), WhereWasI(overhead=NAN)),
                 "overhead must be >= 0 (got nan)"),
    "buffer_capacity": ((SensorNetParams(), WhereWasI(buffer_capacity=NAN)),
                        "buffer_capacity must be a positive integer (got nan)"),
}


@pytest.mark.parametrize("parameter", sorted(NAN_PARAMETERS))
def test_nan_parameters_are_rejected(parameter):
    setup, message = NAN_PARAMETERS[parameter]
    if isinstance(setup, NetworkModel):
        assert message in validate_model(setup)
    else:
        params, spec = setup
        with pytest.raises(TransformError) as err:
            apply(build_sensor_net(params), spec)
        assert str(err.value) == message


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

    m = mm1_model()
    m.classes.append(JobClass("Jobs", "open", arrival=Exponential(0.1)))
    _diag_contains(m, "class names are not unique")

    m = mm1_model()
    m.stations.insert(1, Station("system", kind=DELAY, service={"Jobs": Exponential(1.0)}))
    _diag_contains(m, "station name 'system' is reserved for system-level metrics")


@pytest.mark.parametrize("p", [-0.1, 1.5, NAN])
def test_validate_mixture_probability_outside_the_unit_interval(p):
    service = mm1_model()
    service.stations[1] = replace(service.stations[1],
                                  service={"Jobs": Mixture(p, Exponential(1.0), Exponential(2.0))})
    assert validate_model(service) == [
        "station Queue, class Jobs: mixture probability must be in [0, 1]"]
    arrival = mm1_model()
    arrival.classes[0] = replace(arrival.classes[0],
                                 arrival=Mixture(p, Exponential(1.0), Exponential(2.0)))
    assert validate_model(arrival) == ["class Jobs arrival: mixture probability must be in [0, 1]"]


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


# distribution with an infinite part -> (its diagnostic, also rejected at a delay station)
INFINITE_PARTS = {
    "Uniform(0.5, inf)": (Uniform(0.5, math.inf), "uniform bounds must be finite", True),
    "Uniform(0, inf)": (Uniform(0.0, math.inf), "uniform bounds must be finite", True),
    "Shifted(inf, Exponential(1))": (Shifted(math.inf, Exponential(1.0)),
                                     "infinite shift offset is only allowed at delay stations", False),
    "Mixture(.., Uniform(0, inf))": (Mixture(0.1, Exponential(1.0), Uniform(0.0, math.inf)),
                                     "uniform bounds must be finite", True),
}


@pytest.mark.parametrize("name", sorted(INFINITE_PARTS))
def test_validate_rejects_infinite_uniform_bounds_and_shift_offsets(name):
    # a uniform with high = inf yields low + inf * 0 = nan at u = 0, so it
    # is refused everywhere; an infinite offset follows the deterministic rule
    dist, message, at_delays = INFINITE_PARTS[name]
    fcfs = mm1_model()
    fcfs.stations[1] = replace(fcfs.stations[1], service={"Jobs": dist})
    assert validate_model(fcfs) == [f"station Queue, class Jobs: {message}"]
    delay = mm1_model()
    delay.stations[1] = replace(delay.stations[1], kind=DELAY, service={"Jobs": dist})
    assert validate_model(delay) == ([f"station Queue, class Jobs: {message}"] if at_delays else [])
    arrival = mm1_model()
    arrival.classes[0] = replace(arrival.classes[0], arrival=dist)
    assert validate_model(arrival) == [f"class Jobs arrival: {message}"]


def test_validate_class_requirements():
    m = mm1_model()
    m.classes.clear()
    m.routing = RoutingTable()
    m.stations[1] = Station("Queue", kind=FCFS)
    assert validate_model(m) == ["model has no job classes"]

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


_FAN_CHILD = """
import json
from qnaps.model import FCFS, SOURCE, Exponential, JobClass, NetworkModel, RoutingTable, Station, validate_model
queues = [f"Q{i}" for i in range(6)]
routing = RoutingTable()
routing.add("Jobs", "Source", [(q, 1 / 6) for q in queues])
model = NetworkModel(name="fan", stations=[Station("Source", kind=SOURCE)] + [Station(q, kind=FCFS) for q in queues],
                     classes=[JobClass("Jobs", "open", arrival=Exponential(1.0))], routing=routing)
print(json.dumps(validate_model(model)))
"""


@pytest.mark.parametrize("hash_seed", ["1", "2", "3"])
def test_validate_lists_reached_stations_in_station_order(hash_seed):
    # the stations a class reaches are a set; its order follows the hash
    # seed, and the diagnostics must not
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", _FAN_CHILD], capture_output=True, text=True,
                          env=env, check=True)
    reached = [(f"station Q{i}: reachable by class Jobs but has no service entry for it",
                f"class Jobs: station Q{i} has no outgoing routing row") for i in range(6)]
    way_out = [f"class Jobs: station {st} has no path to a sink (open-class jobs reaching it never leave)"
               for st in ("Source", *(f"Q{i}" for i in range(6)))]
    assert json.loads(done.stdout) == [d for pair in reached for d in pair] + way_out


def test_validate_closed_class_cycle_rules():
    m = closed_cycle_model(population=1)
    m.stations.append(Station("Sink", kind=SINK))
    m.routing.rows["Jobs"]["S2"] = (("Sink", 1.0),)
    _diag_contains(m, "must not reach a sink")

    m = closed_cycle_model(population=1)
    m.routing.rows["Jobs"]["S2"] = (("S2", 1.0),)
    _diag_contains(m, "class Jobs: station S2 has no path back to reference station S1")

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


@pytest.mark.parametrize("delay", [0.0, 1.0])
def test_validate_closed_class_needs_a_path_back_to_its_reference(delay):
    # at delay 0 the trapped jobs would spin at one instant forever; at
    # delay 1.0 the run would end with both trapped and report C's system
    # response time as 0.0
    assert validate_model(closed_trap_model(delay)) == [
        f"class C: station {st} has no path back to reference station Ref "
        "(closed-class jobs reaching it never return)"
        for st in ("B", "X")
    ]

    # an edge back with probability 0 is no way back; a positive one is
    m = closed_trap_model(delay)
    m.routing.add("C", "X", [("B", 1.0), ("Ref", 0.0)])
    assert len(validate_model(m)) == 2
    m.routing.add("C", "X", [("B", 0.5), ("Ref", 0.5)])
    assert validate_model(m) == []


def test_validation_searches_each_class_a_fixed_number_of_times(monkeypatch):
    # reach, the live stations and the way out are one search each per
    # class, so validating the largest sensor net (8,198 stations) costs
    # in proportion to its size, not to its square
    import qnaps.model as qm

    net = build_sensor_net(SensorNetParams(sensor_count=4096, actor_count=4096))
    searches = []
    search = qm._reachable
    monkeypatch.setattr(qm, "_reachable", lambda *args, **kw: searches.append(args) or search(*args, **kw))
    assert validate_model(net) == []
    assert 0 < len(searches) <= 3 * len(net.classes)


def _queue_with(**fields):
    model = mm1_model()
    model.stations[1] = replace(model.stations[1], **fields)
    return model


# count -> a model where it is not an integer, the one diagnostic it gets
NON_INTEGRAL = {
    "servers": (_queue_with(servers=1.5), "station Queue: servers must be an integer (got 1.5)"),
    "capacity": (_queue_with(capacity=2.5), "station Queue: capacity must be an integer (got 2.5)"),
    "population": (closed_cycle_model(population=1.5),
                   "class Jobs: population must be an integer (got 1.5)"),
    "phases": (_queue_with(service={"Jobs": Erlang(2.5, 3.0)}),
               "station Queue, class Jobs: erlang phases must be an integer (got 2.5)"),
}


@pytest.mark.parametrize("count", NON_INTEGRAL)
def test_validate_rejects_non_integral_counts(count):
    # the engine would run ceil(servers) servers yet divide by servers, or
    # fail mid-run on a fractional population or phase count
    model, diagnostic = NON_INTEGRAL[count]
    assert validate_model(model) == [diagnostic]


def test_validate_rejects_more_phases_than_a_c_int_holds():
    # the compiled loop reads a phase count as a C int, and makes a refill of
    # 4,096 values from 4,096 * phases words with no signal check: 2**31
    # phases failed every replication, and 2**31 - 1 made one refill take hours
    for phases in (2**31, 2**14 + 1):
        big = Erlang(phases, 1.0)
        message = f"erlang phases must be <= 16384 (got {phases})"
        assert validate_model(_queue_with(service={"Jobs": big})) == [f"station Queue, class Jobs: {message}"]
        m = mm1_model()
        m.classes[0] = JobClass("Jobs", "open", arrival=big)
        assert validate_model(m) == [f"class Jobs arrival: {message}"]
    assert validate_model(_queue_with(service={"Jobs": Erlang(2**14, 1.0)})) == []


def test_validate_rejects_counts_the_kernel_cannot_hold():
    # the loop's tables hold servers and capacities as float64 and its jobs
    # in an int-indexed array it doubles: 10**400 of any of the three passed
    # validation, then every replication raised OverflowError
    for count, ok in ((10**400, False), (2**53 + 1, False), (2**53, True)):
        for field in ("servers", "capacity"):
            diags = validate_model(_queue_with(**{field: count}))
            assert diags == ([] if ok else [f"station Queue: {field} must be >= 1 and <= 9007199254740992"])
    for population, ok in ((10**400, False), (2**24 + 1, False), (2**24, True)):
        m = closed_cycle_model(population=population)
        assert validate_model(m) == ([] if ok else [
            "class Jobs: closed class needs population >= 1 and <= 16777216"])


def test_validate_bounds_the_sum_of_closed_populations():
    # the loop places every closed job at t = 0 with no signal check, so
    # the bound holds for all classes together: 2**30 jobs in each of two
    # classes would ask for about 64 GB before the first event
    for polling, ok in ((2**24 - 2, True), (2**24 - 1, False)):
        m = build_sensor_net(SensorNetParams(status_population=2, polling_population=polling))
        assert validate_model(m) == ([] if ok else [
            "classes Status, Polling: closed populations total 16777217, above 16777216"])


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


def test_validate_detection_entries():
    # each entry names an existing watched class, an existing poller class
    # and an fcfs station that serves the poller: only a poller's fcfs
    # completion there releases the watched jobs
    m = apply(build_sensor_net(SensorNetParams(include_polling=False)), AreWeThereYet(f_poll=0.05))
    assert validate_model(m) == []
    where = "detection of class Analysis"
    for entry, diag in (
        (("Nope", "Controller"), f"{where}: unknown poller class 'Nope'"),
        (("Polling", "Nowhere"), f"{where}: unknown station 'Nowhere'"),
        (("Polling", "PollThink"), f"{where}: station PollThink is not an fcfs station"),
        (("Polling", "Sensor1"), f"{where}: station Sensor1 does not serve poller class Polling"),
    ):
        bad = m.clone()
        bad.detection["Analysis"] = entry
        assert validate_model(bad) == [diag]
    bad = m.clone()
    bad.detection["Nobody"] = ("Polling", "Controller")
    assert validate_model(bad) == ["detection of class Nobody: no such class"]


def test_replication_refuses_an_unknown_poller_by_name():
    m = apply(build_sensor_net(SensorNetParams(include_polling=False)), AreWeThereYet(f_poll=0.05))
    m.detection["Analysis"] = ("Nope", "Controller")
    with pytest.raises(InvalidModelError, match="^invalid model: detection of class Analysis: "
                                                "unknown poller class 'Nope'$"):
        run_replication(m, seed=1, horizon=100.0)


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
    status = job_class(m, "Status")
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
