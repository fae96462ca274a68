"""Antipattern transforms: neutrality, structure, parameter effects.

Neutrality is the load-bearing property: a transform at its neutral
parameter point must leave every metric of the untouched model
bit-identical under the same seed, otherwise sweeps starting at the
neutral point measure the plumbing instead of the antipattern.
"""

import pytest

from qnaps.antipatterns import (
    SPECS,
    AreWeThereYet,
    IsEverythingOk,
    TransformError,
    WhereWasI,
    apply,
)
from qnaps.kernel import run_replication
from qnaps.model import (BaselineParams, Deterministic, Exponential, SensorNetParams, build_baseline,
                         build_sensor_net)

from _helpers import job_class, station, table

HORIZON, WARMUP, SEED = 30000.0, 3000.0, 7


def _table(model, seed=SEED):
    return table(run_replication(model, seed=seed, horizon=HORIZON, warmup=WARMUP))


def _assert_neutral(base_model, transformed_model):
    base = _table(base_model)
    after = _table(transformed_model)
    missing = set(base) - set(after)
    assert not missing, f"transform dropped metrics: {sorted(missing)[:4]}"
    # float.hex compares bits, and a NaN (a cell with no completion) equals itself
    diffs = [k for k in base if base[k].hex() != after[k].hex()]
    assert not diffs, f"neutral transform changed {len(diffs)} metrics, e.g. {diffs[:4]}"


# ---------------------------------------------------------------------------
# neutrality (bit-identical at the neutral parameter point)


@pytest.mark.parametrize("spec_class", SPECS.values(), ids=lambda cls: cls.kind)
def test_defaults_are_the_neutral_point(spec_class):
    # a sensor net with none of the transforms' stations or classes, so
    # every kind applies to it
    base = build_sensor_net(SensorNetParams(include_polling=False, include_status=False))
    _assert_neutral(base, apply(base, spec_class()))


def test_awty_neutral_at_zero_poll_rate():
    base = build_sensor_net(SensorNetParams(include_polling=False))
    transformed = apply(base.clone(), AreWeThereYet(f_poll=0.0))
    assert transformed.station_names() == base.station_names()[:-1] + ["PollThink", "Sink"]
    assert [c.name for c in transformed.classes] == [c.name for c in base.classes] + ["Polling"]
    assert transformed.detection == {}  # no watch without actual polling
    _assert_neutral(base, transformed)


def test_ieok_neutral_at_infinite_check_period():
    base = build_sensor_net(SensorNetParams(include_status=False))
    transformed = apply(base.clone(), IsEverythingOk(check_period=float("inf")))
    assert station(transformed, "StatusThink").service["Status"].mean() == float("inf")
    _assert_neutral(base, transformed)


def test_wwi_neutral_at_zero_overhead_unbounded_buffer():
    base = build_sensor_net(SensorNetParams())
    transformed = apply(base.clone(), WhereWasI(overhead=0.0, buffer_capacity=None))
    assert transformed.station_names() == base.station_names()
    assert transformed.classes == base.classes
    _assert_neutral(base, transformed)


# ---------------------------------------------------------------------------
# structure


def test_awty_structure_and_detection_gate():
    base = build_sensor_net(SensorNetParams(include_polling=False))
    transformed = apply(base.clone(), AreWeThereYet(f_poll=0.02, poller_count=4, polling_demand=3.0))
    assert transformed.detection == {"Analysis": ("Polling", "Controller")}
    polling = job_class(transformed, "Polling")
    assert polling.kind == "closed" and polling.population == 4
    think = station(transformed, "PollThink")
    assert think.service["Polling"].mean() == pytest.approx(50.0)  # 1 / f_poll
    ctrl = station(transformed, "Controller")
    assert ctrl.service["Polling"].mean() == pytest.approx(3.0)
    assert transformed.antipattern_tags == ("are-we-there-yet",)


def test_ieok_structure_devices_and_exceptions():
    base = build_sensor_net(SensorNetParams(sensor_count=2, include_status=False))
    transformed = apply(
        base.clone(), IsEverythingOk(n_status=3, check_period=100.0, p_exc=0.25, exception_demand=2.0)
    )
    status = job_class(transformed, "Status")
    assert status.population == 3
    # checks walk the device chain and return to the think station
    assert dict(transformed.routing.rows["Status"]["Controller"]) == {"Sensor1": 1.0}
    assert dict(transformed.routing.rows["Status"]["Sensor1"]) == {"Sensor2": 1.0}
    assert dict(transformed.routing.rows["Status"]["Sensor2"]) == {"StatusThink": 1.0}
    # exception demand folds into the controller visit as a mixture
    ctrl_service = station(transformed, "Controller").service["Status"]
    assert ctrl_service.kind == "mixture"
    assert ctrl_service.mean() == pytest.approx(1.0 + 0.25 * 2.0)
    assert set(transformed.station_names()) - set(base.station_names()) == {"StatusThink"}
    # every checked device gets a Status service entry
    for device in ("Sensor1", "Sensor2"):
        assert station(transformed, device).service["Status"].mean() == pytest.approx(0.1)


def test_ieok_explicit_device_list():
    base = build_sensor_net(SensorNetParams(include_status=False))
    transformed = apply(base.clone(), IsEverythingOk(check_period=50.0, devices=("Actor1",)))
    assert "Status" in station(transformed, "Actor1").service
    assert "Status" not in station(transformed, "Sensor1").service


def test_ieok_refuses_a_device_named_twice_or_the_controller():
    # either would overwrite a row of the tour: the first Sensor1 visit,
    # or the controller's check demand and its route
    base = build_sensor_net(SensorNetParams(sensor_count=2, include_status=False))
    for devices, name in ((("Sensor1", "Sensor1", "Sensor2"), "Sensor1"), (("Controller",), "Controller")):
        with pytest.raises(TransformError, match=f"^the Status cycle visits station '{name}' twice$"):
            apply(base, IsEverythingOk(check_period=50.0, devices=devices))


def test_builder_cycles_are_the_transforms_cycles():
    # the sensor net's own Status and Polling cycles equal the ones IEOK
    # and AWTY add at matching settings; only AWTY watches a class. The
    # Status case leaves Polling out, whose think station the builder
    # places after StatusThink and a transform before it.
    for own, without, spec in (
        (SensorNetParams(include_polling=False, status_check_period=Deterministic(23.75),
                         status_controller_demand=Exponential(1.0),
                         status_device_demand=Exponential(1.0 / 0.17)),
         SensorNetParams(include_polling=False, include_status=False),
         IsEverythingOk(check_period=23.75, check_demand=1.0, device_demand=0.17)),
        (SensorNetParams(polling_population=5, polling_period=Deterministic(20.0),
                         polling_controller_demand=Exponential(1.0 / 4.0)),
         SensorNetParams(include_polling=False),
         AreWeThereYet(f_poll=0.05, polling_demand=4.0, poller_count=5)),
    ):
        built, transformed = build_sensor_net(own), apply(build_sensor_net(without), spec)
        assert transformed.stations == built.stations
        assert transformed.classes == built.classes
        assert transformed.routing == built.routing
        assert built.detection == {}
    assert transformed.detection == {"Analysis": ("Polling", "Controller")}


def test_wwi_structure_shift_and_cap():
    base = build_sensor_net(SensorNetParams())
    transformed = apply(base.clone(), WhereWasI(overhead=1.5, buffer_capacity=6))
    svc = station(transformed, "Controller").service["Analysis"]
    assert svc.kind == "shifted" and svc.offset == 1.5
    assert svc.mean() == pytest.approx(1.5 + 2.0)
    assert station(transformed, "Controller").capacity == 6
    assert station(base, "Controller").capacity is None  # the input is left as it was
    assert transformed.description.endswith("where-was-i: overhead=1.5 msec, capacity=6")


# ---------------------------------------------------------------------------
# rejections


def test_transforms_reject_double_application():
    base = build_sensor_net(SensorNetParams(include_polling=False))
    once = apply(base.clone(), AreWeThereYet(f_poll=0.01))
    with pytest.raises(TransformError, match="already carries"):
        apply(once, AreWeThereYet(f_poll=0.01))


def test_transforms_reject_name_collisions():
    base = build_sensor_net(SensorNetParams())  # already has PollThink/Polling
    with pytest.raises(TransformError, match="already exists"):
        apply(base.clone(), AreWeThereYet(f_poll=0.01))


def test_transform_parameter_validation():
    base = build_sensor_net(SensorNetParams(include_polling=False))
    with pytest.raises(TransformError, match="f_poll"):
        apply(base.clone(), AreWeThereYet(f_poll=-0.1))
    with pytest.raises(TransformError, match="exception_demand"):
        apply(
            build_sensor_net(SensorNetParams(include_status=False)),
            IsEverythingOk(p_exc=0.5, exception_demand=0.0),
        )
    with pytest.raises(TransformError, match="overhead"):
        apply(build_sensor_net(SensorNetParams()), WhereWasI(overhead=-1.0))
    for p_exc in (-0.25, 1.5):
        with pytest.raises(TransformError, match=rf"^p_exc must be in \[0, 1\] \(got {p_exc}\)$"):
            apply(build_sensor_net(SensorNetParams(include_status=False)),
                  IsEverythingOk(check_period=100.0, p_exc=p_exc, exception_demand=3.0))
    assert set(SPECS) == {"are-we-there-yet", "is-everything-ok", "where-was-i"}


def test_transforms_name_what_the_model_lacks():
    no_polling = SensorNetParams(include_polling=False)
    with pytest.raises(TransformError, match="^model has no station named 'Nowhere'$"):
        apply(build_sensor_net(SensorNetParams()), WhereWasI(controller="Nowhere"))
    with pytest.raises(TransformError, match="^model has no station named 'Nowhere'$"):
        apply(build_sensor_net(no_polling), AreWeThereYet(f_poll=0.01, controller="Nowhere"))
    with pytest.raises(TransformError, match="^model has no class named 'Nobody'$"):
        apply(build_sensor_net(no_polling), AreWeThereYet(f_poll=0.01, target_class="Nobody"))
    with pytest.raises(TransformError,
                       match="^station 'Controller' has no service entry for class 'Nobody'$"):
        apply(build_sensor_net(SensorNetParams()), WhereWasI(target_class="Nobody"))


def test_transforms_refuse_an_invalid_model():
    model = build_sensor_net(SensorNetParams(include_polling=False))
    model.classes.clear()
    with pytest.raises(TransformError, match="^target model is invalid: .*model has no job classes"):
        apply(model, WhereWasI())


def test_ieok_needs_devices():
    base = build_baseline(BaselineParams())
    with pytest.raises(TransformError, match="devices"):
        apply(base, IsEverythingOk(check_period=10.0))


def test_wwi_rejects_existing_finite_capacity():
    base = build_baseline(BaselineParams(controller_capacity=4))
    with pytest.raises(TransformError, match="finite capacity"):
        apply(base, WhereWasI(buffer_capacity=8, target_class="Analysis"))


# ---------------------------------------------------------------------------
# directional effects under common random numbers


def test_awty_polling_rate_loads_controller():
    base = build_sensor_net(SensorNetParams(include_polling=False))
    slow = apply(base, AreWeThereYet(f_poll=0.005))
    fast = apply(base, AreWeThereYet(f_poll=0.05))
    u_slow = _table(slow)[("Controller", "all", "utilization")]
    u_fast = _table(fast)[("Controller", "all", "utilization")]
    assert u_fast > u_slow


def test_ieok_population_loads_controller():
    base = build_sensor_net(SensorNetParams(include_status=False))
    one = apply(base, IsEverythingOk(n_status=1, check_period=200.0, check_demand=0.5))
    ten = apply(base, IsEverythingOk(n_status=10, check_period=200.0, check_demand=0.5))
    assert _table(ten)[("Controller", "all", "utilization")] > _table(one)[("Controller", "all", "utilization")]


def test_wwi_overhead_slows_analysis_and_small_buffers_drop():
    base = build_sensor_net(SensorNetParams())
    zero = apply(base, WhereWasI(overhead=0.0))
    heavy = apply(base, WhereWasI(overhead=3.0))
    r0 = _table(zero)[("system", "Analysis", "response-time-msec")]
    r3 = _table(heavy)[("system", "Analysis", "response-time-msec")]
    assert r3 > r0

    tight = apply(base, WhereWasI(overhead=3.0, buffer_capacity=2))
    drops = _table(tight)[("Controller", "all", "dropped-count")]
    assert drops > 0
