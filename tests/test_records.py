"""Record semantics, checked over every record class of the package.

Equality holds only between records of one type, frozen records refuse
assignment and deletion and hash alike when equal, the mutable ones are
unhashable, pickling round-trips, replace re-runs a class's checks,
default factories make a fresh object per instance and repr leaves
hidden fields out.

The checks need neither pytest, numpy nor PyYAML, so they also run as a
plain script on any supported Python:

    PYTHONPATH=src python tests/test_records.py
"""

import pickle
import sys

from qnaps import antipatterns, config, egraph, model, render, stats
from qnaps.config import ConfigError, parse_config
from qnaps.egraph import Basic, Branch, EgError, EgScenario, Loop, Sequence
from qnaps.model import Deterministic, Exponential, JobClass, Station
from qnaps.records import FrozenRecord, Record, fields, replace
from qnaps.stats import ConfidenceInterval, MetricSample

MUTABLE = {model.RoutingTable, model.NetworkModel, stats.ReplicationResult}


def _config_doc():
    return {
        "schema": "v1",
        "experiment": "records",
        "model": {"builder": "baseline"},
        "sweep": {"parameter": "model.params.arrival_rate", "values": [0.02, 0.05]},
        "run": {"replications": 3, "seed": 7, "horizon_msec": 500.0},
    }


def _ci():
    return ConfidenceInterval(1.5, 0.25, 0.99, 3)


def _route():
    return config._Route("Jobs", "Source", "Q")


# one instance of each record class; each call makes a new, equal one
EXAMPLES = {
    model.Exponential: lambda: Exponential(0.5),
    model.Deterministic: lambda: Deterministic(2.0),
    model.Erlang: lambda: model.Erlang(3, 1.5),
    model.Uniform: lambda: model.Uniform(1.0, 3.0),
    model.Shifted: lambda: model.Shifted(0.5, Exponential(0.5)),
    model.Mixture: lambda: model.Mixture(0.25, Exponential(0.5), Deterministic(4.0)),
    model.Station: lambda: Station("Q", servers=2, service={"Jobs": Exponential(1.0)}),
    model.JobClass: lambda: JobClass("Jobs", arrival=Exponential(0.5)),
    model.RoutingTable: lambda: model.RoutingTable({"Jobs": {"Source": (("Q", 1.0),)}}),
    model.NetworkModel: lambda: model.build_baseline(),
    model.BaselineParams: lambda: model.BaselineParams(arrival_rate=0.02),
    model.SensorNetParams: lambda: model.SensorNetParams(sensor_count=2),
    config._Route: _route,
    config._InlineModel: lambda: config._InlineModel((Station("Q"),), (JobClass("Jobs"),), (_route(),)),
    config.SeriesSpec: lambda: config.SeriesSpec("Q", "Jobs", "utilization"),
    config.PlotSpec: lambda: config.PlotSpec((config.SeriesSpec("Q", "Jobs", "utilization"),), x_scale="log"),
    config._Arm: lambda: config._Arm(1.0, Basic({"cpu": 1.0})),
    config.ValidationSpec: lambda: config.ValidationSpec(
        (EgScenario("Jobs", Basic({"cpu": 1.0}), 0.1),), {"Jobs": "Q"}),
    config._Run: lambda: config._Run(3, 7),
    config._Sweep: lambda: config._Sweep("model.params.arrival_rate", (0.02, 0.05)),
    config._Document: lambda: config._Document("v1", "x", model.BaselineParams(), config._Run(3, 7)),
    config.ExperimentConfig: lambda: parse_config(_config_doc()),
    egraph.Basic: lambda: Basic({"cpu": 1.0}),
    egraph.Sequence: lambda: Sequence(Basic({"cpu": 1.0}), Basic()),
    egraph.Branch: lambda: Branch((0.5, Basic()), (0.5, Basic({"cpu": 2.0}))),
    egraph.Loop: lambda: Loop(2.0, Basic({"cpu": 1.0})),
    egraph.EgScenario: lambda: EgScenario("Jobs", Loop(2.0, Basic({"cpu": 1.0})), 0.1),
    egraph.ValidationRow: lambda: egraph.ValidationRow("Jobs", 10.0, _ci(), 0.5, 2.0, _ci(), 1.25),
    antipatterns.AreWeThereYet: lambda: antipatterns.AreWeThereYet(f_poll=0.01),
    antipatterns.IsEverythingOk: lambda: antipatterns.IsEverythingOk(devices=("Sensor1",)),
    antipatterns.WhereWasI: lambda: antipatterns.WhereWasI(overhead=0.5, buffer_capacity=8),
    stats.MetricSample: lambda: MetricSample("Q", "Jobs", "utilization", 0.5),
    stats.ReplicationResult: lambda: stats.ReplicationResult(
        1, 500.0, 50.0, [MetricSample("Q", "Jobs", "utilization", 0.5)]),
    stats.ConfidenceInterval: _ci,
    render.PlotSeries: lambda: render.PlotSeries("a", (1.0, 2.0), (3.0, 4.0), (0.1, 0.2)),
}


def _record_classes():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub is not FrozenRecord and sub.__module__.startswith("qnaps."):
                found.add(sub)
    return found


def _raises(exc, call, match=""):
    try:
        call()
    except exc as caught:
        assert match in str(caught), f"{caught!r} does not say {match!r}"
        return
    raise AssertionError(f"{call} did not raise {exc.__name__}")


def _values(record, shown=False):
    return tuple(getattr(record, f.name) for f in fields(record) if f.shown or not shown)


def test_every_record_class_has_an_example():
    assert _record_classes() == set(EXAMPLES)
    assert len(EXAMPLES) == 35


def test_equality_is_by_type_and_field_values():
    assert Exponential(1.0) != Deterministic(1.0)
    assert Exponential(1.0) != (1.0,)
    for cls, make in EXAMPLES.items():
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b, cls.__name__
        assert a != _values(a) and a != object(), cls.__name__
    assert Station("Q") != Station("Q", servers=2)


def test_frozen_records_refuse_assignment_and_deletion():
    for cls, make in EXAMPLES.items():
        record = make()
        if cls in MUTABLE:
            assert not issubclass(cls, FrozenRecord)
            continue
        for f in fields(record):
            before = getattr(record, f.name)
            _raises(AttributeError, lambda: setattr(record, f.name, None), "cannot assign")
            _raises(AttributeError, lambda: delattr(record, f.name), "cannot delete")
            assert getattr(record, f.name) is before
        _raises(AttributeError, lambda: setattr(record, "extra", 1))
    net = model.build_baseline()
    net.name = "renamed"
    assert net.name == "renamed"


def test_equal_frozen_records_hash_alike_and_mutable_ones_are_unhashable():
    for cls, make in EXAMPLES.items():
        if cls in MUTABLE:
            assert cls.__hash__ is None
            _raises(TypeError, lambda: hash(make()), "unhashable")
            continue
        try:
            hash(_values(make(), shown=True))
        except TypeError:  # a dict in a field makes the record as unhashable
            _raises(TypeError, lambda: hash(make()), "unhashable")
            continue
        assert hash(make()) == hash(make()), cls.__name__
    assert len({Exponential(0.5), Exponential(0.5), Deterministic(0.5)}) == 2


def test_pickle_round_trip_gives_an_equal_record():
    for cls, make in EXAMPLES.items():
        record = make()
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is cls and back == record, cls.__name__
    cfg = parse_config(_config_doc())
    back = pickle.loads(pickle.dumps(cfg))
    assert [p.value for p in back.points] == [0.02, 0.05]
    assert [p.model for p in back.points] == [p.model for p in cfg.points]


def test_replace_runs_the_checks_again():
    assert replace(Loop(1.0, Basic()), count=2.0) == Loop(2.0, Basic())
    _raises(EgError, lambda: replace(Loop(1.0, Basic()), count=-1.0), "loop count")
    _raises(EgError, lambda: Loop(-1.0, Basic()), "loop count")
    cfg = parse_config(_config_doc())
    assert cfg.with_overrides(replications=4).points is cfg.points
    _raises(ConfigError, lambda: cfg.with_overrides(replications=1), "run.replications")
    _raises(TypeError, lambda: replace(Exponential(1.0), scale=2.0), "scale")
    series = replace(config.SeriesSpec("Q", "Jobs", "utilization", "U"), label=None)
    assert series.label == "utilization"  # __post_init__ filled it in again


def test_constructor_arguments():
    assert Station("Q", "delay") == Station(name="Q", kind="delay")
    assert Sequence(Basic(), Basic()).children == (Basic(), Basic())
    assert Branch((1.0, Basic())).arms == ((1.0, Basic()),)
    _raises(TypeError, lambda: Exponential(), "missing required argument 'rate'")
    _raises(TypeError, lambda: Exponential(1.0, 2.0), "takes 1 arguments")
    _raises(TypeError, lambda: Exponential(1.0, rate=2.0), "'rate'")
    _raises(TypeError, lambda: Station("Q", colour="red"), "'colour'")


def test_default_factories_are_not_shared():
    assert Station("a").service is not Station("b").service
    assert Basic().demand is not Basic().demand
    assert model.RoutingTable().rows is not model.RoutingTable().rows
    assert stats.ReplicationResult(1, 1.0, 0.0).samples is not stats.ReplicationResult(1, 1.0, 0.0).samples
    nets = [model.NetworkModel("n", [], [], model.RoutingTable()) for _ in range(2)]
    assert nets[0].detection == {} and nets[0].detection is not nets[1].detection


def test_repr_reads_fields_in_order_and_leaves_hidden_fields_out():
    assert repr(Exponential(0.5)) == "Exponential(rate=0.5)"
    assert repr(Sequence(Basic({"cpu": 1.0}))) == "Sequence(children=(Basic(demand={'cpu': 1.0}),))"
    assert repr(Station("Q")) == "Station(name='Q', kind='fcfs-queue', servers=1, capacity=None, service={})"
    cfg = parse_config(_config_doc())
    assert repr(cfg).startswith("ExperimentConfig(experiment='records', model=BaselineParams(")
    assert "points" not in repr(cfg) and repr(cfg).endswith("config_sha256='')")
    assert [f.name for f in fields(config.ExperimentConfig) if not f.shown] == ["points"]
    # a changed point list is neither seen by equality nor by hashing
    other = replace(cfg, points=cfg.points[:1])
    assert other == cfg and hash(other) == hash(cfg)


def test_field_keys_defaults_and_required():
    by_name = {f.name: f for f in fields(config._Run)}
    assert [f.name for f in fields(config._Run)] == ["replications", "seed", "horizon", "warmup"]
    assert by_name["horizon"].key == "horizon_msec" and by_name["horizon"].default == 1e5
    assert by_name["seed"].key == "seed" and by_name["seed"].required
    assert not by_name["warmup"].required and by_name["warmup"].type == "float"
    assert fields(Loop)[1].key == "body" and fields(Loop(1.0, Basic())) == fields(Loop)
    assert config._Run.horizon == 1e5 and not hasattr(config._Run, "seed")


if __name__ == "__main__":
    checks = [check for name, check in sorted(globals().items()) if name.startswith("test_")]
    for check in checks:
        check()
    print(f"{len(checks)} record checks passed on Python {sys.version.split()[0]}")
