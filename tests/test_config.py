"""Config schema v1: parsing, distribution encoding, error reporting."""

import copy
import json
import re
from pathlib import Path

import pytest
import yaml

import qnaps
from qnaps.antipatterns import SPECS, AreWeThereYet
from qnaps.config import (
    _FIELD_PARSERS,
    ConfigError,
    PlotSpec,
    SeriesSpec,
    ValidationSpec,
    _Arm,
    _Document,
    _InlineModel,
    _Route,
    _Run,
    _Sweep,
    apply_sweep_value,
    build_model_from_config,
    load_config,
    parse_antipattern,
    parse_config,
    parse_distribution,
    parse_model,
)
from qnaps.egraph import EgScenario, Loop
from qnaps.model import BaselineParams, Distribution, JobClass, SensorNetParams, Station, validate_model
from qnaps.records import fields

from _helpers import station

CONFIG_DIR = Path(qnaps.__file__).parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.yaml"))
PIN = Path(__file__).parent / "data" / "config_pin.json"


def _minimal(**overrides):
    doc = {
        "schema": "v1",
        "experiment": "t",
        "model": {"builder": "baseline"},
        "run": {"replications": 2, "seed": 1, "horizon_msec": 100.0},
    }
    doc.update(overrides)
    return doc


def test_all_shipped_configs_parse_and_build():
    names = {p.stem for p in SHIPPED}
    assert names == {
        "baseline",
        "awty_sweep",
        "ieok_sweep",
        "wwi",
        "wwi_single",
        "table6_validation",
    }
    for path in SHIPPED:
        cfg = load_config(path)
        assert cfg.experiment == path.stem
        assert len(cfg.config_sha256) == 64
        net = build_model_from_config(cfg.model, cfg.antipattern)
        assert validate_model(net) == []


def pinned_parse(path) -> dict:
    """repr of the parsed config (plot and validation specs included) and
    of the model built at each of its sweep points."""
    cfg = load_config(path)
    if cfg.sweep_parameter:
        sections = [apply_sweep_value(cfg, v) for v in cfg.sweep_values]
    else:
        sections = [(cfg.model, cfg.antipattern)]
    return {"config": repr(cfg), "models": [repr(build_model_from_config(*s)) for s in sections]}


def _without_description(pinned: str) -> str:
    """A pinned model's repr less its description, a note that no run read
    and that models no longer carry; each pinned model holds exactly one."""
    cut, n = re.subn(r", description='[^']*'", "", pinned)
    assert n == 1, pinned
    return cut


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_configs_parse_to_the_pin(path):
    # tests/data/config_pin.json was frozen from the hand-written section
    # parsers; the typed parser must give every shipped config the same
    # ExperimentConfig and the same model at every sweep point. The config
    # strings were re-frozen once, when model and antipattern were first
    # parsed to parameter sets; every other field and every model held.
    frozen = json.loads(PIN.read_text(encoding="utf-8"))[path.stem]
    frozen["models"] = [_without_description(m) for m in frozen["models"]]
    assert pinned_parse(path) == frozen


INLINE_PINNED = {
    "open": {
        "builder": "inline",
        "name": "two-step",
        "stations": [
            {"name": "Source", "kind": "source"},
            {"name": "Q1", "kind": "fcfs", "servers": 2,
             "service": {"Jobs": {"kind": "exponential", "mean_msec": 1.0}}},
            {"name": "Q2", "kind": "fcfs-queue", "capacity": 3,
             "service": {"Jobs": {"kind": "erlang", "phases": 2, "mean_msec": 0.5}}},
            {"name": "Sink", "kind": "sink"},
        ],
        "classes": [{"name": "Jobs", "arrival": {"kind": "exponential", "rate_per_msec": 0.4}}],
        "routing": [
            {"class": "Jobs", "from": "Source", "to": "Q1"},
            {"class": "Jobs", "from": "Q1", "to": {"Q2": 0.5, "Sink": 0.5}},
            {"class": "Jobs", "from": "Q2", "to": "Sink"},
        ],
    },
    "closed": {
        "builder": "inline",
        "stations": [
            {"name": "Think", "kind": "delay", "capacity": None,
             "service": {"Loop": {"kind": "deterministic", "value_msec": 5.0}}},
            {"name": "Work", "capacity": float("inf"),
             "service": {"Loop": {"kind": "uniform", "low_msec": 1.0, "high_msec": 2.0}}},
        ],
        "classes": [{"name": "Loop", "kind": "closed", "population": 3, "reference": "Think"}],
        "routing": [
            {"class": "Loop", "from": "Think", "to": "Work"},
            {"class": "Loop", "from": "Work", "to": {"Think": 1.0}},
        ],
    },
}


@pytest.mark.parametrize("case", sorted(INLINE_PINNED))
def test_inline_models_build_to_the_pin(case):
    frozen = _without_description(json.loads(PIN.read_text(encoding="utf-8"))["inline"][case])
    assert repr(build_model_from_config(parse_model(INLINE_PINNED[case]), None)) == frozen


def test_distribution_encodings():
    assert parse_distribution({"kind": "exponential", "rate_per_msec": 0.5}, "x").mean() == 2.0
    assert parse_distribution({"kind": "exponential", "mean_msec": 2.0}, "x").rate == 0.5
    assert parse_distribution({"kind": "deterministic", "value_msec": 3.0}, "x").value == 3.0
    node = {"kind": "erlang", "phases": 4, "mean_msec": 2.0}
    erl = parse_distribution(node, "x")
    assert erl.phases == 4 and erl.mean() == pytest.approx(2.0)
    assert node == {"kind": "erlang", "phases": 4, "mean_msec": 2.0}  # a sweep value is written as given
    uni = parse_distribution({"kind": "uniform", "low_msec": 1.0, "high_msec": 2.0}, "x")
    assert (uni.low, uni.high) == (1.0, 2.0)
    sh = parse_distribution(
        {"kind": "shifted", "offset_msec": 1.0, "base": {"kind": "exponential", "mean_msec": 1.0}}, "x"
    )
    assert sh.mean() == pytest.approx(2.0)
    mix = parse_distribution(
        {
            "kind": "mixture",
            "p_extra": 0.25,
            "base": {"kind": "deterministic", "value_msec": 1.0},
            "extra": {"kind": "deterministic", "value_msec": 2.0},
        },
        "x",
    )
    assert mix.mean() == pytest.approx(1.5)
    # numeric strings coerce (the YAML float grammar rejects 1e6 spellings)
    assert parse_distribution({"kind": "deterministic", "value_msec": "1e6"}, "x").value == 1e6


@pytest.mark.parametrize(
    "node,message",
    [
        ({"kind": "gauss", "mean_msec": 1.0}, "spot.kind: unknown kind 'gauss'"),
        ({"kind": "exponential"}, "exactly one of"),
        ({"kind": "exponential", "rate_per_msec": 1.0, "mean_msec": 1.0}, "exactly one of"),
        ({"kind": "exponential", "rate_per_msec": True}, "expected a number"),
        ({"kind": "erlang", "phases": 2.5, "rate_per_msec": 1.0}, "expected an integer"),
        ({"kind": "deterministic", "value_msec": 1.0, "extra_key": 2}, "unknown key"),
        ({"mean_msec": 1.0}, "spot.kind: required key is missing"),
        ({"kind": "erlang", "mean_msec": 1.0}, "spot.phases: required key is missing"),
        ({"kind": "uniform", "low_msec": 1.0}, "spot.high_msec: required key is missing"),
        ({"kind": "shifted", "base": {"kind": "deterministic"}}, "spot.offset_msec: required key is missing"),
        ({"kind": "exponential", "mean_msec": 0.0}, "spot.mean_msec: must be positive"),
        ({"kind": "erlang", "phases": 10**400, "mean_msec": 2.0}, "spot.phases: too many phases for a float rate"),
    ],
)
def test_distribution_rejections(node, message):
    with pytest.raises(ConfigError, match=message):
        parse_distribution(node, "spot")


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_minimal(color="red"))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_minimal(model={"builder": "baseline", "params": {"not_a_knob": 1}}))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_minimal(run={"replications": 2, "seed": 1, "horizn_msec": 1.0}))


def test_schema_and_run_guards():
    with pytest.raises(ConfigError, match="schema"):
        parse_config(_minimal(schema="v2"))
    with pytest.raises(ConfigError, match="at least 2"):
        parse_config(_minimal(run={"replications": 1, "seed": 1}))
    with pytest.raises(ConfigError, match="warmup"):
        parse_config(_minimal(run={"replications": 2, "seed": 1, "horizon_msec": 10.0, "warmup_msec": 10.0}))
    with pytest.raises(ConfigError, match="64 bits"):
        parse_config(_minimal(run={"replications": 2, "seed": 2**64}))
    with pytest.raises(ConfigError, match="outputs"):
        parse_config(_minimal(outputs=["pdf"]))
    with pytest.raises(ConfigError, match="no plot section"):
        parse_config(_minimal(outputs=["svg"]))
    assert parse_config(_minimal(run={"replications": 2, "seed": 1, "jobs": 2})).jobs == 2
    with pytest.raises(ConfigError, match=r"^run\.jobs: must be >= 1, got 0$"):
        parse_config(_minimal(run={"replications": 2, "seed": 1, "jobs": 0}))
    # the name is the stem of every output file, so it stays in --out
    for name in ("", "a/b", "a\\b", "a b", "a\tb"):
        with pytest.raises(ConfigError, match="must be a non-empty name without slashes or spaces"):
            parse_config(_minimal(experiment=name))


def test_sweep_path_validation():
    ok = _minimal(
        model={"builder": "sensor-net"},
        sweep={"parameter": "model.params.status_population", "values": [1, 5]},
    )
    cfg = parse_config(ok)
    assert apply_sweep_value(cfg, 5) == (SensorNetParams(status_population=5), None)
    assert cfg.model == SensorNetParams()  # the config's own set is unchanged
    # the swept field's parser reads the value, as it reads the config
    awty = parse_config(_minimal(
        model={"builder": "sensor-net", "params": {"include_polling": False}},
        antipattern={"kind": "are-we-there-yet", "f_poll": 0.02},
        sweep={"parameter": "antipattern.f_poll", "values": ["1e-2", 0.03]},
    ))
    assert apply_sweep_value(awty, "1e-2") == (awty.model, AreWeThereYet(f_poll=0.01))
    assert awty.antipattern == AreWeThereYet(f_poll=0.02)
    assert [p.x for p in awty.points] == [0.01, 0.03]
    assert awty.sweep_values == ("1e-2", 0.03)  # as written

    with pytest.raises(ConfigError, match="model.params.nope"):
        parse_config(_minimal(sweep={"parameter": "model.params.nope", "values": [1]}))
    with pytest.raises(ConfigError, match="antipattern.<name> of an antipattern section"):
        parse_config(_minimal(sweep={"parameter": "antipattern.f_poll", "values": [0.1]}))
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config(_minimal(sweep={"parameter": "run.seed", "values": [1]}))
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config(_minimal(sweep={"parameter": "model.params.arrival_rate", "values": []}))
    with pytest.raises(ConfigError, match=re.escape(
            "sweep.parameter: 'model.params.name' does not resolve (expected model.params.<name> "
            "of a baseline or sensor-net model")):
        parse_config(_minimal(model=INLINE_PINNED["open"],
                              sweep={"parameter": "model.params.name", "values": ["a"]}))


def test_a_sweep_point_listed_twice_is_refused():
    # the same model under the same seeds would write the same rows twice;
    # values collide as the swept field parses them
    for params, antipattern, field, values in (
        ({}, {"kind": "where-was-i", "overhead": 0.0}, "buffer_capacity", [4, 8, 8]),
        ({"include_polling": False}, {"kind": "are-we-there-yet", "f_poll": 0.02}, "f_poll",
         [0.03, "1e-2", 0.01]),
    ):
        doc = _minimal(model={"builder": "sensor-net", "params": params}, antipattern=antipattern,
                       sweep={"parameter": f"antipattern.{field}", "values": values})
        with pytest.raises(ConfigError, match=re.escape(
                f"sweep.values[2]: the same point as sweep.values[1] "
                f"(sweep antipattern.{field} = {values[2]!r})")):
            parse_config(doc)


def test_sweep_points_must_build():
    doc = _minimal(
        model={"builder": "sensor-net"},
        sweep={"parameter": "model.params.sensor_count", "values": [1, 0]},
    )
    with pytest.raises(ConfigError, match="sensor_count = 0"):
        parse_config(doc)


_PLOT = {"series": [{"station": "Controller", "class": "all", "metric": "utilization"}]}

UNKNOWN_SERIES = {
    "misspelled station": (
        {}, {"station": "Controler", "class": "all", "metric": "utilization"}, ""),
    "class the station does not serve": (
        {}, {"station": "Controller", "class": "Ghost", "metric": "utilization"}, ""),
    "utilization of a delay station": (
        {}, {"station": "Environment", "class": "Analysis", "metric": "utilization"}, ""),
    "drops of a system row": (
        {}, {"station": "system", "class": "Analysis", "metric": "dropped-count"}, ""),
    "station missing at one sweep point": (
        {"model": {"builder": "sensor-net"},
         "sweep": {"parameter": "model.params.sensor_count", "values": [2, 1]}},
        {"station": "Sensor2", "class": "Status", "metric": "utilization"},
        " (sweep model.params.sensor_count = 1)"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_SERIES))
def test_plot_series_must_name_an_estimate_at_every_sweep_point(case):
    doc, series, spot = UNKNOWN_SERIES[case]
    message = (f"plot.series[1]: no estimate for station={series['station']!r} "
               f"class={series['class']!r} metric={series['metric']!r}{spot}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(_minimal(plot={"series": _PLOT["series"] + [series]}, **doc))


def test_svg_needs_a_plot_and_numeric_sweep_values_however_outputs_are_set():
    with pytest.raises(ConfigError, match="no plot section"):
        parse_config(_minimal()).with_overrides(outputs=("svg",))
    for builder, parameter, values in (("baseline", "class_name", ["A", "B"]),
                                       ("sensor-net", "include_polling", [True, False])):
        doc = _minimal(model={"builder": builder}, plot=_PLOT,
                       sweep={"parameter": f"model.params.{parameter}", "values": values})
        cfg = parse_config(doc)  # csv alone plots nothing
        with pytest.raises(ConfigError, match=f"sweep values must be numeric to plot, got {values[0]!r}"):
            cfg.with_overrides(outputs=("csv", "svg"))
        with pytest.raises(ConfigError, match="must be numeric"):
            parse_config(dict(doc, outputs=["svg"]))


@pytest.mark.parametrize(
    "antipattern, values, x_scale, message",
    [
        ({"kind": "is-everything-ok", "check_period": 200.0}, [200.0, float("inf")], "linear",
         "plot: sweep values must be finite to plot, got inf"),
        ({"kind": "is-everything-ok", "check_period": 200.0}, [200.0, "inf"], "log",
         "plot: sweep values must be finite to plot, got 'inf'"),
        ({"kind": "where-was-i", "overhead": 0.0}, [1.0, 0.0], "log",
         "plot: x_scale log needs positive sweep values, got 0.0"),
    ],
    ids=["infinite", "infinite-string", "zero-on-log-scale"],
)
def test_svg_needs_sweep_values_the_plot_can_place(antipattern, values, x_scale, message):
    field = next(k for k in antipattern if k != "kind")
    # the transform adds its own status cycle
    model = {"builder": "sensor-net", "params": {"include_status": antipattern["kind"] != "is-everything-ok"}}
    doc = _minimal(model=model, antipattern=antipattern, plot={**_PLOT, "x_scale": x_scale},
                   sweep={"parameter": f"antipattern.{field}", "values": values})
    cfg = parse_config(doc)  # csv alone plots nothing
    assert not cfg.plottable
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.with_overrides(outputs=("csv", "svg"))
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(dict(doc, outputs=["svg"]))
    assert parse_config(dict(doc, sweep={**doc["sweep"], "values": [1.0, 2.0]})).plottable


def test_inline_model_round_trip():
    doc = _minimal(
        model={
            "builder": "inline",
            "name": "two-step",
            "stations": [
                {"name": "Source", "kind": "source"},
                {"name": "Q1", "kind": "fcfs", "service": {"Jobs": {"kind": "exponential", "mean_msec": 1.0}}},
                {"name": "Q2", "kind": "fcfs", "capacity": 3,
                 "service": {"Jobs": {"kind": "erlang", "phases": 2, "mean_msec": 0.5}}},
                {"name": "Sink", "kind": "sink"},
            ],
            "classes": [
                {"name": "Jobs", "kind": "open", "arrival": {"kind": "exponential", "rate_per_msec": 0.4}}
            ],
            "routing": [
                {"class": "Jobs", "from": "Source", "to": "Q1"},
                {"class": "Jobs", "from": "Q1", "to": {"Q2": 0.5, "Sink": 0.5}},
                {"class": "Jobs", "from": "Q2", "to": "Sink"},
            ],
        }
    )
    cfg = parse_config(doc)
    net = build_model_from_config(cfg.model, None)
    assert net.station_names() == ["Source", "Q1", "Q2", "Sink"]
    assert station(net, "Q2").capacity == 3
    assert dict(net.routing.rows["Jobs"]["Q1"]) == {"Q2": 0.5, "Sink": 0.5}
    assert validate_model(net) == []


def test_inline_model_that_fails_validation_is_a_config_error():
    doc = _minimal(
        model={
            "builder": "inline",
            "stations": [{"name": "Only", "kind": "fcfs"}],
            "classes": [{"name": "Jobs", "kind": "open"}],
            "routing": [{"class": "Jobs", "from": "Only", "to": "Only"}],
        }
    )
    with pytest.raises(ConfigError, match="does not validate"):
        parse_config(doc)


def test_antipattern_section_parsing():
    doc = _minimal(
        model={"builder": "sensor-net", "params": {"include_polling": False}},
        antipattern={"kind": "are-we-there-yet", "f_poll": 0.02, "poller_count": 2},
    )
    cfg = parse_config(doc)
    net = build_model_from_config(cfg.model, cfg.antipattern)
    assert "PollThink" in net.station_names()

    bad = _minimal(antipattern={"kind": "nope"})
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config(bad)
    # the kind picks the parameter set, so it is checked before any field
    with pytest.raises(ConfigError, match="antipattern.kind: unknown kind 'nope'"):
        parse_config(_minimal(antipattern={"kind": "nope", "overhead": "x"}))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_minimal(antipattern={"kind": "where-was-i", "overheat": 1.0}))


SECTIONS = (
    _Document, _Run, _Sweep, _InlineModel, Station, JobClass, _Route,
    PlotSpec, SeriesSpec, ValidationSpec, EgScenario, Loop, _Arm,
)


def test_every_parameter_field_has_a_parser():
    for cls in (BaselineParams, SensorNetParams, *SPECS.values(), *SECTIONS, *Distribution.__args__):
        for f in fields(cls):
            assert f.type in _FIELD_PARSERS, f"{cls.__name__}.{f.name}: no parser for {f.type!r}"


def test_optional_bound_null_or_inf_means_unbounded():
    def build(params_yaml):
        return build_model_from_config(parse_model(yaml.safe_load(f"{{builder: baseline, params: {params_yaml}}}")), None)

    omitted = build("{}")
    assert build("{controller_capacity: null}") == omitted
    assert build("{controller_capacity: .inf}") == omitted
    assert station(build("{controller_capacity: 4}"), "Controller").capacity == 4
    for bad in ("2.5", "true"):
        with pytest.raises(ConfigError, match="controller_capacity: expected an integer"):
            build(f"{{controller_capacity: {bad}}}")


def test_validation_section_rules():
    scenario = {
        "class": "Analysis",
        "arrival_rate_per_msec": 0.05,
        "graph": {"basic": {"Controller": 10.0}},
    }
    doc = _minimal(validation={"resource_map": {"Analysis": "Controller"}, "scenarios": [scenario]})
    cfg = parse_config(doc)
    assert cfg.validation.decimals == 2
    assert cfg.validation.scenarios[0].class_name == "Analysis"

    with pytest.raises(ConfigError, match="cannot be combined"):
        parse_config(
            _minimal(
                model={"builder": "sensor-net"},
                sweep={"parameter": "model.params.sensor_count", "values": [1, 2]},
                validation={"resource_map": {"Analysis": "Controller"}, "scenarios": [scenario]},
            )
        )
    with pytest.raises(ConfigError, match="decimals"):
        parse_config(_minimal(validation={"scenarios": [scenario], "resource_map": {}, "decimals": 3}))
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(
            _minimal(validation={"resource_map": {}, "scenarios": [dict(scenario, graph={"bad": 1})]})
        )


def test_load_config_io_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: [unclosed", encoding="utf-8")
    where = f"config {bad} is not valid YAML: line 1, column 18: expected ',' or ']'"
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_config(bad)
    bad.write_bytes(b"schema: v\xff1")
    with pytest.raises(ConfigError, match="not valid YAML: 'utf-8' codec can't decode byte 0xff"):
        load_config(bad)


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16-le", "utf-16-be"])
def test_load_config_reads_a_byte_order_mark_and_crlf_lines(tmp_path, encoding):
    # as PyYAML did: UTF-16 by its byte order mark, UTF-8 otherwise
    shipped = SHIPPED[0]
    text = "\ufeff" * encoding.startswith("utf-16") + shipped.read_text(encoding="utf-8").replace("\n", "\r\n")
    path = tmp_path / shipped.name
    path.write_bytes(text.encode(encoding))
    assert load_config(path).points == load_config(shipped).points


def test_overrides_revalidate():
    cfg = parse_config(_minimal())
    with pytest.raises(ConfigError, match="at least 2"):
        cfg.with_overrides(replications=1)
    assert cfg.with_overrides(seed=42).seed == 42


def test_shipped_configs_stay_in_sync_with_schema():
    # every shipped file must also survive a YAML round trip (no parser
    # corner cases like unsigned exponents hiding in them)
    for path in SHIPPED:
        doc = yaml.safe_load(path.read_text())
        for section in ("run",):
            for key in ("horizon_msec", "warmup_msec"):
                if key in doc.get(section, {}):
                    assert isinstance(doc[section][key], (int, float)), (path.name, key)


def _edit(doc, change):
    doc = copy.deepcopy(doc)
    change(doc)
    return doc


def _inline(change):
    return _minimal(model=_edit(INLINE_PINNED["open"], change))


SCENARIO = {"class": "Analysis", "arrival_rate_per_msec": 0.05, "graph": {"basic": {"Controller": 10.0}}}


def _validated(change, model=None):
    validation = _edit({"resource_map": {"Analysis": "Controller"}, "scenarios": [SCENARIO]}, change)
    doc = _minimal(validation=validation)
    if model is not None:
        doc["model"] = model
    return doc


MALFORMED = {
    "outputs not a list": (_minimal(outputs=5), "outputs: expected a list, got int"),
    "outputs a string": (_minimal(outputs="csv"), "outputs: expected a list, got str"),
    "unhashable reference": (
        _inline(lambda m: m["classes"][0].update(kind="closed", population=1, reference=["Q1"])),
        "model.classes[0].reference: expected a string, got ['Q1']",
    ),
    "exponential mean 0": (
        _minimal(model={"builder": "baseline",
                        "params": {"controller_service": {"kind": "exponential", "mean_msec": 0}}}),
        "model.params.controller_service.mean_msec: must be positive",
    ),
    # only null and +inf mean unbounded; -inf is no capacity
    "negative infinite controller capacity": (
        _minimal(model={"builder": "baseline", "params": {"controller_capacity": float("-inf")}}),
        "model.params.controller_capacity: expected an integer, got -inf",
    ),
    "negative infinite station capacity": (
        _inline(lambda m: m["stations"][2].update(capacity=float("-inf"))),
        "model.stations[2].capacity: expected an integer, got -inf",
    ),
    "negative infinite buffer capacity": (
        _minimal(model={"builder": "sensor-net"},
                 antipattern={"kind": "where-was-i", "buffer_capacity": float("-inf")}),
        "antipattern.buffer_capacity: expected an integer, got -inf",
    ),
    "routing row without from": (
        _inline(lambda m: m["routing"][2].pop("from")),
        "model.routing[2].from: required key is missing",
    ),
    "station without name": (
        _inline(lambda m: m["stations"][1].pop("name")),
        "model.stations[1].name: required key is missing",
    ),
    "routing probability not a number": (
        _inline(lambda m: m["routing"][1].update(to={"Q2": "half", "Sink": 0.5})),
        "model.routing[1].to[Q2]: expected a number, got 'half'",
    ),
    "inline without routing": (
        _inline(lambda m: m.pop("routing")),
        "model.routing: required key is missing",
    ),
    "run without seed": (_minimal(run={"replications": 2}), "run.seed: required key is missing"),
    "series without class": (
        _minimal(outputs=["svg"], plot={"series": [{"station": "system", "metric": "utilization"}]}),
        "plot.series[0].class: required key is missing",
    ),
    "empty series": (_minimal(plot={"series": []}), "plot.series: must be non-empty"),
    "loop count not a number": (
        _validated(lambda v: v["scenarios"][0].update(
            graph={"loop": {"count": "many", "body": {"basic": {"Controller": 1.0}}}})),
        "validation.scenarios[0].graph.loop.count: expected a number, got 'many'",
    ),
    "loop without body": (
        _validated(lambda v: v["scenarios"][0].update(graph={"loop": {"count": 2}})),
        "validation.scenarios[0].graph.loop.body: required key is missing",
    ),
    "nan service mean": (
        _minimal(model={"builder": "baseline",
                        "params": {"controller_service": {"kind": "exponential", "mean_msec": float("nan")}}}),
        "model.params.controller_service.mean_msec: expected a number, got nan",
    ),
    "nan antipattern parameter": (
        _minimal(antipattern={"kind": "where-was-i", "overhead": "nan"}),
        "antipattern.overhead: expected a number, got 'nan'",
    ),
    "key of another antipattern kind": (
        _minimal(antipattern={"kind": "where-was-i", "buffer_capacity": 8, "f_poll": 0.3}),
        "antipattern: unknown key(s) 'f_poll'",
    ),
    "sweep over a parameter of another antipattern kind": (
        _minimal(model={"builder": "sensor-net"},
                 antipattern={"kind": "where-was-i", "buffer_capacity": 8},
                 sweep={"parameter": "antipattern.p_exc", "values": [0.0, 0.5, 0.9]}),
        "sweep.parameter: 'antipattern.p_exc' does not resolve (where-was-i has no parameter 'p_exc')",
    ),
    "unknown keys of mixed types": (
        _minimal(run={"replications": 2, "seed": 1, "horizon_msec": 100.0, 1: 2, "x": 3}),
        "run: unknown key(s) 'x', 1",
    ),
    "antipattern without kind": (
        _minimal(antipattern={"overhead": 1.0, "overheat": 1.0}),
        "antipattern.kind: required key is missing",
    ),
    "integer past float range": (
        _minimal(model={"builder": "baseline", "params": {"arrival_rate": 10**400}}),
        "model.params.arrival_rate: expected a number, got 1000",
    ),
    "unhashable builder with a params sweep": (
        _minimal(model={"builder": ["baseline"]},
                 sweep={"parameter": "model.params.arrival_rate", "values": [0.01]}),
        "model.builder: expected a string, got ['baseline']",
    ),
    "builder sweep value of the wrong type": (
        _minimal(sweep={"parameter": "model.params.controller_servers", "values": [1, "two"]}),
        "model.params.controller_servers: expected an integer, got 'two' "
        "(sweep model.params.controller_servers = 'two')",
    ),
    "antipattern sweep value of the wrong type": (
        _minimal(model={"builder": "sensor-net"},
                 antipattern={"kind": "where-was-i", "buffer_capacity": 8},
                 sweep={"parameter": "antipattern.overhead", "values": [0.0, [1.0]]}),
        "antipattern.overhead: expected a number, got [1.0] (sweep antipattern.overhead = [1.0])",
    ),
    "scenario without graph": (
        _validated(lambda v: v["scenarios"][0].pop("graph")),
        "validation.scenarios[0].graph: required key is missing",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_sections_are_config_errors_at_their_key_path(case):
    doc, message = MALFORMED[case]
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(doc)


def _branch(p, q):
    return {"branch": [{"probability": p, "node": {"basic": {"Controller": 1.0}}},
                       {"probability": q, "node": {"basic": {"Environment": 1.0}}}]}


UNSOUND_VALIDATION = {
    "negative arrival rate": (
        _validated(lambda v: v["scenarios"][0].update(arrival_rate_per_msec=-0.1)),
        "validation.scenarios[0]: arrival rate must be >= 0 (got -0.1)",
    ),
    "negative loop count": (
        _validated(lambda v: v["scenarios"][0].update(
            graph={"loop": {"count": -1, "body": {"basic": {"Controller": 1.0}}}})),
        "validation.scenarios[0].graph.loop: loop count must be >= 0 (got -1.0)",
    ),
    "negative demand": (
        _validated(lambda v: v["scenarios"][0].update(
            graph={"seq": [{"basic": {"Controller": 1.0}}, {"basic": {"Controller": -1.0}}]})),
        "validation.scenarios[0].graph.seq[1].basic: negative demand -1.0 on resource 'Controller'",
    ),
    "branch sum below 1": (
        _validated(lambda v: v["scenarios"][0].update(graph=_branch(0.5, 0.4))),
        "validation.scenarios[0].graph.branch: branch probabilities sum to 0.9, not 1",
    ),
    "branch probability above 1": (
        _validated(lambda v: v["scenarios"][0].update(graph={"seq": [_branch(1.5, -0.5)]})),
        "validation.scenarios[0].graph.seq[0].branch: branch probability 1.5 outside [0, 1]",
    ),
    "class not in the model": (
        _validated(lambda v: v["scenarios"][0].update({"class": "Ghost"})),
        "validation: class present only on the analytic side: Ghost",
    ),
    "model class without a scenario": (
        _validated(lambda v: None, model={"builder": "sensor-net"}),
        "validation: class present only on the simulated side: Actors, Polling, Status",
    ),
    "duplicate scenario": (
        _validated(lambda v: v["scenarios"].append(SCENARIO)),
        "validation: duplicate scenario class names",
    ),
    "class without a resource": (
        _validated(lambda v: v.update(resource_map={"Other": "Controller"})),
        "validation: no comparison resource named for class 'Analysis'",
    ),
    "resource without demand": (
        _validated(lambda v: v.update(resource_map={"Analysis": "Environment"})),
        "validation: scenario for 'Analysis' places no demand on resource 'Environment'",
    ),
    "no resource map": (
        _validated(lambda v: v.pop("resource_map")),
        "validation.resource_map: required key is missing",
    ),
}


@pytest.mark.parametrize("case", sorted(UNSOUND_VALIDATION))
def test_validation_section_is_checked_against_the_model_at_parse_time(case):
    doc, message = UNSOUND_VALIDATION[case]
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(doc)


# every distribution kind, each rate both ways, and a shifted mixture
# whose extra is itself a mixture
INLINE_EVERY_KIND = {
    "builder": "inline",
    "stations": [
        {"name": "Source", "kind": "source"},
        {"name": "Q", "kind": "fcfs", "servers": 2, "capacity": 8, "service": {
            "Jobs": {"kind": "erlang", "phases": 3, "mean_msec": 1.5},
            "Loop": {"kind": "uniform", "low_msec": 0.5, "high_msec": 1.5}}},
        {"name": "D", "kind": "delay", "service": {
            "Jobs": {"kind": "shifted", "offset_msec": 0.5, "base": {
                "kind": "mixture", "p_extra": 0.25, "base": {"kind": "deterministic", "value_msec": 1.0},
                "extra": {"kind": "mixture", "p_extra": 0.5,
                          "base": {"kind": "exponential", "rate_per_msec": 2.0},
                          "extra": {"kind": "erlang", "phases": 2, "rate_per_msec": 1.0}}}},
            "Loop": {"kind": "exponential", "mean_msec": 4.0}}},
        {"name": "Sink", "kind": "sink"},
    ],
    "classes": [
        {"name": "Jobs", "kind": "open", "arrival": {"kind": "exponential", "mean_msec": 5.0}},
        {"name": "Loop", "kind": "closed", "population": 2, "reference": "D"},
    ],
    "routing": [
        {"class": "Jobs", "from": "Source", "to": "Q"},
        {"class": "Jobs", "from": "Q", "to": {"D": 0.5, "Sink": 0.5}},
        {"class": "Jobs", "from": "D", "to": "Sink"},
        {"class": "Loop", "from": "D", "to": "Q"},
        {"class": "Loop", "from": "Q", "to": "D"},
    ],
}


FUZZED = {
    **{p.stem: yaml.safe_load(p.read_text()) for p in SHIPPED},
    "inline_open": _minimal(model=INLINE_PINNED["open"]),
    "inline_closed": _minimal(model=INLINE_PINNED["closed"]),
    "validated": _validated(lambda v: v["scenarios"][0].update(graph={"seq": [
        _branch(0.5, 0.5), {"loop": {"count": 2, "body": {"basic": {"Controller": 1.0}}}}]})),
    "inline_every_kind": _minimal(model=INLINE_EVERY_KIND),
}


def _key_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


@pytest.mark.parametrize("name", sorted(FUZZED))
def test_any_value_at_any_key_parses_or_is_a_config_error(name):
    # a config a user edits either parses or stops with a ConfigError (CLI
    # exit 2), never with another exception from deep inside the parser
    for path in _key_paths(FUZZED[name]):
        for value in (["x"], {"a": 1}, None, -1, 0, "x", 2.5, True, [], 10**400):
            doc = copy.deepcopy(FUZZED[name])
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                parse_config(doc)
            except ConfigError:
                pass
            except Exception as exc:
                pytest.fail(f"{'.'.join(map(str, path))} = {value!r}: {exc!r}")


def _mappings(node, path=()):
    if isinstance(node, dict):
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _mappings(child, path + (key,))


@pytest.mark.parametrize("name", sorted(FUZZED))
def test_any_key_in_any_section_parses_or_is_a_config_error(name):
    # YAML keys need not be strings: a section holding an unknown int,
    # float, bool or null key, alone or beside a string one, stops with a
    # ConfigError that names the section, never with a TypeError
    for path in _mappings(FUZZED[name]):
        for keys in ({1: 2}, {None: 1}, {2.5: 1}, {True: 1}, {1: 2, "x": 3}, {"x": 3, None: 1, 0.5: 2}):
            doc = copy.deepcopy(FUZZED[name])
            node = doc
            for key in path:
                node = node[key]
            node.update(keys)
            try:
                parse_config(doc)
            except ConfigError:
                pass
            except Exception as exc:
                pytest.fail(f"{'.'.join(map(str, path)) or '<top>'} + {keys!r}: {exc!r}")
