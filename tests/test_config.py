"""Config schema v1: parsing, distribution encoding, error reporting."""

import dataclasses
from pathlib import Path

import pytest
import yaml

import qnaps
from qnaps.antipatterns import AntipatternSpec
from qnaps.config import (
    _FIELD_PARSERS,
    ConfigError,
    apply_sweep_value,
    build_model_from_config,
    load_config,
    parse_config,
    parse_distribution,
)
from qnaps.model import BaselineParams, SensorNetParams, validate_model

CONFIG_DIR = Path(qnaps.__file__).parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.yaml"))


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


def test_distribution_encodings():
    assert parse_distribution({"kind": "exponential", "rate_per_msec": 0.5}, "x").mean() == 2.0
    assert parse_distribution({"kind": "exponential", "mean_msec": 2.0}, "x").rate == 0.5
    assert parse_distribution({"kind": "deterministic", "value_msec": 3.0}, "x").value == 3.0
    erl = parse_distribution({"kind": "erlang", "phases": 4, "mean_msec": 2.0}, "x")
    assert erl.phases == 4 and erl.mean() == pytest.approx(2.0)
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
        ({"kind": "gauss", "mean_msec": 1.0}, "unknown distribution kind"),
        ({"kind": "exponential"}, "exactly one of"),
        ({"kind": "exponential", "rate_per_msec": 1.0, "mean_msec": 1.0}, "exactly one of"),
        ({"kind": "exponential", "rate_per_msec": True}, "expected a number"),
        ({"kind": "erlang", "phases": 2.5, "rate_per_msec": 1.0}, "expected an integer"),
        ({"kind": "deterministic", "value_msec": 1.0, "extra_key": 2}, "unknown key"),
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


def test_sweep_path_validation():
    ok = _minimal(
        model={"builder": "sensor-net"},
        sweep={"parameter": "model.params.status_population", "values": [1, 5]},
    )
    cfg = parse_config(ok)
    model_section, _ = apply_sweep_value(cfg, 5)
    assert model_section["params"]["status_population"] == 5
    assert cfg.model == {"builder": "sensor-net"}  # original untouched

    with pytest.raises(ConfigError, match="model.params.nope"):
        parse_config(_minimal(sweep={"parameter": "model.params.nope", "values": [1]}))
    with pytest.raises(ConfigError, match="no antipattern section"):
        parse_config(_minimal(sweep={"parameter": "antipattern.f_poll", "values": [0.1]}))
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config(_minimal(sweep={"parameter": "run.seed", "values": [1]}))
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config(_minimal(sweep={"parameter": "model.params.arrival_rate", "values": []}))


def test_sweep_points_must_build():
    doc = _minimal(
        model={"builder": "sensor-net"},
        sweep={"parameter": "model.params.sensor_count", "values": [1, 0]},
    )
    with pytest.raises(ConfigError, match="sensor_count = 0"):
        parse_config(doc)


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
    assert net.station("Q2").capacity == 3
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
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_minimal(antipattern={"kind": "where-was-i", "overheat": 1.0}))


def test_every_parameter_field_has_a_parser():
    for cls in (BaselineParams, SensorNetParams, AntipatternSpec):
        for f in dataclasses.fields(cls):
            assert f.type in _FIELD_PARSERS, f"{cls.__name__}.{f.name}: no parser for {f.type!r}"


def test_optional_bound_null_or_inf_means_unbounded():
    def build(params_yaml):
        return build_model_from_config(yaml.safe_load(f"{{builder: baseline, params: {params_yaml}}}"), None)

    omitted = build("{}")
    assert build("{controller_capacity: null}") == omitted
    assert build("{controller_capacity: .inf}") == omitted
    assert build("{controller_capacity: 4}").station("Controller").capacity == 4
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
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)


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
