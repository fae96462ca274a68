"""Experiment configuration: schema v1 parsing and model construction.

One YAML file describes a whole experiment: the model (a named builder
with parameters, or an inline topology), an optional antipattern
transformation, an optional one-dimensional parameter sweep, run
controls (replications, seed, horizon, warmup), the requested output
formats, an optional plot description and an optional analytic
validation block. Every section is checked against a closed key set so
typos fail loudly instead of being ignored.

Schema v1, top level::

    schema: v1
    experiment: <name>          # used in CSV rows and output file stems
    model: {...}                # required, see below
    antipattern: {...}          # optional
    sweep: {parameter: <dotted path>, values: [...]}   # optional
    run: {replications, seed, horizon_msec, warmup_msec, jobs}
    outputs: [csv, svg, table]
    plot: {...}                 # required when svg is requested
    validation: {...}           # optional, incompatible with sweep

Model section: either ``builder: baseline | sensor-net`` plus a
``params`` mapping whose keys mirror the builder's parameter fields, or
``builder: inline`` with explicit ``stations``, ``classes`` and
``routing`` lists. Distributions are mappings tagged by ``kind``::

    {kind: exponential, rate_per_msec: r}   or {kind: exponential, mean_msec: m}
    {kind: deterministic, value_msec: v}    # .inf parks jobs at a delay
    {kind: erlang, phases: k, rate_per_msec: r}  or mean_msec
    {kind: uniform, low_msec: a, high_msec: b}
    {kind: shifted, offset_msec: o, base: {...}}
    {kind: mixture, p_extra: p, base: {...}, extra: {...}}

Sweep parameter paths resolve against the schema, not the instance: a
path like ``model.params.status_population`` is valid whenever the
builder has that field, even if the config omits it (the default would
be swept over). Valid roots are ``model.params.<field>`` and
``antipattern.<field>``; anything else is rejected by name.

All numbers accept plain YAML scalars; numeric strings are coerced so
``1e6`` works regardless of the YAML float grammar corner cases.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import antipatterns, model as qm
from .egraph import Basic, Branch, EgScenario, Loop, Sequence

SCHEMA_VERSION = "v1"
OUTPUT_FORMATS = ("csv", "svg", "table")


class ConfigError(ValueError):
    """Anything wrong with an experiment configuration."""


# ---------------------------------------------------------------------------
# scalar coercion


def _number(value, where: str) -> float:
    """Coerce to float, accepting numeric strings and inf spellings."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{where}: expected a number, got {value!r}")


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected a boolean, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _sequence(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


# ---------------------------------------------------------------------------
# distributions

_DIST_KEYS = {
    "exponential": ({"rate_per_msec", "mean_msec"}, "exactly one of rate_per_msec, mean_msec"),
    "deterministic": ({"value_msec"}, "value_msec"),
    "erlang": ({"phases", "rate_per_msec", "mean_msec"}, "phases plus one of rate_per_msec, mean_msec"),
    "uniform": ({"low_msec", "high_msec"}, "low_msec and high_msec"),
    "shifted": ({"offset_msec", "base"}, "offset_msec and base"),
    "mixture": ({"p_extra", "base", "extra"}, "p_extra, base and extra"),
}


def parse_distribution(node, where: str) -> qm.Distribution:
    node = _mapping(node, where)
    kind = _string(node.get("kind", ""), f"{where}.kind") if "kind" in node else ""
    if kind not in _DIST_KEYS:
        raise ConfigError(
            f"{where}: unknown distribution kind {kind!r} "
            f"(expected one of {', '.join(sorted(_DIST_KEYS))})"
        )
    allowed, needs = _DIST_KEYS[kind]
    _check_keys(node, allowed | {"kind"}, where)

    if kind == "exponential":
        if ("rate_per_msec" in node) == ("mean_msec" in node):
            raise ConfigError(f"{where}: exponential takes {needs}")
        if "rate_per_msec" in node:
            return qm.Exponential(_number(node["rate_per_msec"], f"{where}.rate_per_msec"))
        return qm.Exponential.from_mean(_number(node["mean_msec"], f"{where}.mean_msec"))
    if kind == "deterministic":
        if "value_msec" not in node:
            raise ConfigError(f"{where}: deterministic takes {needs}")
        return qm.Deterministic(_number(node["value_msec"], f"{where}.value_msec"))
    if kind == "erlang":
        if "phases" not in node or ("rate_per_msec" in node) == ("mean_msec" in node):
            raise ConfigError(f"{where}: erlang takes {needs}")
        phases = _integer(node["phases"], f"{where}.phases")
        if "rate_per_msec" in node:
            rate = _number(node["rate_per_msec"], f"{where}.rate_per_msec")
        else:
            mean = _number(node["mean_msec"], f"{where}.mean_msec")
            if mean <= 0:
                raise ConfigError(f"{where}.mean_msec: must be positive")
            rate = phases / mean
        return qm.Erlang(phases, rate)
    if kind == "uniform":
        if "low_msec" not in node or "high_msec" not in node:
            raise ConfigError(f"{where}: uniform takes {needs}")
        return qm.Uniform(
            _number(node["low_msec"], f"{where}.low_msec"),
            _number(node["high_msec"], f"{where}.high_msec"),
        )
    if kind == "shifted":
        if "offset_msec" not in node or "base" not in node:
            raise ConfigError(f"{where}: shifted takes {needs}")
        return qm.Shifted(
            _number(node["offset_msec"], f"{where}.offset_msec"),
            parse_distribution(node["base"], f"{where}.base"),
        )
    # mixture
    if not {"p_extra", "base", "extra"} <= set(node):
        raise ConfigError(f"{where}: mixture takes {needs}")
    return qm.Mixture(
        _number(node["p_extra"], f"{where}.p_extra"),
        parse_distribution(node["base"], f"{where}.base"),
        parse_distribution(node["extra"], f"{where}.extra"),
    )


# ---------------------------------------------------------------------------
# model section

_BUILDER_PARAMS = {
    "baseline": qm.BaselineParams,
    "sensor-net": qm.SensorNetParams,
}
_INLINE_KEYS = ("builder", "name", "stations", "classes", "routing")


def _unbounded_integer(value, where: str) -> int | None:
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return None
    return _integer(value, where)


def _distribution(value, where: str) -> qm.Distribution:
    if value is None:
        raise ConfigError(f"{where}: may not be null")
    return parse_distribution(value, where)


def _optional_distribution(value, where: str) -> qm.Distribution | None:
    return None if value is None else parse_distribution(value, where)


def _optional_strings(value, where: str) -> tuple[str, ...] | None:
    if value is None:
        return None
    return tuple(_string(d, f"{where}[{j}]") for j, d in enumerate(_sequence(value, where)))


# Parser for each field annotation of the builder parameter sets and the
# antipattern spec. ``int | None`` is an optional bound: null or an
# infinite number means unbounded.
_FIELD_PARSERS = {
    "bool": _boolean,
    "int": _integer,
    "int | None": _unbounded_integer,
    "float": _number,
    "str": _string,
    "Distribution": _distribution,
    "Distribution | None": _optional_distribution,
    "tuple[str, ...] | None": _optional_strings,
}


def _parse_fields(cls, section: dict, where: str) -> dict:
    """Keyword arguments for dataclass cls from a config mapping, each
    value parsed by the table entry for its field's annotation."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    _check_keys(section, types, where)
    return {key: _FIELD_PARSERS[types[key]](raw, f"{where}.{key}") for key, raw in section.items()}


def _parse_inline_model(section: dict) -> qm.NetworkModel:
    for part in ("stations", "classes", "routing"):
        if part not in section:
            raise ConfigError(f"model: inline topology needs a {part!r} list")

    stations = []
    for i, node in enumerate(_sequence(section["stations"], "model.stations")):
        where = f"model.stations[{i}]"
        node = _mapping(node, where)
        _check_keys(node, ("name", "kind", "servers", "capacity", "service"), where)
        if "name" not in node:
            raise ConfigError(f"{where}: station needs a name")
        service = {}
        for cname, dist in _mapping(node.get("service", {}), f"{where}.service").items():
            service[_string(cname, f"{where}.service key")] = parse_distribution(
                dist, f"{where}.service[{cname}]"
            )
        kind = _string(node.get("kind", qm.FCFS), f"{where}.kind")
        if kind == "fcfs":  # short spelling for the queueing kind
            kind = qm.FCFS
        stations.append(
            qm.Station(
                name=_string(node["name"], f"{where}.name"),
                kind=kind,
                servers=_integer(node.get("servers", 1), f"{where}.servers"),
                capacity=_unbounded_integer(node.get("capacity"), f"{where}.capacity"),
                service=service,
            )
        )

    classes = []
    for i, node in enumerate(_sequence(section["classes"], "model.classes")):
        where = f"model.classes[{i}]"
        node = _mapping(node, where)
        _check_keys(node, ("name", "kind", "arrival", "population", "reference"), where)
        if "name" not in node:
            raise ConfigError(f"{where}: class needs a name")
        arrival = node.get("arrival")
        classes.append(
            qm.JobClass(
                name=_string(node["name"], f"{where}.name"),
                kind=_string(node.get("kind", "open"), f"{where}.kind"),
                arrival=None if arrival is None else parse_distribution(arrival, f"{where}.arrival"),
                population=_integer(node.get("population", 0), f"{where}.population"),
                reference=node.get("reference"),
            )
        )

    routing = qm.RoutingTable()
    for i, node in enumerate(_sequence(section["routing"], "model.routing")):
        where = f"model.routing[{i}]"
        node = _mapping(node, where)
        _check_keys(node, ("class", "from", "to"), where)
        for part in ("class", "from", "to"):
            if part not in node:
                raise ConfigError(f"{where}: routing row needs {part!r}")
        to = node["to"]
        if isinstance(to, str):
            targets = [(to, 1.0)]
        else:
            to = _mapping(to, f"{where}.to")
            targets = [
                (_string(name, f"{where}.to key"), _number(p, f"{where}.to[{name}]"))
                for name, p in to.items()
            ]
        routing.add(_string(node["class"], f"{where}.class"), _string(node["from"], f"{where}.from"), targets)

    return qm.NetworkModel(
        name=_string(section.get("name", "inline"), "model.name"),
        stations=stations,
        classes=classes,
        routing=routing,
        description="inline topology from experiment config",
    )


def parse_antipattern(section: dict) -> antipatterns.AntipatternSpec:
    section = _mapping(section, "antipattern")
    kwargs = _parse_fields(antipatterns.AntipatternSpec, section, "antipattern")
    if "kind" not in kwargs:
        raise ConfigError("antipattern: needs a kind")
    spec = antipatterns.AntipatternSpec(**kwargs)
    if spec.kind not in antipatterns.KINDS:
        raise ConfigError(
            f"antipattern.kind: unknown kind {spec.kind!r} "
            f"(expected one of {', '.join(antipatterns.KINDS)})"
        )
    return spec


def build_model_from_config(model_section: dict, antipattern_section: dict | None) -> qm.NetworkModel:
    """Construct (and transform) the network a config describes.

    Pure function of the two sections, so sweep points and worker
    processes can rebuild identical models from patched copies.
    """
    section = _mapping(model_section, "model")
    builder = _string(section.get("builder", ""), "model.builder") if "builder" in section else ""
    if builder == "inline":
        _check_keys(section, _INLINE_KEYS, "model")
        net = _parse_inline_model(section)
    elif builder in _BUILDER_PARAMS:
        _check_keys(section, ("builder", "params"), "model")
        cls = _BUILDER_PARAMS[builder]
        params = cls(**_parse_fields(cls, _mapping(section.get("params", {}), "model.params"), "model.params"))
        try:
            net = qm.build_baseline(params) if builder == "baseline" else qm.build_sensor_net(params)
        except ValueError as exc:
            raise ConfigError(f"model.params: {exc}") from exc
    else:
        raise ConfigError(
            f"model.builder: expected one of inline, {', '.join(sorted(_BUILDER_PARAMS))}; "
            f"got {builder!r}"
        )

    if antipattern_section is not None:
        spec = parse_antipattern(antipattern_section)
        try:
            net, _report = antipatterns.apply(net, spec)
        except antipatterns.TransformError as exc:
            raise ConfigError(f"antipattern: {exc}") from exc
    return net


# ---------------------------------------------------------------------------
# plot / validation / sweep sections


@dataclass(frozen=True)
class SeriesSpec:
    station: str
    job_class: str
    metric: str
    label: str


@dataclass(frozen=True)
class PlotSpec:
    series: tuple[SeriesSpec, ...]
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    x_scale: str = "linear"  # linear | log
    annotate_minimum: bool = False


@dataclass(frozen=True)
class ValidationSpec:
    scenarios: tuple[EgScenario, ...]
    resource_map: dict[str, str]
    decimals: int = 2


def _parse_plot(section: dict) -> PlotSpec:
    section = _mapping(section, "plot")
    _check_keys(
        section,
        ("series", "title", "x_label", "y_label", "x_scale", "annotate_minimum"),
        "plot",
    )
    raw_series = _sequence(section.get("series", []), "plot.series")
    if not raw_series:
        raise ConfigError("plot.series: needs at least one series")
    series = []
    for i, node in enumerate(raw_series):
        where = f"plot.series[{i}]"
        node = _mapping(node, where)
        _check_keys(node, ("station", "class", "metric", "label"), where)
        for part in ("station", "class", "metric"):
            if part not in node:
                raise ConfigError(f"{where}: needs {part!r}")
        metric = _string(node["metric"], f"{where}.metric")
        series.append(
            SeriesSpec(
                station=_string(node["station"], f"{where}.station"),
                job_class=_string(node["class"], f"{where}.class"),
                metric=metric,
                label=_string(node.get("label", metric), f"{where}.label"),
            )
        )
    x_scale = _string(section.get("x_scale", "linear"), "plot.x_scale")
    if x_scale not in ("linear", "log"):
        raise ConfigError(f"plot.x_scale: expected linear or log, got {x_scale!r}")
    return PlotSpec(
        series=tuple(series),
        title=_string(section.get("title", ""), "plot.title"),
        x_label=_string(section.get("x_label", ""), "plot.x_label"),
        y_label=_string(section.get("y_label", ""), "plot.y_label"),
        x_scale=x_scale,
        annotate_minimum=_boolean(section.get("annotate_minimum", False), "plot.annotate_minimum"),
    )


_EG_NODE_KEYS = ("basic", "seq", "branch", "loop")


def _parse_eg_node(node, where: str):
    node = _mapping(node, where)
    if len(node) != 1 or next(iter(node)) not in _EG_NODE_KEYS:
        raise ConfigError(
            f"{where}: execution graph node must be exactly one of "
            f"{', '.join(_EG_NODE_KEYS)}"
        )
    tag, body = next(iter(node.items()))
    if tag == "basic":
        body = _mapping(body, f"{where}.basic")
        demand = {
            _string(res, f"{where}.basic key"): _number(d, f"{where}.basic[{res}]")
            for res, d in body.items()
        }
        return Basic(demand)
    if tag == "seq":
        children = _sequence(body, f"{where}.seq")
        if not children:
            raise ConfigError(f"{where}.seq: needs at least one child")
        return Sequence(*(_parse_eg_node(c, f"{where}.seq[{i}]") for i, c in enumerate(children)))
    if tag == "branch":
        arms = _sequence(body, f"{where}.branch")
        parsed = []
        for i, arm in enumerate(arms):
            spot = f"{where}.branch[{i}]"
            arm = _mapping(arm, spot)
            _check_keys(arm, ("probability", "node"), spot)
            if "probability" not in arm or "node" not in arm:
                raise ConfigError(f"{spot}: needs probability and node")
            parsed.append(
                (_number(arm["probability"], f"{spot}.probability"), _parse_eg_node(arm["node"], f"{spot}.node"))
            )
        return Branch(*parsed)
    # loop
    body = _mapping(body, f"{where}.loop")
    _check_keys(body, ("count", "body"), f"{where}.loop")
    if "count" not in body or "body" not in body:
        raise ConfigError(f"{where}.loop: needs count and body")
    return Loop(_number(body["count"], f"{where}.loop.count"), _parse_eg_node(body["body"], f"{where}.loop.body"))


def _parse_validation(section: dict) -> ValidationSpec:
    section = _mapping(section, "validation")
    _check_keys(section, ("scenarios", "resource_map", "decimals"), "validation")
    raw = _sequence(section.get("scenarios", []), "validation.scenarios")
    if not raw:
        raise ConfigError("validation.scenarios: needs at least one scenario")
    scenarios = []
    for i, node in enumerate(raw):
        where = f"validation.scenarios[{i}]"
        node = _mapping(node, where)
        _check_keys(node, ("class", "arrival_rate_per_msec", "graph"), where)
        for part in ("class", "arrival_rate_per_msec", "graph"):
            if part not in node:
                raise ConfigError(f"{where}: needs {part!r}")
        scenarios.append(
            EgScenario(
                class_name=_string(node["class"], f"{where}.class"),
                root=_parse_eg_node(node["graph"], f"{where}.graph"),
                arrival_rate=_number(node["arrival_rate_per_msec"], f"{where}.arrival_rate_per_msec"),
            )
        )
    resource_map = {
        _string(c, "validation.resource_map key"): _string(s, f"validation.resource_map[{c}]")
        for c, s in _mapping(section.get("resource_map", {}), "validation.resource_map").items()
    }
    decimals = _integer(section.get("decimals", 2), "validation.decimals")
    if decimals not in (1, 2):
        raise ConfigError(f"validation.decimals: expected 1 or 2, got {decimals}")
    return ValidationSpec(scenarios=tuple(scenarios), resource_map=resource_map, decimals=decimals)


def _validate_sweep_path(path: str, model_section: dict, antipattern_section: dict | None) -> None:
    """A sweep path must name a known field of the builder's parameter
    set or of the antipattern spec; the instance may omit the key (its
    default is then swept)."""
    parts = path.split(".")
    if len(parts) == 3 and parts[0] == "model" and parts[1] == "params":
        builder = model_section.get("builder")
        cls = _BUILDER_PARAMS.get(builder)
        if cls is None:
            raise ConfigError(
                f"sweep.parameter: {path!r} needs a parameterized builder, "
                f"but model.builder is {builder!r}"
            )
        if parts[2] not in {f.name for f in dataclasses.fields(cls)}:
            raise ConfigError(
                f"sweep.parameter: {path!r} does not resolve "
                f"({builder} has no parameter {parts[2]!r})"
            )
        return
    if len(parts) == 2 and parts[0] == "antipattern":
        if antipattern_section is None:
            raise ConfigError(
                f"sweep.parameter: {path!r} does not resolve (no antipattern section)"
            )
        names = {f.name for f in dataclasses.fields(antipatterns.AntipatternSpec)}
        if parts[1] == "kind" or parts[1] not in names:
            raise ConfigError(
                f"sweep.parameter: {path!r} does not resolve "
                f"(no sweepable antipattern parameter {parts[1]!r})"
            )
        return
    raise ConfigError(
        f"sweep.parameter: {path!r} does not resolve "
        "(expected model.params.<name> or antipattern.<name>)"
    )


def apply_sweep_value(cfg: "ExperimentConfig", value):
    """Patched (model_section, antipattern_section) pair for one sweep point."""
    import copy

    model_section = copy.deepcopy(cfg.model)
    antipattern_section = copy.deepcopy(cfg.antipattern)
    parts = cfg.sweep_parameter.split(".")
    if parts[0] == "model":
        model_section.setdefault("params", {})[parts[2]] = value
    else:
        antipattern_section[parts[1]] = value
    return model_section, antipattern_section


# ---------------------------------------------------------------------------
# experiment config


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully parsed experiment description.

    model and antipattern are kept as raw (normalized) mappings so sweep
    points and worker processes can patch and rebuild them; everything
    else is parsed to typed values up front.
    """

    experiment: str
    model: dict
    antipattern: dict | None
    sweep_parameter: str | None
    sweep_values: tuple
    replications: int
    seed: int
    horizon: float
    warmup: float
    jobs: int | None
    outputs: tuple[str, ...]
    plot: PlotSpec | None
    validation: ValidationSpec | None
    config_sha256: str

    def with_overrides(self, *, seed=None, replications=None, horizon=None,
                       warmup=None, outputs=None) -> "ExperimentConfig":
        cfg = dataclasses.replace(
            self,
            **{
                k: v
                for k, v in {
                    "seed": seed,
                    "replications": replications,
                    "horizon": horizon,
                    "warmup": warmup,
                    "outputs": outputs,
                }.items()
                if v is not None
            },
        )
        _check_run_numbers(cfg.replications, cfg.seed, cfg.horizon, cfg.warmup)
        return cfg


_TOP_KEYS = ("schema", "experiment", "model", "antipattern", "sweep", "run", "outputs", "plot", "validation")
_RUN_KEYS = ("replications", "seed", "horizon_msec", "warmup_msec", "jobs")


def _check_run_numbers(replications: int, seed: int, horizon: float, warmup: float) -> None:
    if replications < 2:
        raise ConfigError(f"run.replications: need at least 2 for interval estimates, got {replications}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"run.seed: must fit in 64 bits, got {seed}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ConfigError(f"run.horizon_msec: must be positive and finite, got {horizon}")
    if not (0 <= warmup < horizon):
        raise ConfigError(f"run.warmup_msec: must satisfy 0 <= warmup < horizon, got {warmup}")


def parse_config(doc, *, digest: str = "") -> ExperimentConfig:
    """Parse an already-loaded YAML document (a mapping)."""
    doc = _mapping(doc, "config")
    _check_keys(doc, _TOP_KEYS, "config")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema: expected {SCHEMA_VERSION!r}, got {doc.get('schema')!r}"
        )
    if "experiment" not in doc:
        raise ConfigError("experiment: a name is required")
    experiment = _string(doc["experiment"], "experiment")
    if not experiment or any(c in experiment for c in "/\\ \t"):
        raise ConfigError(f"experiment: {experiment!r} must be a non-empty name without slashes or spaces")
    if "model" not in doc:
        raise ConfigError("model: section is required")

    model_section = _mapping(doc["model"], "model")
    antipattern_section = doc.get("antipattern")
    if antipattern_section is not None:
        antipattern_section = _mapping(antipattern_section, "antipattern")

    run = _mapping(doc.get("run", {}), "run")
    _check_keys(run, _RUN_KEYS, "run")
    if "replications" not in run or "seed" not in run:
        raise ConfigError("run: replications and seed are required")
    replications = _integer(run["replications"], "run.replications")
    seed = _integer(run["seed"], "run.seed")
    horizon = _number(run.get("horizon_msec", 1e5), "run.horizon_msec")
    warmup = _number(run.get("warmup_msec", 0.0), "run.warmup_msec")
    _check_run_numbers(replications, seed, horizon, warmup)
    jobs = run.get("jobs")
    if jobs is not None:
        jobs = _integer(jobs, "run.jobs")
        if jobs < 1:
            raise ConfigError(f"run.jobs: must be >= 1, got {jobs}")

    outputs = tuple(doc.get("outputs", ["csv"]))
    bad = [o for o in outputs if o not in OUTPUT_FORMATS]
    if bad or not outputs:
        raise ConfigError(
            f"outputs: expected a non-empty subset of {', '.join(OUTPUT_FORMATS)}; got {list(outputs)!r}"
        )

    sweep_parameter, sweep_values = None, ()
    if doc.get("sweep") is not None:
        sweep = _mapping(doc["sweep"], "sweep")
        _check_keys(sweep, ("parameter", "values"), "sweep")
        if "parameter" not in sweep or "values" not in sweep:
            raise ConfigError("sweep: parameter and values are required")
        sweep_parameter = _string(sweep["parameter"], "sweep.parameter")
        sweep_values = tuple(_sequence(sweep["values"], "sweep.values"))
        if not sweep_values:
            raise ConfigError("sweep.values: must be non-empty")
        _validate_sweep_path(sweep_parameter, model_section, antipattern_section)

    plot = _parse_plot(doc["plot"]) if doc.get("plot") is not None else None
    if "svg" in outputs and plot is None:
        raise ConfigError("outputs: svg requested but no plot section given")

    validation = _parse_validation(doc["validation"]) if doc.get("validation") is not None else None
    if validation is not None and sweep_parameter is not None:
        raise ConfigError("validation: cannot be combined with a sweep")

    # Trial build now: a broken model should fail at parse time, not
    # mid-experiment, and sweep values must each produce a buildable model.
    probe_points = sweep_values if sweep_parameter else (None,)
    cfg = ExperimentConfig(
        experiment=experiment,
        model=model_section,
        antipattern=antipattern_section,
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        replications=replications,
        seed=seed,
        horizon=horizon,
        warmup=warmup,
        jobs=jobs,
        outputs=outputs,
        plot=plot,
        validation=validation,
        config_sha256=digest,
    )
    for value in probe_points:
        if sweep_parameter:
            ms, aps = apply_sweep_value(cfg, value)
        else:
            ms, aps = model_section, antipattern_section
        try:
            net = build_model_from_config(ms, aps)
        except ConfigError as exc:
            spot = f" (sweep {sweep_parameter} = {value!r})" if sweep_parameter else ""
            raise ConfigError(f"{exc}{spot}") from exc
        diags = qm.validate_model(net)
        if diags:
            spot = f" (sweep {sweep_parameter} = {value!r})" if sweep_parameter else ""
            raise ConfigError("model does not validate" + spot + ":\n  " + "\n  ".join(diags))
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read, parse and validate an experiment config file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(data)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_config(doc, digest=hashlib.sha256(data).hexdigest())
