"""Experiment configuration: schema v1 parsing and model construction.

One YAML file describes a whole experiment: the model (a named builder
with parameters, or an inline topology), an optional antipattern
transformation, an optional one-dimensional parameter sweep, run
controls (replications, seed, horizon, warmup), the requested output
formats, an optional plot description and an optional analytic
validation block.

The schema is a set of dataclasses, one per section: _Document (the top
level), _Run, _Sweep, _InlineModel with model.Station, model.JobClass
and _Route, PlotSpec with SeriesSpec, ValidationSpec with
egraph.EgScenario, egraph.Loop and _Arm, the builder parameter sets and
the antipattern parameter sets, one per kind in antipatterns.SPECS (the
``kind`` key picks the set; a key of another kind is unknown). Each
field is one YAML key; a field with no default is required, and its
annotation picks its parser in _FIELD_PARSERS. Every section is closed
(unknown keys are errors), every list must be non-empty, and every error
names the full key path, such as ``model.routing[2].from``. Where a
YAML key differs from the field name, the field's metadata names it:
``class`` (job_class; class_name in scenarios), ``from`` (frm),
``arrival_rate_per_msec`` (arrival_rate), ``graph`` (root), ``body`` (a
loop's child), ``horizon_msec`` and ``warmup_msec`` (horizon and
warmup).

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
``antipattern.<field>``, a field of the section's kind; anything else is
rejected by name.

Each sweep point's model is built and validated at parse time, and the
sections that refer to it are checked against it before any replication
runs: every plot series must name an estimate the model has (the metric
names per station kind are model.METRICS), and for a validation section
every scenario graph must reduce, the scenarios and the model's classes
must pair off one to one, and each class's comparison resource must
carry demand in its scenario and be an fcfs station serving the class.

All numbers accept plain YAML scalars; numeric strings are coerced so
``1e6`` works regardless of the YAML float grammar corner cases.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import antipatterns, model as qm
from .egraph import Basic, Branch, EgError, EgNode, EgScenario, Loop, Sequence, check_scenarios, reduce
from .model import JobClass, Station

SCHEMA_VERSION = "v1"
OUTPUT_FORMATS = ("csv", "svg", "table")


class ConfigError(ValueError):
    """Anything wrong with an experiment configuration."""


# ---------------------------------------------------------------------------
# scalar coercion


def _number(value, where: str) -> float:
    """Coerce to float, accepting numeric strings and inf spellings; NaN
    is rejected (the model checks do not catch it, and a run on it reads 0)."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float, str)):
        try:
            number = float(value)
        except (ValueError, OverflowError):  # OverflowError: an int past float range
            pass
        else:
            if not math.isnan(number):
                return number
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


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed), key=repr)  # keys need not be strings
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


# ---------------------------------------------------------------------------
# distributions

# kind -> (keys it needs, keys it takes exactly one of, what it takes)
_DIST_KEYS = {
    "exponential": (set(), {"rate_per_msec", "mean_msec"}, "exactly one of rate_per_msec, mean_msec"),
    "deterministic": ({"value_msec"}, set(), "value_msec"),
    "erlang": ({"phases"}, {"rate_per_msec", "mean_msec"}, "phases plus one of rate_per_msec, mean_msec"),
    "uniform": ({"low_msec", "high_msec"}, set(), "low_msec and high_msec"),
    "shifted": ({"offset_msec", "base"}, set(), "offset_msec and base"),
    "mixture": ({"p_extra", "base", "extra"}, set(), "p_extra, base and extra"),
}


def parse_distribution(node, where: str) -> qm.Distribution:
    node = _mapping(node, where)
    kind = _string(node.get("kind", ""), f"{where}.kind") if "kind" in node else ""
    if kind not in _DIST_KEYS:
        raise ConfigError(
            f"{where}: unknown distribution kind {kind!r} "
            f"(expected one of {', '.join(sorted(_DIST_KEYS))})"
        )
    needs, one_of, takes = _DIST_KEYS[kind]
    _check_keys(node, needs | one_of | {"kind"}, where)
    if not needs <= set(node) or (one_of and len(one_of & set(node)) != 1):
        raise ConfigError(f"{where}: {kind} takes {takes}")

    def number(key):
        return _number(node[key], f"{where}.{key}")

    def dist(key):
        return parse_distribution(node[key], f"{where}.{key}")

    def mean():
        value = number("mean_msec")
        if value <= 0:
            raise ConfigError(f"{where}.mean_msec: must be positive")
        return value

    if kind == "exponential":
        if "rate_per_msec" in node:
            return qm.Exponential(number("rate_per_msec"))
        return qm.Exponential(1.0 / mean())
    if kind == "deterministic":
        return qm.Deterministic(number("value_msec"))
    if kind == "erlang":
        phases = _integer(node["phases"], f"{where}.phases")
        return qm.Erlang(phases, number("rate_per_msec") if "rate_per_msec" in node else phases / mean())
    if kind == "uniform":
        return qm.Uniform(number("low_msec"), number("high_msec"))
    if kind == "shifted":
        return qm.Shifted(number("offset_msec"), dist("base"))
    return qm.Mixture(number("p_extra"), dist("base"), dist("extra"))


# ---------------------------------------------------------------------------
# section dataclasses (the ones not reused from model, egraph and
# antipatterns)

Targets = tuple  # a station name, or ((station, probability), ...)
WorkerCount = int  # a worker count, at least 1


@dataclass(frozen=True)
class _Route:
    """One routing row of an inline model."""

    job_class: str = field(metadata={"key": "class"})
    frm: str = field(metadata={"key": "from"})
    to: Targets


@dataclass(frozen=True)
class _InlineModel:
    builder: str
    stations: tuple[Station, ...]
    classes: tuple[JobClass, ...]
    routing: tuple[_Route, ...]
    name: str = "inline"


@dataclass(frozen=True)
class SeriesSpec:
    station: str
    job_class: str = field(metadata={"key": "class"})
    metric: str
    label: str | None = None  # None: the metric name

    def __post_init__(self):
        if self.label is None:
            object.__setattr__(self, "label", self.metric)


@dataclass(frozen=True)
class PlotSpec:
    series: tuple[SeriesSpec, ...]
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    x_scale: str = "linear"  # linear | log
    annotate_minimum: bool = False

    def __post_init__(self):
        if self.x_scale not in ("linear", "log"):
            raise ConfigError(f"plot.x_scale: expected linear or log, got {self.x_scale!r}")


@dataclass(frozen=True)
class _Arm:
    """One alternative of an execution graph branch."""

    probability: float
    node: EgNode


@dataclass(frozen=True)
class ValidationSpec:
    scenarios: tuple[EgScenario, ...]
    resource_map: dict[str, str]
    decimals: int = 2

    def __post_init__(self):
        if self.decimals not in (1, 2):
            raise ConfigError(f"validation.decimals: expected 1 or 2, got {self.decimals}")


@dataclass(frozen=True)
class _Run:
    replications: int
    seed: int
    horizon: float = field(default=1e5, metadata={"key": "horizon_msec"})
    warmup: float = field(default=0.0, metadata={"key": "warmup_msec"})
    jobs: WorkerCount | None = None


@dataclass(frozen=True)
class _Sweep:
    parameter: str
    values: tuple[object, ...]


@dataclass(frozen=True)
class _Document:
    schema: str
    experiment: str
    model: dict  # kept raw: sweep points patch and rebuild it
    run: _Run
    antipattern: dict | None = None  # kept raw, as model
    sweep: _Sweep | None = None
    outputs: tuple[str, ...] = ("csv",)
    plot: PlotSpec | None = None
    validation: ValidationSpec | None = None


# ---------------------------------------------------------------------------
# field parsers


def _unbounded_integer(value, where: str) -> int | None:
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return None
    return _integer(value, where)


def _worker_count(value, where: str) -> int:
    jobs = _integer(value, where)
    if jobs < 1:
        raise ConfigError(f"{where}: must be >= 1, got {jobs}")
    return jobs


def _optional(parse):
    """parse, with null allowed (and kept as None)."""
    return lambda value, where: None if value is None else parse(value, where)


def _list_of(parse):
    """A non-empty list, item i parsed at where[i]."""
    def parse_list(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        if not value:
            raise ConfigError(f"{where}: must be non-empty")
        return tuple(parse(item, f"{where}[{i}]") for i, item in enumerate(value))
    return parse_list


def _dict_of(parse):
    """A mapping from string keys to values parsed at where[key]."""
    return lambda value, where: {
        _string(key, f"{where} key"): parse(item, f"{where}[{key}]")
        for key, item in _mapping(value, where).items()
    }


def _section(cls):
    return lambda value, where: _parse_fields(cls, value, where)


def _targets(value, where: str):
    if isinstance(value, str):
        return value
    return tuple(_FIELD_PARSERS["dict[str, float]"](value, where).items())


_EG_NODES = {
    "basic": lambda body, where: Basic(_FIELD_PARSERS["dict[str, float]"](body, where)),
    "seq": lambda body, where: Sequence(*_FIELD_PARSERS["tuple[EgNode, ...]"](body, where)),
    "branch": lambda body, where: Branch(
        *((arm.probability, arm.node) for arm in _FIELD_PARSERS["tuple[_Arm, ...]"](body, where))
    ),
    "loop": _section(Loop),
}


def _parse_eg_node(node, where: str):
    node = _mapping(node, where)
    if len(node) != 1 or next(iter(node)) not in _EG_NODES:
        raise ConfigError(
            f"{where}: execution graph node must be exactly one of {', '.join(_EG_NODES)}"
        )
    ((tag, body),) = node.items()
    try:
        return _EG_NODES[tag](body, f"{where}.{tag}")
    except EgError as exc:  # a negative basic demand
        raise ConfigError(f"{where}.{tag}: {exc}") from exc


# Parser for each field annotation of the section dataclasses, the builder
# parameter sets and the antipattern parameter sets. ``int | None`` is an
# optional bound: null or an infinite number means unbounded.
_FIELD_PARSERS = {
    "bool": _boolean,
    "int": _integer,
    "int | None": _unbounded_integer,
    "WorkerCount | None": _optional(_worker_count),
    "float": _number,
    "str": _string,
    "str | None": _optional(_string),
    "dict": _mapping,
    "dict | None": _optional(_mapping),
    "Distribution": parse_distribution,
    "Distribution | None": _optional(parse_distribution),
    "Targets": _targets,
    "EgNode": _parse_eg_node,
    "tuple[object, ...]": _list_of(lambda value, where: value),
    "tuple[str, ...]": _list_of(_string),
    "tuple[str, ...] | None": _optional(_list_of(_string)),
    "tuple[EgNode, ...]": _list_of(_parse_eg_node),
    "dict[str, float]": _dict_of(_number),
    "dict[str, str]": _dict_of(_string),
    "dict[str, Distribution]": _dict_of(parse_distribution),
    "tuple[Station, ...]": _list_of(_section(Station)),
    "tuple[JobClass, ...]": _list_of(_section(JobClass)),
    "tuple[_Route, ...]": _list_of(_section(_Route)),
    "tuple[SeriesSpec, ...]": _list_of(_section(SeriesSpec)),
    "tuple[_Arm, ...]": _list_of(_section(_Arm)),
    "tuple[EgScenario, ...]": _list_of(_section(EgScenario)),
    "Loop": _section(Loop),
    "_Run": _section(_Run),
    "_Sweep | None": _optional(_section(_Sweep)),
    "PlotSpec | None": _optional(_section(PlotSpec)),
    "ValidationSpec | None": _optional(_section(ValidationSpec)),
}


def _parse_fields(cls, section, where: str):
    """Dataclass cls from a config mapping: each field read from its YAML
    key (metadata "key", else its name) by the table entry for its
    annotation. where is the section's key path, "" at the top level.
    What cls's own checks reject is a config error at where."""
    section = _mapping(section, where or "config")
    fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    _check_keys(section, fields, where or "config")
    kwargs = {}
    for key, f in fields.items():
        spot = f"{where}.{key}" if where else key
        if key in section:
            kwargs[f.name] = _FIELD_PARSERS[f.type](section[key], spot)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{spot}: required key is missing")
    try:
        return cls(**kwargs)
    except EgError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# model section

_BUILDER_PARAMS = {
    "baseline": qm.BaselineParams,
    "sensor-net": qm.SensorNetParams,
}


def _build_inline(spec: _InlineModel) -> qm.NetworkModel:
    routing = qm.RoutingTable()
    for row in spec.routing:
        routing.add(row.job_class, row.frm, row.to)
    return qm.NetworkModel(
        name=spec.name,
        # fcfs is the short spelling of the queueing kind
        stations=[dataclasses.replace(s, kind=qm.FCFS) if s.kind == "fcfs" else s for s in spec.stations],
        classes=list(spec.classes),
        routing=routing,
        description="inline topology from experiment config",
    )


def _spec_class(section) -> type:
    """The parameter set of the antipattern kind section names."""
    section = _mapping(section, "antipattern")
    if "kind" not in section:
        raise ConfigError("antipattern.kind: required key is missing")
    kind = _string(section["kind"], "antipattern.kind")
    if kind not in antipatterns.SPECS:
        raise ConfigError(
            f"antipattern.kind: unknown kind {kind!r} "
            f"(expected one of {', '.join(antipatterns.SPECS)})"
        )
    return antipatterns.SPECS[kind]


def parse_antipattern(section: dict) -> antipatterns.Spec:
    spec_class = _spec_class(section)
    params = {key: value for key, value in section.items() if key != "kind"}
    return _parse_fields(spec_class, params, "antipattern")


def build_model_from_config(model_section: dict, antipattern_section: dict | None) -> qm.NetworkModel:
    """Construct (and transform) the network a config describes.

    Pure function of the two sections, so each sweep point builds its
    model from patched copies.
    """
    section = _mapping(model_section, "model")
    builder = _string(section.get("builder", ""), "model.builder") if "builder" in section else ""
    if builder == "inline":
        net = _build_inline(_parse_fields(_InlineModel, section, "model"))
    elif builder in _BUILDER_PARAMS:
        _check_keys(section, ("builder", "params"), "model")
        params = _parse_fields(_BUILDER_PARAMS[builder], section.get("params", {}), "model.params")
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
            net = antipatterns.apply(net, spec)
        except antipatterns.TransformError as exc:
            raise ConfigError(f"antipattern: {exc}") from exc
    return net


# ---------------------------------------------------------------------------
# sweep and validation checks


def _validate_sweep_path(path: str, model_section: dict, antipattern_section: dict | None) -> None:
    """A sweep path must name a known field of the builder's parameter
    set or of the antipattern kind's parameter set; the instance may omit
    the key (its default is then swept)."""
    parts = path.split(".")
    if len(parts) == 3 and parts[:2] == ["model", "params"]:
        builder = model_section.get("builder")
        if not isinstance(builder, str) or builder not in _BUILDER_PARAMS:
            raise ConfigError(
                f"sweep.parameter: {path!r} needs a parameterized builder, "
                f"but model.builder is {builder!r}"
            )
        if parts[2] not in {f.name for f in dataclasses.fields(_BUILDER_PARAMS[builder])}:
            raise ConfigError(
                f"sweep.parameter: {path!r} does not resolve "
                f"({builder} has no parameter {parts[2]!r})"
            )
    elif len(parts) == 2 and parts[0] == "antipattern":
        if antipattern_section is None:
            raise ConfigError(f"sweep.parameter: {path!r} does not resolve (no antipattern section)")
        spec_class = _spec_class(antipattern_section)
        if parts[1] not in {f.name for f in dataclasses.fields(spec_class)}:
            raise ConfigError(
                f"sweep.parameter: {path!r} does not resolve "
                f"({spec_class.kind} has no parameter {parts[1]!r})"
            )
    else:
        raise ConfigError(
            f"sweep.parameter: {path!r} does not resolve "
            "(expected model.params.<name> or antipattern.<name>)"
        )


def apply_sweep_value(cfg: "ExperimentConfig", value):
    """Patched (model_section, antipattern_section) pair for one sweep point."""
    model_section = copy.deepcopy(cfg.model)
    antipattern_section = copy.deepcopy(cfg.antipattern)
    parts = cfg.sweep_parameter.split(".")
    if parts[0] == "model":
        model_section.setdefault("params", {})[parts[2]] = value
    else:
        antipattern_section[parts[1]] = value
    return model_section, antipattern_section


def _metric_keys(net: qm.NetworkModel) -> set[tuple[str, str, str]]:
    """The (station, class, metric) keys a replication of net estimates."""
    keys = {(qm.SYSTEM_STATION, jc.name, m) for jc in net.classes for m in qm.METRICS[qm.SYSTEM_STATION]}
    for st in net.stations:
        for cname in (*st.service, qm.ALL_CLASSES):
            keys.update((st.name, cname, m) for m in qm.METRICS.get(st.kind, ()))
    return keys


def _check_validation(spec: ValidationSpec, net: qm.NetworkModel) -> None:
    """The scenario graphs reduce, the scenarios pair off with the
    model's classes and each class's comparison resource has a
    utilization estimate for it, so the validation table cannot fail
    after the replications have run."""
    for i, scenario in enumerate(spec.scenarios):
        try:
            reduce(scenario.root)
        except EgError as exc:
            raise ConfigError(f"validation.scenarios[{i}].graph: {exc}") from exc
    try:
        check_scenarios(spec.scenarios, [jc.name for jc in net.classes], spec.resource_map)
    except EgError as exc:
        raise ConfigError(f"validation: {exc}") from exc
    keys = _metric_keys(net)
    for cname, resource in spec.resource_map.items():
        if (resource, cname, "utilization") not in keys:
            raise ConfigError(
                f"validation.resource_map.{cname}: {resource!r} is not an fcfs station "
                f"serving class {cname!r}, so it has no utilization to compare"
            )


# ---------------------------------------------------------------------------
# experiment config


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully parsed experiment description.

    model and antipattern are kept as raw (normalized) mappings so each
    sweep point can patch and rebuild them; everything else is parsed to
    typed values up front. Construction (and so with_overrides) checks
    the run numbers and that svg output has a plot to draw.
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

    def __post_init__(self):
        if self.replications < 2:
            raise ConfigError(
                f"run.replications: need at least 2 for interval estimates, got {self.replications}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"run.seed: must fit in 64 bits, got {self.seed}")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ConfigError(f"run.horizon_msec: must be positive and finite, got {self.horizon}")
        if not (0 <= self.warmup < self.horizon):
            raise ConfigError(f"run.warmup_msec: must satisfy 0 <= warmup < horizon, got {self.warmup}")
        if "svg" in self.outputs:
            if self.plot is None:
                raise ConfigError("outputs: svg requested but no plot section given")
            for v in self.sweep_values:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(f"plot: sweep values must be numeric to plot, got {v!r}")

    def with_overrides(self, *, seed=None, replications=None, horizon=None,
                       warmup=None, outputs=None) -> "ExperimentConfig":
        given = {"seed": seed, "replications": replications, "horizon": horizon,
                 "warmup": warmup, "outputs": outputs}
        return dataclasses.replace(self, **{k: v for k, v in given.items() if v is not None})

    def points(self):
        """(sweep value, built and validated model) for each sweep point in
        order; a config without a sweep has one point, value None."""
        sweep = self.sweep_parameter is not None
        for value in self.sweep_values if sweep else (None,):
            sections = apply_sweep_value(self, value) if sweep else (self.model, self.antipattern)
            spot = f" (sweep {self.sweep_parameter} = {value!r})" if sweep else ""
            try:
                net = build_model_from_config(*sections)
            except ConfigError as exc:
                raise ConfigError(f"{exc}{spot}") from exc
            diags = qm.validate_model(net)
            if diags:
                raise ConfigError("model does not validate" + spot + ":\n  " + "\n  ".join(diags))
            yield value, net


def parse_config(doc, *, digest: str = "") -> ExperimentConfig:
    """Parse an already-loaded YAML document (a mapping)."""
    doc = _mapping(doc, "config")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema: expected {SCHEMA_VERSION!r}, got {doc.get('schema')!r}"
        )
    top = _parse_fields(_Document, doc, "")
    experiment = top.experiment
    if not experiment or any(c in experiment for c in "/\\ \t"):
        raise ConfigError(f"experiment: {experiment!r} must be a non-empty name without slashes or spaces")
    outputs = top.outputs
    if any(o not in OUTPUT_FORMATS for o in outputs):
        raise ConfigError(
            f"outputs: expected a non-empty subset of {', '.join(OUTPUT_FORMATS)}; got {list(outputs)!r}"
        )

    sweep = top.sweep
    if sweep is not None:
        _validate_sweep_path(sweep.parameter, top.model, top.antipattern)
        if top.validation is not None:
            raise ConfigError("validation: cannot be combined with a sweep")

    cfg = ExperimentConfig(
        experiment=experiment,
        model=top.model,
        antipattern=top.antipattern,
        sweep_parameter=sweep.parameter if sweep else None,
        sweep_values=sweep.values if sweep else (),
        replications=top.run.replications,
        seed=top.run.seed,
        horizon=top.run.horizon,
        warmup=top.run.warmup,
        jobs=top.run.jobs,
        outputs=outputs,
        plot=top.plot,
        validation=top.validation,
        config_sha256=digest,
    )
    # Trial build now: a broken model, plot or validation section should
    # fail at parse time, not after the replications have run.
    for value, net in cfg.points():
        keys = _metric_keys(net)
        for i, sel in enumerate(cfg.plot.series if cfg.plot is not None else ()):
            if (sel.station, sel.job_class, sel.metric) not in keys:
                raise ConfigError(
                    f"plot.series[{i}]: no estimate for station={sel.station!r} "
                    f"class={sel.job_class!r} metric={sel.metric!r}"
                    + (f" (sweep {sweep.parameter} = {value!r})" if sweep else "")
                )
    if cfg.validation is not None:
        _check_validation(cfg.validation, net)
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
