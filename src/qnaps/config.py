"""Experiment configuration: schema v1 parsing and model construction.

One YAML file describes a whole experiment: the model (a named builder
with parameters, or an inline topology), an optional antipattern
transformation, an optional one-dimensional parameter sweep, run
controls (replications, seed, horizon, warmup), the requested output
formats, an optional plot description and an optional analytic
validation block.

The schema is a set of records (qnaps.records), one per section:
_Document (the top level), _Run, _Sweep, _InlineModel with
model.Station, model.JobClass and _Route, PlotSpec with SeriesSpec,
ValidationSpec with egraph.EgScenario, egraph.Loop and _Arm, the builder
parameter sets and the antipattern parameter sets, one per kind in
antipatterns.SPECS, and the distributions of model.Distribution (the
``builder`` and ``kind`` keys pick the set; a key of another set is
unknown). Each field is one YAML key; a field with no default is
required, and its annotation picks its parser in _FIELD_PARSERS. Every
section is closed (unknown keys are errors), every list must be
non-empty, and every error names the full key path, such as
``model.routing[2].from``. Where a YAML key differs from the field name,
the field's Field(key=...) names it: ``class`` (job_class; class_name in
scenarios), ``from`` (frm), ``arrival_rate_per_msec`` (arrival_rate),
``graph`` (root), ``body`` (a loop's child), ``horizon_msec`` and
``warmup_msec`` (horizon and warmup), and the distributions' ``_msec``
keys (rate, value, low, high and offset).

Schema v1, top level::

    schema: v1
    experiment: <name>          # used in CSV rows and output file stems
    model: {...}                # required, see below
    antipattern: {...}          # optional
    sweep: {parameter: <dotted path>, values: [...]}   # optional
    run: {replications, seed, horizon_msec, warmup_msec}
    outputs: [csv, svg, table]
    plot: {...}                 # required when svg is requested
    validation: {...}           # optional, incompatible with sweep

Model section: either ``builder: baseline | sensor-net`` plus a
``params`` mapping whose keys mirror the builder's parameter fields, or
``builder: inline`` with explicit ``stations``, ``classes`` and
``routing`` lists. A distribution is a section whose ``kind`` picks its
record::

    {kind: exponential, rate_per_msec: r}   or {kind: exponential, mean_msec: m}
    {kind: deterministic, value_msec: v}    # .inf parks jobs at a delay
    {kind: erlang, phases: k, rate_per_msec: r}  or mean_msec
    {kind: uniform, low_msec: a, high_msec: b}
    {kind: shifted, offset_msec: o, base: {...}}
    {kind: mixture, p_extra: p, base: {...}, extra: {...}}

An exponential or Erlang takes exactly one of ``rate_per_msec`` and
``mean_msec``, the one key no record has: a positive mean m stands for
the rate phases / m.

A sweep parameter names a field of a parsed set, ``model.params.<field>``
(not of an inline model) or ``antipattern.<field>``, which the config may
omit (its default is then swept over); anything else is rejected by
name. A sweep point replaces that one field by the value as the field's
parser reads it, so ``1e-2`` sweeps a float field as 0.01 (and collides
with a later 0.01: no point may be listed twice).

parse_config builds and validates each point's model once, and checks
the sections that refer to it before any replication runs: every plot
series must name an estimate the model has (the metric names per
station kind are model.METRICS), and for a validation section the
scenarios and the model's classes must pair off one to one, and each
class's comparison resource must carry demand in its scenario and be an
fcfs station serving the class. An execution graph node checks itself
when built (egraph), so an unsound branch, loop or demand is refused at
the node's own key path, such as ``validation.scenarios[0].graph.branch``.

All numbers accept plain YAML scalars; numeric strings are coerced so
``1e6`` works regardless of the YAML float grammar corner cases.

load_config reads the file with qnaps.yamldoc, not PyYAML: block and
flow mappings and sequences, plain and quoted scalars, comments, one
leading ``---`` and one closing ``...``, with plain scalars resolved as
yaml.safe_load resolves them (YAML 1.1: ``yes`` is true, ``1e5`` a
string, ``1:30`` is 90).
Anchors, aliases, tags, block scalars (``|``, ``>``), ``?`` keys,
directives, a second document, tabs outside quotes and comments,
timestamps and merge keys are refused, naming the line and column, and
so is a key given twice, which PyYAML read as its last value.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from . import antipatterns, model as qm, render, sha256, yamldoc
from .egraph import Basic, Branch, EgError, EgNode, EgScenario, Loop, Sequence, check_scenarios
from .antipatterns import Spec
from .model import JobClass, Station
from .records import Field, FrozenRecord, fields, replace

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


def _tag(section, tag: str, table: dict, where: str) -> tuple[str, dict]:
    """(name, rest): the entry of table that a tagged section's tag key
    names (it picks the section's other keys), and the section without it."""
    section = _mapping(section, where)
    if tag not in section:
        raise ConfigError(f"{where}.{tag}: required key is missing")
    name = _string(section[tag], f"{where}.{tag}")
    if name not in table:
        raise ConfigError(f"{where}.{tag}: unknown {tag} {name!r} (expected one of {', '.join(table)})")
    return name, {key: value for key, value in section.items() if key != tag}


# ---------------------------------------------------------------------------
# distributions

_DISTRIBUTIONS = {cls.kind: cls for cls in qm.Distribution.__args__}


def parse_distribution(node, where: str) -> qm.Distribution:
    """The distribution record a section tagged by kind describes. An
    exponential or Erlang takes exactly one of rate_per_msec and
    mean_msec; a mean stands for the rate phases / mean, with one phase
    for an exponential."""
    kind, rest = _tag(node, "kind", _DISTRIBUTIONS, where)
    if kind in ("exponential", "erlang"):
        if ("rate_per_msec" in rest) == ("mean_msec" in rest):
            raise ConfigError(f"{where}: {kind} takes exactly one of rate_per_msec, mean_msec")
        if "mean_msec" in rest:
            mean = _number(rest.pop("mean_msec"), f"{where}.mean_msec")
            if not mean > 0:
                raise ConfigError(f"{where}.mean_msec: must be positive")
            phases = _integer(rest.get("phases", 1), f"{where}.phases") if kind == "erlang" else 1
            try:
                rest["rate_per_msec"] = phases / mean
            except OverflowError:
                raise ConfigError(f"{where}.phases: too many phases for a float rate") from None
    return _parse_fields(_DISTRIBUTIONS[kind], rest, where)


# ---------------------------------------------------------------------------
# section records (the ones not reused from model, egraph and
# antipatterns)

Targets = tuple  # a station name, or ((station, probability), ...)


class _Route(FrozenRecord):
    """One routing row of an inline model."""

    job_class: str = Field(key="class")
    frm: str = Field(key="from")
    to: Targets


class _InlineModel(FrozenRecord):
    stations: tuple[Station, ...]
    classes: tuple[JobClass, ...]
    routing: tuple[_Route, ...]
    name: str = "inline"


ModelParams = qm.BaselineParams | qm.SensorNetParams | _InlineModel


class SeriesSpec(FrozenRecord):
    station: str
    job_class: str = Field(key="class")
    metric: str
    label: str | None = None  # None: the metric name

    def __post_init__(self):
        if self.label is None:
            object.__setattr__(self, "label", self.metric)


class PlotSpec(FrozenRecord):
    series: tuple[SeriesSpec, ...]
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    x_scale: str = "linear"  # linear | log
    annotate_minimum: bool = False

    def __post_init__(self):
        if self.x_scale not in ("linear", "log"):
            raise ConfigError(f"plot.x_scale: expected linear or log, got {self.x_scale!r}")


class _Arm(FrozenRecord):
    """One alternative of an execution graph branch."""

    probability: float
    node: EgNode


class ValidationSpec(FrozenRecord):
    scenarios: tuple[EgScenario, ...]
    resource_map: dict[str, str]
    decimals: int = 2

    def __post_init__(self):
        if self.decimals not in (1, 2):
            raise ConfigError(f"validation.decimals: expected 1 or 2, got {self.decimals}")


class _Run(FrozenRecord):
    replications: int
    seed: int
    horizon: float = Field(default=1e5, key="horizon_msec")
    warmup: float = Field(default=0.0, key="warmup_msec")


class _Sweep(FrozenRecord):
    parameter: str
    values: tuple[object, ...]


class _Document(FrozenRecord):
    schema: str
    experiment: str
    model: ModelParams
    run: _Run
    antipattern: Spec | None = None
    sweep: _Sweep | None = None
    outputs: tuple[str, ...] = ("csv",)
    plot: PlotSpec | None = None
    validation: ValidationSpec | None = None


# ---------------------------------------------------------------------------
# field parsers


def _unbounded_integer(value, where: str) -> int | None:
    """null or +inf: unbounded (None); else an integer, which -inf is not."""
    if value is None or value == math.inf:
        return None
    return _integer(value, where)


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
    except EgError as exc:  # a negative basic demand, an unsound branch
        raise ConfigError(f"{where}.{tag}: {exc}") from exc


# ---------------------------------------------------------------------------
# tagged sections: the model and the antipattern


def _build_inline(spec: _InlineModel) -> qm.NetworkModel:
    routing = qm.RoutingTable()
    for row in spec.routing:
        routing.add(row.job_class, row.frm, row.to)
    return qm.NetworkModel(
        name=spec.name,
        # fcfs is the short spelling of the queueing kind
        stations=[replace(s, kind=qm.FCFS) if s.kind == "fcfs" else s for s in spec.stations],
        classes=list(spec.classes),
        routing=routing,
    )


# builder -> (its parameter set, the function that builds the network)
_BUILDERS = {
    "baseline": (qm.BaselineParams, qm.build_baseline),
    "sensor-net": (qm.SensorNetParams, qm.build_sensor_net),
    "inline": (_InlineModel, _build_inline),
}


def _builder(model: ModelParams) -> str:
    return next(name for name, (params_class, _) in _BUILDERS.items() if type(model) is params_class)


def parse_model(section, where: str = "model") -> ModelParams:
    """The builder's parameter set a model section describes. An inline
    model's keys sit beside its builder key, other builders' under params."""
    builder, rest = _tag(section, "builder", _BUILDERS, where)
    if builder != "inline":
        _check_keys(rest, ("params",), where)
        rest, where = rest.get("params", {}), f"{where}.params"
    return _parse_fields(_BUILDERS[builder][0], rest, where)


def parse_antipattern(section, where: str = "antipattern") -> Spec:
    """The antipattern kind's parameter set an antipattern section describes."""
    kind, rest = _tag(section, "kind", antipatterns.SPECS, where)
    return _parse_fields(antipatterns.SPECS[kind], rest, where)


# Parser for each field annotation of the section records, the builder
# parameter sets and the antipattern parameter sets. ``int | None`` is an
# optional bound: null or an infinite number means unbounded.
_FIELD_PARSERS = {
    "bool": _boolean,
    "int": _integer,
    "int | None": _unbounded_integer,
    "float": _number,
    "str": _string,
    "str | None": _optional(_string),
    "ModelParams": parse_model,
    "Spec | None": _optional(parse_antipattern),
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
    """Record cls from a config mapping: each field read from its YAML
    key (its Field key, else its name) by the table entry for its
    annotation. where is the section's key path, "" at the top level.
    What cls's own checks reject is a config error at where."""
    section = _mapping(section, where or "config")
    by_key = {f.key: f for f in fields(cls)}
    _check_keys(section, by_key, where or "config")
    kwargs = {}
    for key, f in by_key.items():
        spot = f"{where}.{key}" if where else key
        if key in section:
            kwargs[f.name] = _FIELD_PARSERS[f.type](section[key], spot)
        elif f.required:
            raise ConfigError(f"{spot}: required key is missing")
    try:
        return cls(**kwargs)
    except EgError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# models and sweep points


def build_model_from_config(model: ModelParams, antipattern: Spec | None) -> qm.NetworkModel:
    """The network the model parameter set describes, transformed by the
    antipattern parameter set when one is given. What a builder's own
    checks reject (sensor_count < 1) is a config error at model.params."""
    try:
        net = _BUILDERS[_builder(model)][1](model)
    except ValueError as exc:
        raise ConfigError(f"model.params: {exc}") from exc
    if antipattern is not None:
        try:
            net = antipatterns.apply(net, antipattern)
        except antipatterns.TransformError as exc:
            raise ConfigError(f"antipattern: {exc}") from exc
    return net


def _swept_field(parameter: str, model: ModelParams, antipattern: Spec | None) -> Field:
    """The field of the builder's or the antipattern kind's parameter set
    that a sweep parameter names."""
    root, _, name = parameter.rpartition(".")
    params = {"model.params": model, "antipattern": antipattern}.get(root)
    if params is None or type(params) is _InlineModel:
        raise ConfigError(
            f"sweep.parameter: {parameter!r} does not resolve (expected model.params.<name> "
            "of a baseline or sensor-net model, or antipattern.<name> of an antipattern section)"
        )
    for f in fields(params):
        if f.name == name:
            return f
    owner = params.kind if root == "antipattern" else _builder(params)
    raise ConfigError(f"sweep.parameter: {parameter!r} does not resolve ({owner} has no parameter {name!r})")


def _sweep_point(parameter: str, model: ModelParams, antipattern: Spec | None, value):
    """(model, antipattern, parsed) at one sweep value: parsed is the value
    as the swept field's parser reads it, at the sweep path, and it
    replaces that one field."""
    f = _swept_field(parameter, model, antipattern)
    parsed = _FIELD_PARSERS[f.type](value, parameter)
    if parameter.startswith("model."):
        model = replace(model, **{f.name: parsed})
    else:
        antipattern = replace(antipattern, **{f.name: parsed})
    return model, antipattern, parsed


def apply_sweep_value(cfg: ExperimentConfig, value) -> tuple[ModelParams, Spec | None]:
    """The (model, antipattern) parameter sets of the sweep point at value;
    cfg's own are left unchanged."""
    return _sweep_point(cfg.sweep_parameter, cfg.model, cfg.antipattern, value)[:2]


def _metric_keys(net: qm.NetworkModel) -> set[tuple[str, str, str]]:
    """The (station, class, metric) keys a replication of net estimates."""
    keys = {(qm.SYSTEM_STATION, jc.name, m) for jc in net.classes for m in qm.METRICS[qm.SYSTEM_STATION]}
    for st in net.stations:
        for cname in (*st.service, qm.ALL_CLASSES):
            keys.update((st.name, cname, m) for m in qm.METRICS.get(st.kind, ()))
    return keys


def _check_validation(spec: ValidationSpec, net: qm.NetworkModel) -> None:
    """The scenarios pair off with the model's classes and each class's
    comparison resource has a utilization estimate for it, so the
    validation table cannot fail after the replications have run."""
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


class Point(NamedTuple):
    """One sweep point (a config without a sweep has one, value None and
    x 0.0). x is where svg draws it: the value as the swept field parsed
    it, or None when that is not a number."""

    value: object  # as written in the config
    x: float | None
    model: qm.NetworkModel  # built and validated


class ExperimentConfig(FrozenRecord):
    """Fully parsed experiment description.

    model and antipattern are the parameter sets the config wrote, and
    sweep_values the sweep values as written; points are the sweep points
    in order, each with its built and validated model. Construction (and
    so with_overrides, which keeps the points) checks the run numbers and
    that svg output has a plot to draw.
    """

    experiment: str
    model: ModelParams
    antipattern: Spec | None
    sweep_parameter: str | None
    sweep_values: tuple
    replications: int
    seed: int
    horizon: float
    warmup: float
    outputs: tuple[str, ...]
    plot: PlotSpec | None
    validation: ValidationSpec | None
    config_sha256: str
    points: tuple[Point, ...] = Field(hidden=True)

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
        if "svg" in self.outputs and not self.plottable:
            raise ConfigError(self._unplottable())

    @property
    def plottable(self) -> bool:
        """svg output can draw this config: it has a plot section, the
        swept field parsed every sweep value to a finite number, a
        positive one on a log x scale, and a plot's x axis can hold them
        (render.x_axis)."""
        return self._unplottable() is None

    def _unplottable(self) -> str | None:
        """Why svg output cannot draw this config, or None when it can."""
        if self.plot is None:
            return "outputs: svg requested but no plot section given"
        for p in self.points:
            shown = p.value if self.sweep_parameter is not None else p.x
            if p.x is None:
                return f"plot: sweep values must be numeric to plot, got {shown!r}"
            if not math.isfinite(p.x):
                return f"plot: sweep values must be finite to plot, got {shown!r}"
            if self.plot.x_scale == "log" and p.x <= 0:
                return f"plot: x_scale log needs positive sweep values, got {shown!r}"
        log = self.plot.x_scale == "log"
        if render.x_axis([math.log10(p.x) if log else p.x for p in self.points], log) is None:
            shown = [p.value if self.sweep_parameter is not None else p.x for p in self.points]
            return f"plot: sweep values {shown!r} do not fit on a plot's x axis"
        return None

    def with_overrides(self, *, seed=None, replications=None, horizon=None,
                       warmup=None, outputs=None) -> "ExperimentConfig":
        given = {"seed": seed, "replications": replications, "horizon": horizon,
                 "warmup": warmup, "outputs": outputs}
        return replace(self, **{k: v for k, v in given.items() if v is not None})


def parse_config(doc, *, digest: str = "") -> ExperimentConfig:
    """Parse an already-loaded YAML document (a mapping)."""
    doc = _mapping(doc, "config")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"schema: expected {SCHEMA_VERSION!r}, got {doc.get('schema')!r}")
    top = _parse_fields(_Document, doc, "")
    experiment = top.experiment
    if not experiment or any(c in experiment for c in "/\\ \t"):
        raise ConfigError(f"experiment: {experiment!r} must be a non-empty name without slashes or spaces")
    if any(o not in OUTPUT_FORMATS for o in top.outputs):
        raise ConfigError(
            f"outputs: expected a non-empty subset of {', '.join(OUTPUT_FORMATS)}; got {list(top.outputs)!r}"
        )

    sweep = top.sweep
    if sweep is not None:
        _swept_field(sweep.parameter, top.model, top.antipattern)
        if top.validation is not None:
            raise ConfigError("validation: cannot be combined with a sweep")

    # Build each point now: a broken model, plot or validation section
    # fails at parse time, not after the replications have run.
    points, parsed_values = [], []
    for value in sweep.values if sweep else (None,):
        spot = f" (sweep {sweep.parameter} = {value!r})" if sweep else ""
        try:
            model, antipattern, parsed = (_sweep_point(sweep.parameter, top.model, top.antipattern, value)
                                          if sweep else (top.model, top.antipattern, 0.0))
            if parsed in parsed_values:  # the same model and seeds: the same rows twice
                raise ConfigError(f"sweep.values[{len(points)}]: the same point as "
                                  f"sweep.values[{parsed_values.index(parsed)}]")
            parsed_values.append(parsed)
            net = build_model_from_config(model, antipattern)
        except ConfigError as exc:
            raise ConfigError(f"{exc}{spot}") from exc
        diags = qm.validate_model(net)
        if diags:
            raise ConfigError("model does not validate" + spot + ":\n  " + "\n  ".join(diags))
        keys = _metric_keys(net)
        for i, sel in enumerate(top.plot.series if top.plot is not None else ()):
            if (sel.station, sel.job_class, sel.metric) not in keys:
                raise ConfigError(
                    f"plot.series[{i}]: no estimate for station={sel.station!r} "
                    f"class={sel.job_class!r} metric={sel.metric!r}{spot}"
                )
        number = isinstance(parsed, (int, float)) and not isinstance(parsed, bool)
        points.append(Point(value, float(parsed) if number else None, net))
    if top.validation is not None:
        _check_validation(top.validation, net)

    return ExperimentConfig(
        experiment=experiment,
        model=top.model,
        antipattern=top.antipattern,
        sweep_parameter=sweep.parameter if sweep else None,
        sweep_values=sweep.values if sweep else (),
        replications=top.run.replications,
        seed=top.run.seed,
        horizon=top.run.horizon,
        warmup=top.run.warmup,
        outputs=top.outputs,
        plot=top.plot,
        validation=top.validation,
        config_sha256=digest,
        points=tuple(points),
    )


def load_config(path) -> ExperimentConfig:
    """Read, parse and validate an experiment config file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = yamldoc.read(data.decode("utf-16" if data[:2] in (b"\xff\xfe", b"\xfe\xff") else "utf-8"))
    except ValueError as exc:  # UnicodeDecodeError too
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_config(doc, digest=sha256(data).hexdigest())
