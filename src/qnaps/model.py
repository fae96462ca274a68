"""Multiclass queueing network models.

Stations, job classes, service distributions, per-class probabilistic
routing, plus the two builders the experiment configs use. All times are
milliseconds and all rates are per millisecond.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# station kinds
FCFS = "fcfs-queue"
DELAY = "delay"
SOURCE = "source"
SINK = "sink"
STATION_KINDS = (FCFS, DELAY, SOURCE, SINK)

# names reserved by the metric layer for aggregate rows
SYSTEM_STATION = "system"
ALL_CLASSES = "all"

PROB_TOL = 1e-9


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution. rate 0 is allowed only for arrival
    processes and means the process never fires."""

    rate: float  # per msec

    kind = "exponential"

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        return cls(1.0 / mean)

    def mean(self) -> float:
        return math.inf if self.rate == 0.0 else 1.0 / self.rate

    def sampler(self, stream):
        if self.rate == 0.0:
            return stream.constant(math.inf)
        scale = 1.0 / self.rate
        return stream.batched_sampler(1, lambda u: -np.log1p(-u) * scale)


@dataclass(frozen=True)
class Deterministic:
    """Constant service time. value may be inf for a delay entry, in which
    case jobs park there forever (used by neutral transform settings)."""

    value: float

    kind = "deterministic"

    def mean(self) -> float:
        return self.value

    def sampler(self, stream):
        return stream.constant(self.value)


@dataclass(frozen=True)
class Erlang:
    phases: int
    rate: float  # per-phase rate, per msec

    kind = "erlang"

    def mean(self) -> float:
        return self.phases / self.rate

    def sampler(self, stream):
        k = self.phases
        scale = 1.0 / self.rate

        def fill(u):
            # phases summed left to right in k strided adds: half the cost
            # of a reshape-sum, and the same bits for k <= 7 (beyond that
            # numpy's reduction is pairwise)
            logs = np.log1p(-u)
            return -sum((logs[j::k] for j in range(1, k)), logs[0::k]) * scale

        return stream.batched_sampler(k, fill)


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    kind = "uniform"

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def sampler(self, stream):
        low = self.low
        span = self.high - low
        return stream.batched_sampler(1, lambda u: low + span * u)


@dataclass(frozen=True)
class Shifted:
    """base plus a constant offset. Same stream consumption as base, so an
    offset of zero samples bit-identically to the unwrapped distribution."""

    offset: float
    base: "Distribution"

    kind = "shifted"

    def mean(self) -> float:
        return self.offset + self.base.mean()

    def sampler(self, stream):
        return stream.shift(self.offset, self.base.sampler(stream))


@dataclass(frozen=True)
class Mixture:
    """base demand plus, with probability p_extra, an additional demand.

    Both components are drawn on every sample, each from its own part
    stream, so every stream advances by a fixed amount regardless of the
    branch taken.
    """

    p_extra: float
    base: "Distribution"
    extra: "Distribution"

    kind = "mixture"

    def mean(self) -> float:
        # p_extra 0 never adds extra, even an infinite one (0 * inf is nan)
        return self.base.mean() + (self.p_extra * self.extra.mean() if self.p_extra else 0.0)

    def sampler(self, stream):
        return stream.mixture(self.p_extra, self.base.sampler(stream.part("base")),
                              self.extra.sampler(stream.part("extra")))


Distribution = Exponential | Deterministic | Erlang | Uniform | Shifted | Mixture


@dataclass(frozen=True)
class Station:
    """A service station. capacity counts waiting room plus jobs in
    service and applies to fcfs stations only; None means unbounded.
    Arrivals of closed classes are never dropped by a finite capacity."""

    name: str
    kind: str = FCFS
    servers: int = 1
    capacity: int | None = None
    service: dict[str, Distribution] = field(default_factory=dict)


@dataclass(frozen=True)
class JobClass:
    """Open classes need an arrival distribution; closed classes need a
    population and a reference station (cycle timing is measured from
    departure there back to the next arrival there)."""

    name: str
    kind: str = "open"  # open | closed
    arrival: Distribution | None = None
    population: int = 0
    reference: str | None = None


@dataclass
class RoutingTable:
    """Per-class probabilistic routing: class -> from-station -> targets."""

    rows: dict[str, dict[str, tuple[tuple[str, float], ...]]] = field(default_factory=dict)

    def add(self, job_class: str, frm: str, targets) -> None:
        if isinstance(targets, str):
            targets = [(targets, 1.0)]
        self.rows.setdefault(job_class, {})[frm] = tuple(
            (str(t), float(p)) for t, p in targets
        )

    def successors(self, job_class: str, frm: str):
        return self.rows.get(job_class, {}).get(frm)

    def copy(self) -> "RoutingTable":
        return RoutingTable({c: dict(m) for c, m in self.rows.items()})


@dataclass
class NetworkModel:
    name: str
    stations: list[Station]
    classes: list[JobClass]
    routing: RoutingTable
    description: str = ""
    antipattern_tags: tuple[str, ...] = ()
    # watched class -> (poller class, station): a watched job counts as
    # finished only when the poller next completes service at the station.
    detection: dict[str, tuple[str, str]] = field(default_factory=dict)

    def station(self, name: str) -> Station:
        for s in self.stations:
            if s.name == name:
                return s
        raise KeyError(name)

    def job_class(self, name: str) -> JobClass:
        for c in self.classes:
            if c.name == name:
                return c
        raise KeyError(name)

    def station_names(self) -> list[str]:
        return [s.name for s in self.stations]

    def clone(self) -> "NetworkModel":
        stations = [replace(s, service=dict(s.service)) for s in self.stations]
        classes = list(self.classes)
        return NetworkModel(
            name=self.name,
            stations=stations,
            classes=classes,
            routing=self.routing.copy(),
            description=self.description,
            antipattern_tags=self.antipattern_tags,
            detection=dict(self.detection),
        )


def _check_distribution(dist, where: str, allow_inf: bool, arrival: bool) -> list[str]:
    out = _check_parameters(dist, where, allow_inf, arrival)
    if arrival and not out and not dist.mean() > 0.0:  # else arrivals never advance time
        out.append(f"{where}: mean inter-arrival time must be > 0 (got {dist.mean()})")
    return out


def _check_parameters(dist, where: str, allow_inf: bool, arrival: bool) -> list[str]:
    # every range check is written so that a NaN parameter fails it
    out = []
    k = getattr(dist, "kind", None)
    if k == "exponential":
        if not (dist.rate > 0 or (dist.rate == 0 and arrival)):
            out.append(f"{where}: exponential rate must be > 0 (got {dist.rate})")
    elif k == "deterministic":
        if not dist.value >= 0:
            out.append(f"{where}: deterministic value must be >= 0")
        if math.isinf(dist.value) and not allow_inf:
            out.append(f"{where}: infinite service time is only allowed at delay stations")
    elif k == "erlang":
        if not dist.phases >= 1:
            out.append(f"{where}: erlang phases must be >= 1")
        if not dist.rate > 0:
            out.append(f"{where}: erlang rate must be > 0")
    elif k == "uniform":
        if not 0 <= dist.low <= dist.high:
            out.append(f"{where}: uniform bounds need 0 <= low <= high")
    elif k == "shifted":
        if not dist.offset >= 0:
            out.append(f"{where}: shift offset must be >= 0")
        out += _check_parameters(dist.base, where, allow_inf, arrival)
    elif k == "mixture":
        if not 0.0 <= dist.p_extra <= 1.0:
            out.append(f"{where}: mixture probability must be in [0, 1]")
        out += _check_parameters(dist.base, where, allow_inf, arrival)
        out += _check_parameters(dist.extra, where, allow_inf, arrival)
    else:
        out.append(f"{where}: unknown distribution {dist!r}")
    return out


def _class_start(model: NetworkModel, jc: JobClass) -> str | None:
    """Station a job of this class first occupies: source row for open
    classes, the reference station for closed ones."""
    if jc.kind == "closed":
        return jc.reference
    rows = model.routing.rows.get(jc.name, {})
    for s in model.stations:
        if s.kind == SOURCE and s.name in rows:
            return s.name
    return None


def _reachable(model: NetworkModel, jc: JobClass, start: str, positive: bool = False) -> set[str]:
    """Stations reachable from start; positive follows only edges with p > 0."""
    seen: set[str] = set()
    frontier = [start]
    rows = model.routing.rows.get(jc.name, {})
    while frontier:
        here = frontier.pop()
        if here in seen:
            continue
        seen.add(here)
        for to, p in rows.get(here, ()):
            if to not in seen and (p > 0 or not positive):
                frontier.append(to)
    return seen


def validate_model(model: NetworkModel) -> list[str]:
    """Collect diagnostics. An empty list means the model is runnable.
    Never raises."""
    diags: list[str] = []
    station_names = [s.name for s in model.stations]
    class_names = [c.name for c in model.classes]

    if len(set(station_names)) != len(station_names):
        diags.append("station names are not unique")
    if len(set(class_names)) != len(class_names):
        diags.append("class names are not unique")
    if SYSTEM_STATION in station_names:
        diags.append(f"station name {SYSTEM_STATION!r} is reserved for system-level metrics")
    if ALL_CLASSES in class_names:
        diags.append(f"class name {ALL_CLASSES!r} is reserved for aggregate metrics")
    if not model.classes:
        diags.append("model has no job classes")

    by_name = {s.name: s for s in model.stations}
    for s in model.stations:
        if s.kind not in STATION_KINDS:
            diags.append(f"station {s.name}: unknown kind {s.kind!r}")
            continue
        if s.servers < 1:
            diags.append(f"station {s.name}: servers must be >= 1")
        if s.capacity is not None:
            if s.kind != FCFS:
                diags.append(f"station {s.name}: capacity only applies to fcfs stations")
            elif s.capacity < 1:
                diags.append(f"station {s.name}: capacity must be >= 1")
        for cname, dist in s.service.items():
            if cname not in class_names:
                diags.append(f"station {s.name}: service entry for unknown class {cname!r}")
            diags += _check_distribution(
                dist, f"station {s.name}, class {cname}", allow_inf=(s.kind == DELAY), arrival=False
            )

    for jc in model.classes:
        if jc.kind not in ("open", "closed"):
            diags.append(f"class {jc.name}: kind must be open or closed")
            continue
        if jc.kind == "open":
            if jc.arrival is None:
                diags.append(f"class {jc.name}: open class needs an arrival distribution")
            else:
                diags += _check_distribution(jc.arrival, f"class {jc.name} arrival", False, arrival=True)
        else:
            if jc.population < 1:
                diags.append(f"class {jc.name}: closed class needs population >= 1")
            if jc.reference is None or jc.reference not in by_name:
                diags.append(f"class {jc.name}: closed class needs an existing reference station")
            elif by_name[jc.reference].kind not in (FCFS, DELAY):
                diags.append(f"class {jc.name}: reference station must be fcfs or delay")

        rows = model.routing.rows.get(jc.name)
        if not rows:
            diags.append(f"class {jc.name}: no routing rows")
            continue
        for frm, targets in rows.items():
            if frm not in by_name:
                diags.append(f"class {jc.name}: routing from unknown station {frm!r}")
                continue
            total = 0.0
            for to, p in targets:
                if to not in by_name:
                    diags.append(f"class {jc.name}: routing {frm} -> unknown station {to!r}")
                elif by_name[to].kind == SOURCE:
                    diags.append(f"class {jc.name}: routing {frm} -> {to} enters source station {to}")
                if not 0 <= p <= 1:
                    diags.append(f"class {jc.name}: routing {frm} -> {to} probability {p} outside [0, 1]")
                total += p
            if not abs(total - 1.0) <= PROB_TOL:
                diags.append(f"class {jc.name}: routing row {frm} sums to {total!r}, not 1")

        start = _class_start(model, jc)
        if start is None:
            diags.append(f"class {jc.name}: no entry point (source routing row or reference station)")
            continue
        reach = _reachable(model, jc, start)
        for st in reach:
            s = by_name.get(st)
            if s is None:
                continue
            if s.kind in (FCFS, DELAY) and jc.name not in s.service:
                diags.append(f"station {st}: reachable by class {jc.name} but has no service entry for it")
            if s.kind in (FCFS, DELAY) and st not in model.routing.rows.get(jc.name, {}):
                diags.append(f"class {jc.name}: station {st} has no outgoing routing row")
        if jc.kind == "closed":
            if any(by_name[st].kind == SINK for st in reach if st in by_name):
                diags.append(f"class {jc.name}: closed class must not reach a sink (population would drain)")
            # the cycle must be able to come back to the reference station
            rows_c = model.routing.rows.get(jc.name, {})
            back = any(
                to == jc.reference
                for frm, targets in rows_c.items()
                for to, _p in targets
            )
            if not back:
                diags.append(f"class {jc.name}: no route returns to reference station {jc.reference}")
            # a cycle with zero total demand would spin forever at t=0
            cycle_mean = sum(
                by_name[st].service[jc.name].mean()
                for st in reach
                if st in by_name
                and by_name[st].kind in (FCFS, DELAY)
                and jc.name in by_name[st].service
            )
            if cycle_mean == 0.0:
                diags.append(f"class {jc.name}: total service demand around the cycle is zero")
        else:
            # a job that can never leave circulates forever; at zero delay
            # the clock would never advance
            sinks = {s.name for s in model.stations if s.kind == SINK}
            live = _reachable(model, jc, start, positive=True)
            for s in model.stations:
                if s.name in live and not sinks & _reachable(model, jc, s.name, positive=True):
                    diags.append(f"class {jc.name}: station {s.name} has no path to a sink "
                                 "(open-class jobs reaching it never leave)")

    refs = [jc.reference for jc in model.classes if jc.kind == "closed" and jc.reference]
    for ref in sorted(set(r for r in refs if refs.count(r) > 1)):
        diags.append(f"station {ref}: more than one closed class uses it as reference")

    return diags


# ---------------------------------------------------------------- builders

@dataclass(frozen=True)
class BaselineParams:
    """Single open workload through one controller, with an optional delay
    station for environment latency (None drops the station)."""

    arrival_rate: float = 0.05
    controller_service: Distribution = Exponential(0.1)  # mean 10 msec
    environment_delay: Distribution | None = Exponential(0.1)
    controller_servers: int = 1
    controller_capacity: int | None = None
    class_name: str = "Analysis"


def build_baseline(params: BaselineParams = BaselineParams()) -> NetworkModel:
    cname = params.class_name
    stations = [Station("Source", kind=SOURCE)]
    stations.append(
        Station(
            "Controller",
            kind=FCFS,
            servers=params.controller_servers,
            capacity=params.controller_capacity,
            service={cname: params.controller_service},
        )
    )
    routing = RoutingTable()
    routing.add(cname, "Source", "Controller")
    if params.environment_delay is not None:
        stations.append(Station("Environment", kind=DELAY, service={cname: params.environment_delay}))
        routing.add(cname, "Controller", "Environment")
        routing.add(cname, "Environment", "Sink")
    else:
        routing.add(cname, "Controller", "Sink")
    stations.append(Station("Sink", kind=SINK))
    classes = [JobClass(cname, "open", arrival=Exponential(params.arrival_rate))]
    return NetworkModel(
        name="baseline",
        stations=stations,
        classes=classes,
        routing=routing,
        description="open workload through a single controller",
    )


@dataclass(frozen=True)
class SensorNetParams:
    """Controller plus sensors and actors with the four standard classes.

    Defaults are the calibration used by the shipped validation config:
    open Analysis and Actors workloads, a closed Status check cycle over
    the sensors and a closed Polling cycle against the controller. Demands
    match the shipped execution-graph scenarios, so the analytic and
    simulated columns of the validation table describe the same system;
    think periods are set so the closed cycles run at the scenario rates.
    """

    sensor_count: int = 1
    actor_count: int = 1

    analysis_arrival_rate: float = 0.087
    analysis_controller_demand: Distribution = Exponential(0.5)  # mean 2.0
    analysis_environment_delay: Distribution | None = Exponential(1.0 / 3.53)

    actors_arrival_rate: float = 0.05
    actors_controller_demand: Distribution = Exponential(1.0 / 0.29)
    actors_actor_demand: Distribution = Exponential(1.0 / 3.22)

    include_status: bool = True
    status_population: int = 1
    status_check_period: Distribution = Deterministic(23.75)
    status_controller_demand: Distribution = Exponential(1.0)
    status_device_demand: Distribution = Exponential(1.0 / 0.17)

    include_polling: bool = True
    polling_population: int = 1
    polling_period: Distribution = Deterministic(18.04)
    polling_controller_demand: Distribution = Exponential(1.0 / 2.06)


def build_sensor_net(params: SensorNetParams = SensorNetParams()) -> NetworkModel:
    if params.sensor_count < 1:
        raise ValueError("sensor_count must be >= 1")
    if params.actor_count < 1:
        raise ValueError("actor_count must be >= 1")

    sensors = [f"Sensor{i + 1}" for i in range(params.sensor_count)]
    actors = [f"Actor{i + 1}" for i in range(params.actor_count)]

    controller_service: dict[str, Distribution] = {
        "Analysis": params.analysis_controller_demand,
        "Actors": params.actors_controller_demand,
    }
    classes = [
        JobClass("Analysis", "open", arrival=Exponential(params.analysis_arrival_rate)),
        JobClass("Actors", "open", arrival=Exponential(params.actors_arrival_rate)),
    ]

    routing = RoutingTable()
    routing.add("Analysis", "Source", "Controller")
    if params.analysis_environment_delay is not None:
        routing.add("Analysis", "Controller", "Environment")
        routing.add("Analysis", "Environment", "Sink")
    else:
        routing.add("Analysis", "Controller", "Sink")

    routing.add("Actors", "Source", "Controller")
    split = [1.0 / params.actor_count] * params.actor_count
    split[-1] = 1.0 - sum(split[:-1])  # exact row sum
    routing.add("Actors", "Controller", list(zip(actors, split)))
    for a in actors:
        routing.add("Actors", a, "Sink")

    stations = [Station("Source", kind=SOURCE)]
    if params.include_status:
        classes.append(
            JobClass("Status", "closed", population=params.status_population, reference="StatusThink")
        )
        controller_service["Status"] = params.status_controller_demand
        routing.add("Status", "StatusThink", "Controller")
        chain = sensors + ["StatusThink"]
        routing.add("Status", "Controller", chain[0])
        for here, nxt in zip(sensors, chain[1:]):
            routing.add("Status", here, nxt)
    if params.include_polling:
        classes.append(
            JobClass("Polling", "closed", population=params.polling_population, reference="PollThink")
        )
        controller_service["Polling"] = params.polling_controller_demand
        routing.add("Polling", "PollThink", "Controller")
        routing.add("Polling", "Controller", "PollThink")

    stations.append(Station("Controller", kind=FCFS, service=controller_service))
    for s in sensors:
        svc = {"Status": params.status_device_demand} if params.include_status else {}
        stations.append(Station(s, kind=FCFS, service=svc))
    for a in actors:
        stations.append(Station(a, kind=FCFS, service={"Actors": params.actors_actor_demand}))
    if params.analysis_environment_delay is not None:
        stations.append(
            Station("Environment", kind=DELAY, service={"Analysis": params.analysis_environment_delay})
        )
    if params.include_status:
        stations.append(
            Station("StatusThink", kind=DELAY, service={"Status": params.status_check_period})
        )
    if params.include_polling:
        stations.append(
            Station("PollThink", kind=DELAY, service={"Polling": params.polling_period})
        )
    stations.append(Station("Sink", kind=SINK))

    return NetworkModel(
        name="sensor-net",
        stations=stations,
        classes=classes,
        routing=routing,
        description="controller with sensors, actors and periodic check cycles",
    )
