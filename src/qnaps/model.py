"""Multiclass queueing network models.

Stations, job classes, service distributions, per-class probabilistic
routing, plus the two builders the experiment configs use and the
sensor net's closed cycles, which build_sensor_net and the IEOK and AWTY
transforms all add: add_status_cycle and add_polling_cycle. All times
are milliseconds and all rates are per millisecond.
"""
from __future__ import annotations

import math
from numbers import Integral

from .records import Field, FrozenRecord, Record, replace

# station kinds
FCFS = "fcfs-queue"
DELAY = "delay"
SOURCE = "source"
SINK = "sink"
STATION_KINDS = (FCFS, DELAY, SOURCE, SINK)

# names reserved by the metric layer for aggregate rows
SYSTEM_STATION = "system"
ALL_CLASSES = "all"

# the metrics of each station kind that has any, in sample order; the
# system rows (one per class) take the SYSTEM_STATION entry
_FLOW = ("response-time-msec", "throughput-per-msec", "queue-length")
METRICS = {
    FCFS: ("utilization",) + _FLOW + ("dropped-count", "dropped-rate-per-msec"),
    DELAY: _FLOW,
    SYSTEM_STATION: _FLOW,
}

PROB_TOL = 1e-9


class Exponential(FrozenRecord):
    """Exponential distribution. rate 0 is allowed only for arrival
    processes and means the process never fires."""

    rate: float  # per msec

    kind = "exponential"

    def mean(self) -> float:
        return math.inf if self.rate == 0.0 else 1.0 / self.rate


class Deterministic(FrozenRecord):
    """Constant service time. value may be inf for a delay entry, in which
    case jobs park there forever (used by neutral transform settings)."""

    value: float

    kind = "deterministic"

    def mean(self) -> float:
        return self.value


class Erlang(FrozenRecord):
    phases: int
    rate: float  # per-phase rate, per msec

    kind = "erlang"

    def mean(self) -> float:
        return self.phases / self.rate


class Uniform(FrozenRecord):
    low: float
    high: float

    kind = "uniform"

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


class Shifted(FrozenRecord):
    """base plus a constant offset. An offset of zero samples
    bit-identically to the unwrapped distribution."""

    offset: float
    base: "Distribution"

    kind = "shifted"

    def mean(self) -> float:
        return self.offset + self.base.mean()


class Mixture(FrozenRecord):
    """base demand plus, with probability p_extra, an additional demand."""

    p_extra: float
    base: "Distribution"
    extra: "Distribution"

    kind = "mixture"

    def mean(self) -> float:
        # p_extra 0 never adds extra, even an infinite one (0 * inf is nan)
        return self.base.mean() + (self.p_extra * self.extra.mean() if self.p_extra else 0.0)


Distribution = Exponential | Deterministic | Erlang | Uniform | Shifted | Mixture


class Station(FrozenRecord):
    """A service station. capacity counts waiting room plus jobs in
    service and applies to fcfs stations only; None means unbounded.
    Arrivals of closed classes are never dropped by a finite capacity."""

    name: str
    kind: str = FCFS
    servers: int = 1
    capacity: int | None = None
    service: dict[str, Distribution] = Field(factory=dict)


class JobClass(FrozenRecord):
    """Open classes need an arrival distribution; closed classes need a
    population and a reference station (cycle timing is measured from
    departure there back to the next arrival there)."""

    name: str
    kind: str = "open"  # open | closed
    arrival: Distribution | None = None
    population: int = 0
    reference: str | None = None


class RoutingTable(Record):
    """Per-class probabilistic routing: class -> from-station -> targets."""

    rows: dict[str, dict[str, tuple[tuple[str, float], ...]]] = Field(factory=dict)

    def add(self, job_class: str, frm: str, targets) -> None:
        if isinstance(targets, str):
            targets = [(targets, 1.0)]
        self.rows.setdefault(job_class, {})[frm] = tuple(
            (str(t), float(p)) for t, p in targets
        )

    def add_path(self, job_class: str, stations) -> None:
        """Route job_class from each of stations to the next."""
        for frm, to in zip(stations, stations[1:]):
            self.add(job_class, frm, to)

    def successors(self, job_class: str, frm: str):
        return self.rows.get(job_class, {}).get(frm)

    def copy(self) -> "RoutingTable":
        return RoutingTable({c: dict(m) for c, m in self.rows.items()})


class NetworkModel(Record):
    name: str
    stations: list[Station]
    classes: list[JobClass]
    routing: RoutingTable
    description: str = ""
    antipattern_tags: tuple[str, ...] = ()
    # watched class -> (poller class, station): a watched job counts as
    # finished only when the poller next completes service at the station.
    detection: dict[str, tuple[str, str]] = Field(factory=dict)

    def station_names(self) -> list[str]:
        return [s.name for s in self.stations]

    def clone(self) -> "NetworkModel":
        return replace(self, stations=[replace(s, service=dict(s.service)) for s in self.stations],
                       classes=list(self.classes), routing=self.routing.copy(),
                       detection=dict(self.detection))


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
        if not isinstance(dist.phases, Integral):
            out.append(f"{where}: erlang phases must be an integer (got {dist.phases!r})")
        elif not dist.phases >= 1:
            out.append(f"{where}: erlang phases must be >= 1")
        if not dist.rate > 0:
            out.append(f"{where}: erlang rate must be > 0")
    elif k == "uniform":
        if not 0 <= dist.low <= dist.high:
            out.append(f"{where}: uniform bounds need 0 <= low <= high")
        elif math.isinf(dist.high):  # low + inf * 0 is nan
            out.append(f"{where}: uniform bounds must be finite")
    elif k == "shifted":
        if not dist.offset >= 0:
            out.append(f"{where}: shift offset must be >= 0")
        elif math.isinf(dist.offset) and not allow_inf:
            out.append(f"{where}: infinite shift offset is only allowed at delay stations")
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
        if not isinstance(s.servers, Integral):
            diags.append(f"station {s.name}: servers must be an integer (got {s.servers!r})")
        elif s.servers < 1:
            diags.append(f"station {s.name}: servers must be >= 1")
        if s.capacity is not None:
            if s.kind != FCFS:
                diags.append(f"station {s.name}: capacity only applies to fcfs stations")
            elif not isinstance(s.capacity, Integral):
                diags.append(f"station {s.name}: capacity must be an integer (got {s.capacity!r})")
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
            if not isinstance(jc.population, Integral):
                diags.append(f"class {jc.name}: population must be an integer (got {jc.population!r})")
            elif jc.population < 1:
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
            exits = {jc.reference}
            fault = (f"no path back to reference station {jc.reference} "
                     "(closed-class jobs reaching it never return)")
        else:
            exits = {s.name for s in model.stations if s.kind == SINK}
            fault = "no path to a sink (open-class jobs reaching it never leave)"
        # a job that can never leave (open) or never return (closed)
        # circulates forever; at zero delay the clock would never advance
        live = _reachable(model, jc, start, positive=True)
        for s in model.stations:
            if s.name in live and not exits & _reachable(model, jc, s.name, positive=True):
                diags.append(f"class {jc.name}: station {s.name} has {fault}")

    # a watched job leaves when its poller next completes fcfs service at the station
    for watched, (poller, st) in model.detection.items():
        where = f"detection of class {watched}"
        if watched not in class_names:
            diags.append(f"{where}: no such class")
        if poller not in class_names:
            diags.append(f"{where}: unknown poller class {poller!r}")
        if st not in by_name:
            diags.append(f"{where}: unknown station {st!r}")
        elif by_name[st].kind != FCFS:
            diags.append(f"{where}: station {st} is not an fcfs station")
        elif poller in class_names and poller not in by_name[st].service:
            diags.append(f"{where}: station {st} does not serve poller class {poller}")

    refs = [jc.reference for jc in model.classes if jc.kind == "closed" and jc.reference]
    for ref in sorted(set(r for r in refs if refs.count(r) > 1)):
        diags.append(f"station {ref}: more than one closed class uses it as reference")

    return diags


# ---------------------------------------------------------- closed cycles

class TransformError(ValueError):
    """Bad antipattern parameters or an inapplicable target model."""


def _station_index(model: NetworkModel, name: str) -> int:
    for i, s in enumerate(model.stations):
        if s.name == name:
            return i
    raise TransformError(f"model has no station named {name!r}")


def _set_service(model: NetworkModel, station: str, job_class: str, dist: Distribution, **changes) -> None:
    """Give job_class the service dist at station, plus any other station
    field changes."""
    i = _station_index(model, station)
    old = model.stations[i]
    model.stations[i] = replace(old, service={**old.service, job_class: dist}, **changes)


def _insert_before_sink(model: NetworkModel, station: Station) -> None:
    at = len(model.stations)
    if model.stations and model.stations[-1].kind == SINK:
        at -= 1
    model.stations.insert(at, station)


def _closed_cycle(model: NetworkModel, job_class: JobClass, think: Station, path) -> None:
    """Add the closed class job_class: its jobs think at the new delay
    station think, inserted before the sink, then visit each (station,
    demand) of path in turn. A station named twice is refused, since its
    second visit would overwrite the first one's demand and route."""
    stops = [name for name, _ in path]
    for i, name in enumerate(stops):
        if name in stops[:i]:
            raise TransformError(f"the {job_class.name} cycle visits station {name!r} twice")
    for name, demand in path:
        _set_service(model, name, job_class.name, demand)
    _insert_before_sink(model, think)
    model.classes.append(job_class)
    model.routing.add_path(job_class.name, [think.name, *stops, think.name])


def add_status_cycle(model: NetworkModel, population: int, period: Distribution, check: Distribution,
                     devices, device_demand: Distribution, controller: str = "Controller") -> None:
    """The Status tour: population jobs think at StatusThink for period,
    then check at the controller (check) and at each device in turn
    (device_demand)."""
    _closed_cycle(model, JobClass("Status", "closed", population=population, reference="StatusThink"),
                  Station("StatusThink", kind=DELAY, service={"Status": period}),
                  [(controller, check)] + [(d, device_demand) for d in devices])


def add_polling_cycle(model: NetworkModel, population: int, period: Distribution, demand: Distribution,
                      controller: str = "Controller") -> None:
    """The Polling cycle: population jobs think at PollThink for period,
    then poll the controller (demand)."""
    _closed_cycle(model, JobClass("Polling", "closed", population=population, reference="PollThink"),
                  Station("PollThink", kind=DELAY, service={"Polling": period}),
                  [(controller, demand)])


# ---------------------------------------------------------------- builders

class BaselineParams(FrozenRecord):
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
    stations = [
        Station("Source", kind=SOURCE),
        Station("Controller", kind=FCFS, servers=params.controller_servers,
                capacity=params.controller_capacity, service={cname: params.controller_service}),
    ]
    if params.environment_delay is not None:
        stations.append(Station("Environment", kind=DELAY, service={cname: params.environment_delay}))
    stations.append(Station("Sink", kind=SINK))
    routing = RoutingTable()
    routing.add_path(cname, [s.name for s in stations])
    classes = [JobClass(cname, "open", arrival=Exponential(params.arrival_rate))]
    return NetworkModel(
        name="baseline",
        stations=stations,
        classes=classes,
        routing=routing,
        description="open workload through a single controller",
    )


class SensorNetParams(FrozenRecord):
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
    """The open Analysis and Actors workloads, then the Status cycle
    over the sensors and the Polling cycle when params include them."""
    if params.sensor_count < 1:
        raise ValueError("sensor_count must be >= 1")
    if params.actor_count < 1:
        raise ValueError("actor_count must be >= 1")

    sensors = [f"Sensor{i + 1}" for i in range(params.sensor_count)]
    actors = [f"Actor{i + 1}" for i in range(params.actor_count)]
    environment = params.analysis_environment_delay

    routing = RoutingTable()
    via = ["Environment"] if environment is not None else []
    routing.add_path("Analysis", ["Source", "Controller", *via, "Sink"])
    routing.add("Actors", "Source", "Controller")
    split = [1.0 / params.actor_count] * params.actor_count
    split[-1] = 1.0 - sum(split[:-1])  # exact row sum
    routing.add("Actors", "Controller", list(zip(actors, split)))
    for a in actors:
        routing.add("Actors", a, "Sink")

    stations = [
        Station("Source", kind=SOURCE),
        Station("Controller", kind=FCFS, service={"Analysis": params.analysis_controller_demand,
                                                  "Actors": params.actors_controller_demand}),
    ]
    stations += [Station(s, kind=FCFS) for s in sensors]
    stations += [Station(a, kind=FCFS, service={"Actors": params.actors_actor_demand}) for a in actors]
    if environment is not None:
        stations.append(Station("Environment", kind=DELAY, service={"Analysis": environment}))
    stations.append(Station("Sink", kind=SINK))

    net = NetworkModel(
        name="sensor-net",
        stations=stations,
        classes=[
            JobClass("Analysis", "open", arrival=Exponential(params.analysis_arrival_rate)),
            JobClass("Actors", "open", arrival=Exponential(params.actors_arrival_rate)),
        ],
        routing=routing,
        description="controller with sensors, actors and periodic check cycles",
    )
    if params.include_status:
        add_status_cycle(net, params.status_population, params.status_check_period,
                         params.status_controller_demand, sensors, params.status_device_demand)
    if params.include_polling:
        add_polling_cycle(net, params.polling_population, params.polling_period,
                          params.polling_controller_demand)
    return net
