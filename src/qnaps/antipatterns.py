"""Software performance antipattern transformations.

Each transform is a pure function from a validated NetworkModel to a new
model plus a report of exactly what was added or modified; original
stations and classes are never removed or renamed. Every transform has a
neutral parameter setting (polling frequency 0, infinite check period,
zero overhead with unbounded buffer) under which the transformed model
simulates bit-identically to its input with the same seed, because added
classes stay parked and untouched service entries keep their own random
streams.

A model records which transforms were applied in antipattern_tags; a
second application of the same transform is rejected rather than silently
compounded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import (
    ALL_CLASSES,
    DELAY,
    SINK,
    Deterministic,
    Distribution,
    Exponential,
    JobClass,
    Mixture,
    NetworkModel,
    Shifted,
    Station,
    validate_model,
)

AWTY = "are-we-there-yet"
IEOK = "is-everything-ok"
WWI = "where-was-i"
KINDS = (AWTY, IEOK, WWI)


class TransformError(ValueError):
    """Bad antipattern parameters or an inapplicable target model."""


@dataclass(frozen=True)
class AntipatternSpec:
    """Antipattern selection plus its parameter group.

    Only the group matching kind is read. Times are msec, f_poll is per
    msec. poller_count, check_demand, device_demand, devices, controller
    and target_class are operational knobs with defaults calibrated to the
    shipped sensor-net model. The apply functions write their range checks
    so that a NaN parameter fails them.
    """

    kind: str

    # are-we-there-yet
    f_poll: float = 0.0
    polling_demand: float = 4.0
    poller_count: int = 5

    # is-everything-ok
    n_status: int = 1
    check_period: float = math.inf
    p_exc: float = 0.0
    exception_demand: float = 0.0
    check_demand: float = 1.0
    device_demand: float = 0.1
    devices: tuple[str, ...] | None = None  # None: stations named Sensor*

    # where-was-i
    overhead: float = 0.0
    buffer_capacity: int | None = None  # None or inf: unbounded

    # shared targets
    controller: str = "Controller"
    target_class: str = "Analysis"


@dataclass(frozen=True)
class TransformReport:
    added_stations: tuple[str, ...] = ()
    added_classes: tuple[str, ...] = ()
    # (station, job class, what changed)
    modified_service_entries: tuple[tuple[str, str, str], ...] = ()


def _checked(model: NetworkModel, spec: AntipatternSpec, kind: str) -> None:
    if spec.kind != kind:
        raise TransformError(f"spec kind {spec.kind!r} does not match {kind!r}")
    if kind in model.antipattern_tags:
        raise TransformError(f"model already carries the {kind} transform")
    diags = validate_model(model)
    if diags:
        raise TransformError("target model is invalid: " + "; ".join(diags))


def _require_absent(model: NetworkModel, stations=(), classes=()) -> None:
    have_s = set(model.station_names())
    have_c = {c.name for c in model.classes}
    for s in stations:
        if s in have_s:
            raise TransformError(f"station name {s!r} already exists in the model")
    for c in classes:
        if c in have_c:
            raise TransformError(f"class name {c!r} already exists in the model")


def _station_index(model: NetworkModel, name: str) -> int:
    for i, s in enumerate(model.stations):
        if s.name == name:
            return i
    raise TransformError(f"model has no station named {name!r}")


def _station(model: NetworkModel, name: str) -> Station:
    return model.stations[_station_index(model, name)]


def _insert_before_sink(model: NetworkModel, station: Station) -> None:
    at = len(model.stations)
    if model.stations and model.stations[-1].kind == SINK:
        at -= 1
    model.stations.insert(at, station)


def apply_are_we_there_yet(model: NetworkModel, spec: AntipatternSpec) -> tuple[NetworkModel, TransformReport]:
    """Add a closed Polling class whose jobs repeatedly ask the controller
    whether watched work has finished.

    Pollers cycle PollThink (deterministic inter-poll time 1/f_poll) ->
    controller (polling_demand) -> PollThink. While polling is active
    (f_poll > 0) the target class's jobs are only detected as finished at
    the next poll completion, which is what creates the response-time
    trade-off between stale results at low f_poll and contention at high
    f_poll. f_poll = 0 is the neutral setting: pollers park forever and no
    detection gate is installed.
    """
    _checked(model, spec, AWTY)
    if not spec.f_poll >= 0:
        raise TransformError(f"f_poll must be >= 0 (got {spec.f_poll})")
    if not spec.poller_count >= 1:
        raise TransformError(f"poller_count must be >= 1 (got {spec.poller_count})")
    if not spec.polling_demand > 0:
        raise TransformError(f"polling_demand must be > 0 (got {spec.polling_demand})")
    _require_absent(model, stations=("PollThink",), classes=("Polling",))
    _station(model, spec.controller)

    active = spec.f_poll > 0
    period = Deterministic(1.0 / spec.f_poll if active else math.inf)

    out = model.clone()
    ctrl_i = _station_index(out, spec.controller)
    service = dict(out.stations[ctrl_i].service)
    service["Polling"] = Exponential(1.0 / spec.polling_demand)
    out.stations[ctrl_i] = replace(out.stations[ctrl_i], service=service)
    _insert_before_sink(out, Station("PollThink", kind=DELAY, service={"Polling": period}))
    out.classes.append(JobClass("Polling", "closed", population=spec.poller_count,
                                reference="PollThink"))
    out.routing.add("Polling", "PollThink", spec.controller)
    out.routing.add("Polling", spec.controller, "PollThink")
    if active:
        if spec.target_class not in {c.name for c in model.classes}:
            raise TransformError(f"model has no class named {spec.target_class!r}")
        out.detection[spec.target_class] = ("Polling", spec.controller)
    out.antipattern_tags = model.antipattern_tags + (AWTY,)
    out.description = (model.description + "; " if model.description else "") + (
        f"{AWTY}: f_poll={spec.f_poll}/msec, demand={spec.polling_demand} msec, "
        f"{spec.poller_count} pollers"
    )

    report = TransformReport(
        added_stations=("PollThink",),
        added_classes=("Polling",),
        modified_service_entries=(
            (spec.controller, "Polling",
             f"service entry added (exponential, mean {spec.polling_demand} msec)"),
        ),
    )
    return out, report


def apply_is_everything_ok(model: NetworkModel, spec: AntipatternSpec) -> tuple[NetworkModel, TransformReport]:
    """Add a closed Status class that periodically checks every device.

    Status jobs cycle StatusThink (check_period) -> controller
    (check_demand) -> each device in turn (device_demand) -> StatusThink.
    With probability p_exc a device check raises an exception whose
    handling costs exception_demand at the controller; the extra demand is
    folded into the controller check visit so the class keeps one service
    entry per station (total cycle demand matches the described behavior).
    An infinite check_period is the neutral setting: status jobs park.
    """
    _checked(model, spec, IEOK)
    if not spec.n_status >= 1:
        raise TransformError(f"n_status must be >= 1 (got {spec.n_status})")
    if not 0.0 <= spec.p_exc <= 1.0:
        raise TransformError(f"p_exc must be in [0, 1] (got {spec.p_exc})")
    if not spec.check_period > 0:
        raise TransformError(f"check_period must be > 0 (got {spec.check_period})")
    if not spec.check_demand > 0:
        raise TransformError(f"check_demand must be > 0 (got {spec.check_demand})")
    if not spec.device_demand > 0:
        raise TransformError(f"device_demand must be > 0 (got {spec.device_demand})")
    if spec.p_exc > 0 and not spec.exception_demand > 0:
        raise TransformError("exception_demand must be > 0 when p_exc > 0")
    _require_absent(model, stations=("StatusThink",), classes=("Status",))
    _station(model, spec.controller)

    if spec.devices is None:
        devices = tuple(s.name for s in model.stations if s.name.startswith("Sensor"))
    else:
        devices = tuple(spec.devices)
        for d in devices:
            _station(model, d)
    if not devices:
        raise TransformError("no checked devices: pass devices or add Sensor* stations")

    check: Distribution = Exponential(1.0 / spec.check_demand)
    if spec.p_exc > 0:
        check = Mixture(spec.p_exc, check, Exponential(1.0 / spec.exception_demand))

    out = model.clone()
    modified = []
    ctrl_i = _station_index(out, spec.controller)
    service = dict(out.stations[ctrl_i].service)
    service["Status"] = check
    out.stations[ctrl_i] = replace(out.stations[ctrl_i], service=service)
    note = f"service entry added (exponential check, mean {spec.check_demand} msec"
    if spec.p_exc > 0:
        note += f"; exception demand mean {spec.exception_demand} msec folded in with probability {spec.p_exc}"
    modified.append((spec.controller, "Status", note + ")"))
    for d in devices:
        di = _station_index(out, d)
        dsvc = dict(out.stations[di].service)
        dsvc["Status"] = Exponential(1.0 / spec.device_demand)
        out.stations[di] = replace(out.stations[di], service=dsvc)
        modified.append((d, "Status",
                         f"service entry added (exponential, mean {spec.device_demand} msec)"))
    _insert_before_sink(out, Station("StatusThink", kind=DELAY,
                                     service={"Status": Deterministic(spec.check_period)}))
    out.classes.append(JobClass("Status", "closed", population=spec.n_status,
                                reference="StatusThink"))
    out.routing.add("Status", "StatusThink", spec.controller)
    chain = list(devices) + ["StatusThink"]
    out.routing.add("Status", spec.controller, chain[0])
    for here, nxt in zip(devices, chain[1:]):
        out.routing.add("Status", here, nxt)
    out.antipattern_tags = model.antipattern_tags + (IEOK,)
    out.description = (model.description + "; " if model.description else "") + (
        f"{IEOK}: n_status={spec.n_status}, period={spec.check_period} msec, p_exc={spec.p_exc}"
    )

    report = TransformReport(
        added_stations=("StatusThink",),
        added_classes=("Status",),
        modified_service_entries=tuple(modified),
    )
    return out, report


def apply_where_was_i(model: NetworkModel, spec: AntipatternSpec) -> tuple[NetworkModel, TransformReport]:
    """Charge the controller a save-restore prefix for the analysed
    workload and bound its waiting room.

    The target class's controller service becomes overhead + original
    (state must be recovered because it was not retained), and the
    controller gets a finite capacity: open-class arrivals finding it full
    are dropped and show up in the dropped-data metrics. overhead = 0 with
    unbounded capacity is the neutral setting.
    """
    _checked(model, spec, WWI)
    if not spec.overhead >= 0:
        raise TransformError(f"overhead must be >= 0 (got {spec.overhead})")
    cap = spec.buffer_capacity
    if cap is not None and math.isinf(cap):
        cap = None
    if cap is not None:
        if not cap >= 1 or cap != int(cap):
            raise TransformError(f"buffer_capacity must be a positive integer (got {spec.buffer_capacity})")
        cap = int(cap)
    controller = _station(model, spec.controller)
    if spec.target_class not in controller.service:
        raise TransformError(
            f"station {spec.controller!r} has no service entry for class {spec.target_class!r}"
        )
    if controller.capacity is not None and cap is not None:
        raise TransformError(f"station {spec.controller!r} already has a finite capacity")

    out = model.clone()
    modified = []
    ctrl_i = _station_index(out, spec.controller)
    service = dict(out.stations[ctrl_i].service)
    # a zero offset wraps to a distribution that samples bit-identically
    service[spec.target_class] = Shifted(spec.overhead, service[spec.target_class])
    out.stations[ctrl_i] = replace(
        out.stations[ctrl_i],
        service=service,
        capacity=cap if cap is not None else out.stations[ctrl_i].capacity,
    )
    modified.append((spec.controller, spec.target_class,
                     f"service prefixed with {spec.overhead} msec save-restore overhead"))
    if cap is not None:
        modified.append((spec.controller, ALL_CLASSES,
                         f"waiting room capped at {cap} (waiting plus in service)"))
    out.antipattern_tags = model.antipattern_tags + (WWI,)
    out.description = (model.description + "; " if model.description else "") + (
        f"{WWI}: overhead={spec.overhead} msec, capacity={'unbounded' if cap is None else cap}"
    )

    report = TransformReport(
        added_stations=(),
        added_classes=(),
        modified_service_entries=tuple(modified),
    )
    return out, report


_APPLIERS = {
    AWTY: apply_are_we_there_yet,
    IEOK: apply_is_everything_ok,
    WWI: apply_where_was_i,
}


def apply(model: NetworkModel, spec: AntipatternSpec) -> tuple[NetworkModel, TransformReport]:
    """Dispatch on spec.kind."""
    try:
        fn = _APPLIERS[spec.kind]
    except KeyError:
        raise TransformError(f"unknown antipattern kind {spec.kind!r}") from None
    return fn(model, spec)
