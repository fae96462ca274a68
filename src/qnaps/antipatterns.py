"""Software performance antipattern transformations.

Each antipattern kind has its own frozen parameter set: AreWeThereYet,
IsEverythingOk and WhereWasI, listed by kind in SPECS. apply(model,
spec) is a pure function from a validated NetworkModel to a new model;
original stations and classes are never removed or renamed. Each
parameter set's defaults are its kind's neutral point (polling frequency
0, infinite check period, zero overhead with unbounded buffer), under
which the transformed model simulates bit-identically to its input with
the same seed, because added classes stay parked and untouched service
entries keep their own random streams.

A model records which transforms were applied in antipattern_tags; a
second application of the same transform is rejected rather than silently
compounded.

AreWeThereYet and IsEverythingOk check their parameters, then add the
sensor net's own Polling and Status cycles (qnaps.model's
add_polling_cycle and add_status_cycle).
"""
from __future__ import annotations

import math

from .model import (
    Deterministic,
    Distribution,
    Exponential,
    Mixture,
    NetworkModel,
    Shifted,
    TransformError,
    _set_service,
    _station_index,
    add_polling_cycle,
    add_status_cycle,
    validate_model,
)
from .records import FrozenRecord


# Times are msec and f_poll is per msec. poller_count, check_demand,
# device_demand, devices, controller and target_class are operational
# knobs with defaults calibrated to the shipped sensor-net model. The
# range checks are written so that a NaN parameter fails them.


class AreWeThereYet(FrozenRecord):
    f_poll: float = 0.0
    polling_demand: float = 4.0
    poller_count: int = 5
    controller: str = "Controller"
    target_class: str = "Analysis"

    kind = "are-we-there-yet"


class IsEverythingOk(FrozenRecord):
    n_status: int = 1
    check_period: float = math.inf
    p_exc: float = 0.0
    exception_demand: float = 0.0
    check_demand: float = 1.0
    device_demand: float = 0.1
    devices: tuple[str, ...] | None = None  # None: stations named Sensor*
    controller: str = "Controller"

    kind = "is-everything-ok"


class WhereWasI(FrozenRecord):
    overhead: float = 0.0
    buffer_capacity: int | None = None  # None or inf: unbounded
    controller: str = "Controller"
    target_class: str = "Analysis"

    kind = "where-was-i"


Spec = AreWeThereYet | IsEverythingOk | WhereWasI


def _require_absent(model: NetworkModel, station: str, job_class: str) -> None:
    if station in model.station_names():
        raise TransformError(f"station name {station!r} already exists in the model")
    if any(c.name == job_class for c in model.classes):
        raise TransformError(f"class name {job_class!r} already exists in the model")


def _are_we_there_yet(net: NetworkModel, spec: AreWeThereYet) -> str:
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
    if not spec.f_poll >= 0:
        raise TransformError(f"f_poll must be >= 0 (got {spec.f_poll})")
    if not spec.poller_count >= 1:
        raise TransformError(f"poller_count must be >= 1 (got {spec.poller_count})")
    if not spec.polling_demand > 0:
        raise TransformError(f"polling_demand must be > 0 (got {spec.polling_demand})")
    _require_absent(net, "PollThink", "Polling")
    active = spec.f_poll > 0
    add_polling_cycle(net, spec.poller_count, Deterministic(1.0 / spec.f_poll if active else math.inf),
                      Exponential(1.0 / spec.polling_demand), spec.controller)
    if active:
        if spec.target_class not in {c.name for c in net.classes}:
            raise TransformError(f"model has no class named {spec.target_class!r}")
        net.detection[spec.target_class] = ("Polling", spec.controller)
    return (f"f_poll={spec.f_poll}/msec, demand={spec.polling_demand} msec, "
            f"{spec.poller_count} pollers")


def _is_everything_ok(net: NetworkModel, spec: IsEverythingOk) -> str:
    """Add a closed Status class that periodically checks every device.

    Status jobs cycle StatusThink (check_period) -> controller
    (check_demand) -> each device in turn (device_demand) -> StatusThink;
    a device named twice, or the controller as a device, is refused.
    With probability p_exc a device check raises an exception whose
    handling costs exception_demand at the controller; the extra demand is
    folded into the controller check visit so the class keeps one service
    entry per station (total cycle demand matches the described behavior).
    An infinite check_period is the neutral setting: status jobs park.
    """
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
    _require_absent(net, "StatusThink", "Status")

    check: Distribution = Exponential(1.0 / spec.check_demand)
    if spec.p_exc > 0:
        check = Mixture(spec.p_exc, check, Exponential(1.0 / spec.exception_demand))
    devices = spec.devices
    if devices is None:
        devices = tuple(s.name for s in net.stations if s.name.startswith("Sensor"))
    if not devices:
        raise TransformError("no checked devices: pass devices or add Sensor* stations")
    add_status_cycle(net, spec.n_status, Deterministic(spec.check_period), check, devices,
                     Exponential(1.0 / spec.device_demand), spec.controller)
    return f"n_status={spec.n_status}, period={spec.check_period} msec, p_exc={spec.p_exc}"


def _where_was_i(net: NetworkModel, spec: WhereWasI) -> str:
    """Charge the controller a save-restore prefix for the analysed
    workload and bound its waiting room.

    The target class's controller service becomes overhead + original
    (state must be recovered because it was not retained), and the
    controller gets a finite capacity: open-class arrivals finding it full
    are dropped and show up in the dropped-data metrics. overhead = 0 with
    unbounded capacity is the neutral setting.
    """
    if not spec.overhead >= 0:
        raise TransformError(f"overhead must be >= 0 (got {spec.overhead})")
    cap = spec.buffer_capacity
    if cap is not None and math.isinf(cap):
        cap = None
    if cap is not None:
        if not cap >= 1 or cap != int(cap):
            raise TransformError(f"buffer_capacity must be a positive integer (got {spec.buffer_capacity})")
        cap = int(cap)
    controller = net.stations[_station_index(net, spec.controller)]
    if spec.target_class not in controller.service:
        raise TransformError(
            f"station {spec.controller!r} has no service entry for class {spec.target_class!r}"
        )
    if controller.capacity is not None and cap is not None:
        raise TransformError(f"station {spec.controller!r} already has a finite capacity")

    # a zero offset wraps to a distribution that samples bit-identically
    _set_service(net, spec.controller, spec.target_class,
                 Shifted(spec.overhead, controller.service[spec.target_class]),
                 capacity=controller.capacity if cap is None else cap)
    return f"overhead={spec.overhead} msec, capacity={'unbounded' if cap is None else cap}"


_APPLIERS = {
    AreWeThereYet: _are_we_there_yet,
    IsEverythingOk: _is_everything_ok,
    WhereWasI: _where_was_i,
}

# kind -> its parameter set
SPECS = {cls.kind: cls for cls in _APPLIERS}


def apply(model: NetworkModel, spec: Spec) -> NetworkModel:
    """model with the antipattern spec describes added, tagged with its
    kind and noted in its description; model itself is left unchanged."""
    if spec.kind in model.antipattern_tags:
        raise TransformError(f"model already carries the {spec.kind} transform")
    diags = validate_model(model)
    if diags:
        raise TransformError("target model is invalid: " + "; ".join(diags))
    out = model.clone()
    note = _APPLIERS[type(spec)](out, spec)
    out.antipattern_tags = model.antipattern_tags + (spec.kind,)
    out.description = (model.description + "; " if model.description else "") + f"{spec.kind}: {note}"
    return out
