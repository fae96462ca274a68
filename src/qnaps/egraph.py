"""Execution graph reduction and no-contention metrics.

An execution graph describes one class's software behavior as nested
basic blocks (per-resource demand), sequences, probabilistic branches and
repetition loops. reduce() folds a graph to a total demand per resource:
sequences add, branches take the expectation, loops multiply by the
(possibly fractional, i.e. expected) iteration count. eg_metrics() turns a
scenario (graph plus arrival rate) into the no-contention response time
(total demand) and per-resource utilizations via the utilization law
U = arrival rate x demand; utilizations above 100% are reported, not
clamped.

build_validation_table() lines these analytic values up against simulated
estimates class by class, producing the rows the text renderer prints.
check_scenarios() holds its pairing rules, so the config parser can apply
them to the model's classes before any replication runs.
"""
from __future__ import annotations

import math

from .model import PROB_TOL
from .records import Field, FrozenRecord
from .stats import ConfidenceInterval, response_time_error, utilization_error

# reduced form: resource name -> msec of demand
DemandVector = dict


class EgError(ValueError):
    """Malformed execution graph or scenario."""


class Basic(FrozenRecord):
    """Leaf block: demand in msec per resource."""

    demand: dict = Field(factory=dict)

    def __post_init__(self):
        for res, d in self.demand.items():
            if not d >= 0:
                raise EgError(f"negative demand {d} on resource {res!r}")


class Sequence(FrozenRecord):
    children: tuple = ()

    def __init__(self, *children):
        object.__setattr__(self, "children", tuple(children))


class Branch(FrozenRecord):
    """Probabilistic alternatives: (probability, node) pairs."""

    arms: tuple = ()

    def __init__(self, *arms):
        object.__setattr__(self, "arms", tuple(arms))


class Loop(FrozenRecord):
    """count repetitions of child; fractional counts are expected counts."""

    count: float
    child: EgNode = Field(key="body")  # key: the YAML key in a config

    def __post_init__(self):
        if not self.count >= 0:
            raise EgError(f"loop count must be >= 0 (got {self.count})")


EgNode = Basic | Sequence | Branch | Loop


def reduce(root) -> DemandVector:
    """Fold a graph to total demand per resource.

    sequence = sum of children, branch = probability-weighted sum,
    loop = count x child, basic = its own demand.
    """
    out: DemandVector = {}
    _accumulate(root, 1.0, out)
    return out


def _accumulate(node, weight: float, out: DemandVector) -> None:
    if isinstance(node, Basic):
        for res, d in node.demand.items():
            out[res] = out.get(res, 0.0) + weight * d
    elif isinstance(node, Sequence):
        for child in node.children:
            _accumulate(child, weight, out)
    elif isinstance(node, Branch):
        if not node.arms:
            raise EgError("branch with no arms")
        total = 0.0
        for p, child in node.arms:
            if not 0 <= p <= 1:
                raise EgError(f"branch probability {p} outside [0, 1]")
            total += p
        if abs(total - 1.0) > PROB_TOL:
            raise EgError(f"branch probabilities sum to {total!r}, not 1")
        for p, child in node.arms:
            _accumulate(child, weight * p, out)
    elif isinstance(node, Loop):
        _accumulate(node.child, weight * node.count, out)
    else:
        raise EgError(f"unknown execution graph node {node!r}")


class EgScenario(FrozenRecord):
    """One class's execution graph plus its arrival rate (per msec)."""

    class_name: str = Field(key="class")  # key: the YAML key in a config
    root: EgNode = Field(key="graph")
    arrival_rate: float = Field(key="arrival_rate_per_msec")

    def __post_init__(self):
        if not self.arrival_rate >= 0:
            raise EgError(f"arrival rate must be >= 0 (got {self.arrival_rate})")


class EgMetrics(FrozenRecord):
    """No-contention solution: utilization percent per resource and total
    response time."""

    utilization: dict
    response_time: float


def eg_metrics(scenario: EgScenario) -> EgMetrics:
    demand = reduce(scenario.root)
    response = math.fsum(demand.values())
    util = {res: scenario.arrival_rate * d * 100.0 for res, d in demand.items()}
    return EgMetrics(utilization=util, response_time=response)


class ValidationRow(FrozenRecord):
    """One class's analytic-versus-simulated comparison."""

    job_class: str
    eg_utilization: float          # percent
    qn_utilization: ConfidenceInterval  # percent
    utilization_error: float       # percentage points
    eg_response: float             # msec
    qn_response: ConfidenceInterval
    response_error: float          # percent


def check_scenarios(scenarios, classes, resource_map) -> None:
    """Raise EgError unless the scenarios and the job classes pair off one
    to one and each scenario places demand on the resource its class is
    compared on (resource_map: class -> resource)."""
    eg_classes = [s.class_name for s in scenarios]
    if len(set(eg_classes)) != len(eg_classes):
        raise EgError("duplicate scenario class names")
    missing_qn = [c for c in eg_classes if c not in classes]
    missing_eg = sorted(set(classes) - set(eg_classes))
    if missing_qn:
        raise EgError(f"class present only on the analytic side: {', '.join(missing_qn)}")
    if missing_eg:
        raise EgError(f"class present only on the simulated side: {', '.join(missing_eg)}")
    for scenario in scenarios:
        cls = scenario.class_name
        if cls not in resource_map:
            raise EgError(f"no comparison resource named for class {cls!r}")
        if resource_map[cls] not in reduce(scenario.root):
            raise EgError(f"scenario for {cls!r} places no demand on resource {resource_map[cls]!r}")


def build_validation_table(scenarios, qn_estimates, resource_map) -> list[ValidationRow]:
    """Join analytic scenarios with simulated estimates class by class.

    qn_estimates maps (station, job class, metric) -> ConfidenceInterval as
    produced by the estimate layer. resource_map names the station whose
    utilization each class is compared on (their demand can concentrate on
    different resources). A class present on only one side is an error.
    """
    check_scenarios(scenarios, {c for (s, c, m) in qn_estimates if s == "system"}, resource_map)
    rows = []
    for scenario in scenarios:
        cls = scenario.class_name
        metrics = eg_metrics(scenario)
        resource = resource_map[cls]
        try:
            qn_util = qn_estimates[(resource, cls, "utilization")]
            qn_resp = qn_estimates[("system", cls, "response-time-msec")]
        except KeyError as k:
            raise EgError(f"simulated estimates missing {k.args[0]!r}") from None
        eg_util = metrics.utilization[resource]
        # estimates carry utilization as a fraction; the table speaks percent
        qn_util_pct = ConfidenceInterval(
            qn_util.mean * 100.0, qn_util.half_width * 100.0, qn_util.level, qn_util.n
        )
        rows.append(ValidationRow(
            job_class=cls,
            eg_utilization=eg_util,
            qn_utilization=qn_util_pct,
            utilization_error=utilization_error(eg_util, qn_util_pct.mean),
            eg_response=metrics.response_time,
            qn_response=qn_resp,
            # no relative error against a simulated mean of 0: the row reads nan
            response_error=(response_time_error(metrics.response_time, qn_resp.mean)
                            if qn_resp.mean != 0 else math.nan),
        ))
    return rows
