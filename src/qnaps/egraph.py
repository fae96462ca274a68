"""Execution graph reduction and no-contention metrics.

An execution graph describes one class's software behavior as nested
basic blocks (per-resource demand), sequences, probabilistic branches and
repetition loops. Each node checks itself when built (EgError), so a
built graph always reduces. reduce() folds a graph to a total demand per
resource: sequences add, branches take the expectation, loops multiply by
the (possibly fractional, i.e. expected) iteration count.

check_scenarios() holds the pairing rules of scenarios (graph plus
arrival rate) and job classes, so the config parser can apply them before
any replication runs, and returns each scenario's demand. From it,
build_validation_table() takes the no-contention response time (total
demand) and utilization (U = arrival rate x demand; above 100% is
reported, not clamped) and lines them up against simulated estimates
class by class, producing the rows the text renderer prints.
"""
from __future__ import annotations

import math

from .model import PROB_TOL
from .records import Field, FrozenRecord
from .stats import ConfidenceInterval

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
    """Probabilistic alternatives: (probability, node) pairs, each
    probability in [0, 1] and their sum within PROB_TOL of 1."""

    arms: tuple = ()

    def __init__(self, *arms):
        if not arms:
            raise EgError("branch with no arms")
        total = 0.0  # a running total, not sum(), which compensates from Python 3.12
        for p, child in arms:
            if not 0 <= p <= 1:
                raise EgError(f"branch probability {p} outside [0, 1]")
            total += p
        if abs(total - 1.0) > PROB_TOL:
            raise EgError(f"branch probabilities sum to {total!r}, not 1")
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


class ValidationRow(FrozenRecord):
    """One class's analytic-versus-simulated comparison."""

    job_class: str
    eg_utilization: float          # percent
    qn_utilization: ConfidenceInterval  # percent
    utilization_error: float       # percentage points
    eg_response: float             # msec
    qn_response: ConfidenceInterval
    response_error: float          # percent


def utilization_error(eg_percent: float, qn_percent: float) -> float:
    """Absolute distance between the two utilizations, in percentage points."""
    return abs(eg_percent - qn_percent)


def response_time_error(eg_msec: float, qn_mean_msec: float) -> float:
    """Absolute percentage error of the analytic response time against the
    simulated mean (the simulated mean is the denominator); nan against a
    simulated mean of 0."""
    if qn_mean_msec == 0:
        return math.nan
    return 100.0 * abs(eg_msec - qn_mean_msec) / qn_mean_msec


def check_scenarios(scenarios, classes, resource_map) -> dict[str, DemandVector]:
    """Each scenario's reduced demand, by class. Raise EgError unless the
    scenarios and the job classes pair off one to one and each scenario
    places demand on the resource its class is compared on (resource_map:
    class -> resource)."""
    eg_classes = [s.class_name for s in scenarios]
    if len(set(eg_classes)) != len(eg_classes):
        raise EgError("duplicate scenario class names")
    missing_qn = [c for c in eg_classes if c not in classes]
    missing_eg = sorted(set(classes) - set(eg_classes))
    if missing_qn:
        raise EgError(f"class present only on the analytic side: {', '.join(missing_qn)}")
    if missing_eg:
        raise EgError(f"class present only on the simulated side: {', '.join(missing_eg)}")
    demands = {}
    for scenario in scenarios:
        cls = scenario.class_name
        if cls not in resource_map:
            raise EgError(f"no comparison resource named for class {cls!r}")
        demands[cls] = reduce(scenario.root)
        if resource_map[cls] not in demands[cls]:
            raise EgError(f"scenario for {cls!r} places no demand on resource {resource_map[cls]!r}")
    return demands


def build_validation_table(scenarios, qn_estimates, resource_map) -> list[ValidationRow]:
    """Join analytic scenarios with simulated estimates class by class.

    qn_estimates maps (station, job class, metric) -> ConfidenceInterval as
    produced by the estimate layer. resource_map names the station whose
    utilization each class is compared on (their demand can concentrate on
    different resources). A class present on only one side is an error.
    """
    demands = check_scenarios(scenarios, {c for (s, c, m) in qn_estimates if s == "system"}, resource_map)
    rows = []
    for scenario in scenarios:
        cls = scenario.class_name
        demand = demands[cls]
        resource = resource_map[cls]
        try:
            qn_util = qn_estimates[(resource, cls, "utilization")]
            qn_resp = qn_estimates[("system", cls, "response-time-msec")]
        except KeyError as k:
            raise EgError(f"simulated estimates missing {k.args[0]!r}") from None
        eg_util = scenario.arrival_rate * demand[resource] * 100.0
        eg_resp = math.fsum(demand.values())
        # estimates carry utilization as a fraction; the table speaks percent
        qn_util_pct = ConfidenceInterval(
            qn_util.mean * 100.0, qn_util.half_width * 100.0, qn_util.level, qn_util.n
        )
        rows.append(ValidationRow(
            job_class=cls,
            eg_utilization=eg_util,
            qn_utilization=qn_util_pct,
            utilization_error=utilization_error(eg_util, qn_util_pct.mean),
            eg_response=eg_resp,
            qn_response=qn_resp,
            response_error=response_time_error(eg_resp, qn_resp.mean),
        ))
    return rows
