"""Shared test fixtures: tiny models and independent oracle implementations.

The oracles here (closed forms, exact mean value analysis, brute-force
execution graph expectation) are written from the textbook definitions,
not from the package code, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

from qnaps.egraph import Basic, Branch, Loop, Sequence
from qnaps.kernel import run_replication
from qnaps.model import (
    DELAY,
    FCFS,
    SINK,
    SOURCE,
    Deterministic,
    Exponential,
    JobClass,
    Mixture,
    NetworkModel,
    RoutingTable,
    Station,
)
from qnaps.records import replace
from qnaps.stats import MetricAccumulator

# ---------------------------------------------------------------------------
# models


def mm1_model(lam: float = 0.8, mu: float = 1.0, capacity: int | None = None) -> NetworkModel:
    """Single exponential queue with Poisson arrivals."""
    routing = RoutingTable()
    routing.add("Jobs", "Source", "Queue")
    routing.add("Jobs", "Queue", "Sink")
    return NetworkModel(
        name="mm1",
        stations=[
            Station("Source", kind=SOURCE),
            Station("Queue", kind=FCFS, capacity=capacity, service={"Jobs": Exponential(mu)}),
            Station("Sink", kind=SINK),
        ],
        classes=[JobClass("Jobs", "open", arrival=Exponential(lam))],
        routing=routing,
    )


def two_class_queue_model(lams, mus, capacity: int | None = None) -> NetworkModel:
    """Open classes A and B, Poisson at rates lams, at one fcfs server
    that serves them exponentially at rates mus, sharing its capacity."""
    names = ("A", "B")
    routing = RoutingTable()
    for name in names:
        routing.add(name, "Source", "Queue")
        routing.add(name, "Queue", "Sink")
    return NetworkModel(
        name="two-class-queue",
        stations=[
            Station("Source", kind=SOURCE),
            Station("Queue", kind=FCFS, capacity=capacity,
                    service={n: Exponential(mu) for n, mu in zip(names, mus)}),
            Station("Sink", kind=SINK),
        ],
        classes=[JobClass(n, "open", arrival=Exponential(lam)) for n, lam in zip(names, lams)],
        routing=routing,
    )


def stopping_arrivals_model() -> NetworkModel:
    """mm1_model whose arrival gap is infinite with probability 0.01: the
    arrival mean is infinite only through a part, so the class takes
    about 100 arrivals and then none."""
    model = mm1_model()
    model.classes[0] = replace(model.classes[0],
                               arrival=Mixture(0.01, Exponential(0.8), Exponential(0.0)))
    return model


def open_trap_model() -> NetworkModel:
    """Open class routed Source -> D -> D at a zero-time delay: a sink
    exists but no job can reach it."""
    routing = RoutingTable()
    routing.add("Jobs", "Source", "D")
    routing.add("Jobs", "D", "D")
    return NetworkModel(
        name="open-trap",
        stations=[
            Station("Source", kind=SOURCE),
            Station("D", kind=DELAY, service={"Jobs": Deterministic(0.0)}),
            Station("Sink", kind=SINK),
        ],
        classes=[JobClass("Jobs", "open", arrival=Exponential(1.0))],
        routing=routing,
    )


def closed_trap_model(delay: float) -> NetworkModel:
    """Closed class C, population 2, reference Ref: Ref -> A 0.5 / B 0.5,
    A -> Ref, and B <-> X at deterministic delays of delay. A job that
    takes B never gets back to Ref."""
    routing = RoutingTable()
    routing.add("C", "Ref", [("A", 0.5), ("B", 0.5)])
    routing.add("C", "A", "Ref")
    routing.add("C", "B", "X")
    routing.add("C", "X", "B")
    return NetworkModel(
        name="closed-trap",
        stations=[
            Station("Ref", kind=DELAY, service={"C": Exponential(1.0)}),
            Station("A", kind=FCFS, service={"C": Exponential(2.0)}),
            Station("B", kind=DELAY, service={"C": Deterministic(delay)}),
            Station("X", kind=DELAY, service={"C": Deterministic(delay)}),
        ],
        classes=[JobClass("C", "closed", population=2, reference="Ref")],
        routing=routing,
    )


def closed_cycle_model(demands=(1.0, 0.6), population: int = 1) -> NetworkModel:
    """N jobs circulating around fcfs stations S1 -> S2 -> ... -> S1."""
    names = [f"S{i + 1}" for i in range(len(demands))]
    routing = RoutingTable()
    for here, nxt in zip(names, names[1:] + names[:1]):
        routing.add("Jobs", here, nxt)
    return NetworkModel(
        name="closed-cycle",
        stations=[
            Station(n, kind=FCFS, service={"Jobs": Exponential(1.0 / d)})
            for n, d in zip(names, demands)
        ],
        classes=[JobClass("Jobs", "closed", population=population, reference=names[0])],
        routing=routing,
    )


def run_reps(model: NetworkModel, seeds, horizon: float, warmup: float):
    return [run_replication(model, seed=s, horizon=horizon, warmup=warmup) for s in seeds]


def estimate(results):
    """99% intervals by (station, class, metric) over a list of
    replications (at least 2), indexed by their list position."""
    acc = MetricAccumulator()
    for i, result in enumerate(results):
        acc.add(i, result)
    return acc.estimates()


def table(result) -> dict:
    """One replication's samples by (station, class, metric)."""
    return {s.key: s.value for s in result.samples}


def station(model: NetworkModel, name: str) -> Station:
    return next(s for s in model.stations if s.name == name)


def job_class(model: NetworkModel, name: str) -> JobClass:
    return next(c for c in model.classes if c.name == name)


def covers(ci, value: float) -> bool:
    """Whether the confidence interval ci contains value."""
    return abs(ci.mean - value) <= ci.half_width


# ---------------------------------------------------------------------------
# analytic oracles


def mm1_utilization(lam: float, mu: float) -> float:
    return lam / mu


def mm1_response(lam: float, mu: float) -> float:
    return 1.0 / (mu - lam)


def mm1_queue_length(lam: float, mu: float) -> float:
    rho = lam / mu
    return rho / (1.0 - rho)


def mm1k_drop_probability(lam: float, mu: float, k: int) -> float:
    """Loss probability of M/M/1/K (K = waiting + in service)."""
    rho = lam / mu
    if rho == 1.0:
        return 1.0 / (k + 1)
    return (1.0 - rho) * rho**k / (1.0 - rho ** (k + 1))


def mg1_class_responses(lams, mus) -> tuple:
    """Mean response time of each class at one fcfs server fed by Poisson
    classes at rates lams with exponential services at rates mus: the
    Pollaczek-Khinchine wait lam E[S^2] / (2 (1 - rho)), the same for
    every class, plus the class's own mean service time. An exponential
    of rate mu has E[S^2] = 2 / mu^2."""
    rho = math.fsum(lam / mu for lam, mu in zip(lams, mus))
    wait = math.fsum(lam * 2.0 / mu**2 for lam, mu in zip(lams, mus)) / (2.0 * (1.0 - rho))
    return tuple(wait + 1.0 / mu for mu in mus)


def exact_mva(demands, n_max: int):
    """Exact MVA for a single-class closed cycle of fcfs stations.

    Returns [(n, throughput, per-station queue lengths)] for n = 1..n_max.
    Recursion: R_k(n) = D_k (1 + Q_k(n-1)); X = n / sum R; Q_k = X R_k.
    """
    q = [0.0] * len(demands)
    out = []
    for n in range(1, n_max + 1):
        r = [d * (1.0 + qq) for d, qq in zip(demands, q)]
        x = n / math.fsum(r)
        q = [x * rr for rr in r]
        out.append((n, x, tuple(q)))
    return out


# ---------------------------------------------------------------------------
# execution graph brute force


def random_eg(rng, max_depth: int = 4, resources=("R1", "R2", "R3")):
    """Random graph of at most max_depth nested levels, integer loop counts."""

    def node(depth):
        if depth >= max_depth:
            kind = "basic"
        else:
            kind = ("basic", "seq", "branch", "loop")[rng.integers(0, 4)]
        if kind == "basic":
            picks = rng.choice(len(resources), size=int(rng.integers(1, len(resources) + 1)), replace=False)
            return Basic({resources[i]: float(rng.uniform(0.1, 5.0)) for i in sorted(picks)})
        if kind == "seq":
            return Sequence(*(node(depth + 1) for _ in range(int(rng.integers(2, 4)))))
        if kind == "branch":
            m = int(rng.integers(2, 4))
            w = rng.uniform(0.1, 1.0, size=m)
            w = [float(v) for v in w / w.sum()]
            w[-1] = 1.0 - math.fsum(w[:-1])  # close the simplex exactly
            return Branch(*((w[i], node(depth + 1)) for i in range(m)))
        return Loop(int(rng.integers(0, 4)), node(depth + 1))

    return node(1)


def _unrolled(node):
    """Copy with every loop expanded into count repetitions (integer counts)."""
    if isinstance(node, Basic):
        return node
    if isinstance(node, Sequence):
        return Sequence(*(_unrolled(c) for c in node.children))
    if isinstance(node, Branch):
        return Branch(*((p, _unrolled(c)) for p, c in node.arms))
    assert isinstance(node, Loop) and node.count == int(node.count)
    body = _unrolled(node.child)
    return Sequence(*([body] * int(node.count)))


def eg_expectation_by_paths(node):
    """Expected demand per resource by exhaustive branch-path enumeration."""

    def paths(n):
        if isinstance(n, Basic):
            return [(1.0, dict(n.demand))]
        if isinstance(n, Sequence):
            acc = [(1.0, {})]
            for child in n.children:
                nxt = []
                for p, d in acc:
                    for q, e in paths(child):
                        merged = dict(d)
                        for res, v in e.items():
                            merged[res] = merged.get(res, 0.0) + v
                        nxt.append((p * q, merged))
                acc = nxt
            return acc
        assert isinstance(n, Branch)
        return [(p * q, d) for p, child in n.arms for q, d in paths(child)]

    out: dict[str, float] = {}
    for p, d in paths(_unrolled(node)):
        for res, v in d.items():
            out[res] = out.get(res, 0.0) + p * v
    return out


def same_yaml(a, b) -> bool:
    """a == b with the same types all the way down, keys included (True
    is not 1, and 1 is not 1.0), and each float by its repr, so -0.0 is
    not 0.0 and a NaN matches a NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        keys = {key: key for key in b}
        return len(a) == len(b) and all(
            key in keys and same_yaml(key, keys[key]) and same_yaml(value, b[key]) for key, value in a.items()
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_yaml, a, b))
    return repr(a) == repr(b) if isinstance(a, float) else a == b


def load_script(path: Path):
    """The module that the script at path defines, loaded from its file:
    tools/ and perfbench/ are no packages."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
