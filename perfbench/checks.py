"""Correctness checks on a qnaps run's written outputs.

Every check reads the files a run wrote (CSV, validation CSV, manifest)
and the experiment's YAML config, and recomputes what it compares
against without importing qnaps, so a fault in the program cannot also
hide in its own check. Each check returns a list of problems; an empty
list means it passed.

Bounds are scaled to the 99% half-widths the CSV itself reports
(``ci_half_width_99``), plus a small floor where the CI alone would be
as tight as sampling noise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Mean service demands (msec) of the sensor-net builder's defaults, per
# (station prefix, class). Sensors and actors are numbered, so a station
# matches by prefix: Sensor1, Sensor2, ... and Actor1, Actor2, ...
SENSOR_NET_DEMANDS = {
    ("Controller", "Analysis"): 2.0,
    ("Controller", "Actors"): 0.29,
    ("Controller", "Status"): 1.0,
    ("Controller", "Polling"): 2.06,
    ("Sensor", "Status"): 0.17,
    ("Actor", "Actors"): 3.22,
}
# Builder parameters that change no mean demand; any other parameter
# would need its own reference value, so it is refused.
_NEUTRAL_PARAMS = {"sensor_count", "actor_count", "include_status", "include_polling"}

# Open-class arrival rates (per msec) of the sensor-net builder.
SENSOR_NET_ARRIVALS = {"Analysis": 0.087, "Actors": 0.05}

# Floors under the CI-scaled bounds, relative to the compared value.
UTILIZATION_LAW_FLOOR = 0.02
FLOW_FLOOR = 0.01


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def estimates(rows) -> dict:
    """(sweep_value, station, class, metric) -> (mean, half_width)."""
    return {
        (r["sweep_value"], r["station"], r["class"], r["metric"]):
            (float(r["mean"]), float(r["ci_half_width_99"]))
        for r in rows
    }


def sweep_points(rows) -> list[str]:
    """Sweep values in the order the CSV lists them."""
    seen = []
    for r in rows:
        if r["sweep_value"] not in seen:
            seen.append(r["sweep_value"])
    return seen


def service_means(doc: dict, sweep_value: str) -> dict:
    """(station prefix, class) -> mean service time at one sweep point."""
    if doc["model"].get("builder") != "sensor-net":
        raise ValueError("reference demands exist for the sensor-net builder only")
    params = dict(doc["model"].get("params") or {})
    antipattern = dict(doc.get("antipattern") or {})
    if doc.get("sweep"):
        parts = doc["sweep"]["parameter"].split(".")
        if parts[0] == "model":
            params[parts[2]] = float(sweep_value)
        else:
            antipattern[parts[1]] = float(sweep_value)
    unknown = set(params) - _NEUTRAL_PARAMS
    if unknown:
        raise ValueError(f"no reference demand for model params {sorted(unknown)}")
    means = dict(SENSOR_NET_DEMANDS)
    kind = antipattern.get("kind")
    if kind == "are-we-there-yet":
        means[("Controller", "Polling")] = float(antipattern.get("polling_demand", 4.0))
    elif kind == "where-was-i":
        means[("Controller", "Analysis")] += float(antipattern.get("overhead", 0.0))
    elif kind is not None:
        raise ValueError(f"no reference demand for antipattern {kind!r}")
    return means


def _demand(means: dict, station: str, job_class: str):
    for (prefix, cls), mean in means.items():
        if cls == job_class and station.startswith(prefix):
            return mean
    return None


def check_littles_law(rows) -> list[str]:
    """N = X * R per class at system level, within the propagated CIs."""
    est = estimates(rows)
    problems = []
    for (sv, st, cls, metric), (n_bar, hw_n) in est.items():
        if st != "system" or metric != "queue-length":
            continue
        x, hw_x = est[(sv, st, cls, "throughput-per-msec")]
        r, hw_r = est[(sv, st, cls, "response-time-msec")]
        bound = hw_n + x * hw_r + r * hw_x
        if abs(n_bar - x * r) > bound:
            problems.append(
                f"Little's law [{sv}] {cls}: N={n_bar!r}, X*R={x * r!r}, bound {bound!r}")
    return problems


def check_utilization_law(rows, doc: dict) -> list[str]:
    """U = X * E[S] for every FCFS station and class."""
    est = estimates(rows)
    problems = []
    for (sv, st, cls, metric), (u, hw_u) in est.items():
        if metric != "utilization" or cls == "all":
            continue
        mean = _demand(service_means(doc, sv), st, cls)
        if mean is None:
            problems.append(f"utilization law [{sv}] {st}/{cls}: no reference demand")
            continue
        x, hw_x = est[(sv, st, cls, "throughput-per-msec")]
        expected = x * mean
        bound = hw_u + mean * hw_x + UTILIZATION_LAW_FLOOR * expected
        if abs(u - expected) > bound:
            problems.append(
                f"utilization law [{sv}] {st}/{cls}: U={u!r}, X*E[S]={expected!r}, bound {bound!r}")
    return problems


def check_utilization_bound(rows) -> list[str]:
    return [
        f"utilization above 1 [{r['sweep_value']}] {r['station']}/{r['class']}: {r['mean']}"
        for r in rows
        if r["metric"] == "utilization" and float(r["mean"]) > 1.0
    ]


def check_manifest(out_dir, experiment: str) -> list[str]:
    """Manifest digests equal the sha256 of the files written beside it."""
    out_dir = Path(out_dir)
    manifest_name = f"{experiment}_manifest.json"
    manifest = json.loads((out_dir / manifest_name).read_text(encoding="utf-8"))
    listed = manifest["outputs"]
    on_disk = sorted(p.name for p in out_dir.iterdir() if p.name != manifest_name)
    problems = []
    if sorted(listed) != on_disk:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {on_disk}")
    for name, digest in sorted(listed.items()):
        path = out_dir / name
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest digest of {name} does not match the file")
    return problems


def check_open_flow(rows) -> list[str]:
    """Every open arrival is served or dropped at the capped controller:
    throughput + dropped rate = arrival rate, per open class and point."""
    est = estimates(rows)
    problems = []
    for sv in sweep_points(rows):
        for cls, rate in SENSOR_NET_ARRIVALS.items():
            x, hw_x = est[(sv, "Controller", cls, "throughput-per-msec")]
            d, hw_d = est[(sv, "Controller", cls, "dropped-rate-per-msec")]
            bound = hw_x + hw_d + FLOW_FLOOR * rate
            if abs(x + d - rate) > bound:
                problems.append(
                    f"open flow [{sv}] {cls}: X+drops={x + d!r}, arrivals {rate!r}, bound {bound!r}")
    return problems


def check_interior_minimum(rows) -> list[str]:
    """System Analysis response time is smallest at an interior sweep point."""
    est = estimates(rows)
    points = sweep_points(rows)
    means = [est[(sv, "system", "Analysis", "response-time-msec")][0] for sv in points]
    best = means.index(min(means))
    if 0 < best < len(means) - 1:
        return []
    return [f"Analysis response time is smallest at endpoint {points[best]}: {means}"]


def _graph_demands(node, out: dict) -> None:
    """Demand per resource of an execution graph made of the config's
    seq and basic mappings (the shipped scenarios use no other kind)."""
    (kind, body), = node.items()
    if kind == "basic":
        for res, d in body.items():
            out[res] = out.get(res, 0.0) + float(d)
    elif kind == "seq":
        for child in body:
            _graph_demands(child, out)
    else:
        raise ValueError(f"no reference reduction for execution-graph node {kind!r}")


def check_validation_table(validation_rows, doc: dict) -> list[str]:
    """EG columns equal lambda * D (percent) and sum of D, from the config."""
    section = doc["validation"]
    by_class = {r["job_class"]: r for r in validation_rows}
    problems = []
    if sorted(by_class) != sorted(s["class"] for s in section["scenarios"]):
        problems.append(f"validation classes {sorted(by_class)} differ from the config's scenarios")
    for scenario in section["scenarios"]:
        cls = scenario["class"]
        row = by_class.get(cls)
        if row is None:
            continue
        demands: dict = {}
        _graph_demands(scenario["graph"], demands)
        resource = section["resource_map"][cls]
        util = 100.0 * float(scenario["arrival_rate_per_msec"]) * demands.get(resource, 0.0)
        resp = math.fsum(demands.values())
        for column, expected in (("eg_utilization_pct", util), ("eg_response_msec", resp)):
            got = float(row[column])
            if not math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"validation {cls} {column}: {got!r}, config gives {expected!r}")
    return problems


def check_same_bytes(a: bytes, b: bytes, what: str) -> list[str]:
    return [] if a == b else [f"{what}: contents differ"]


def check_run(out_dir, experiment: str, doc: dict) -> list[str]:
    """Every check that applies to one run's output directory."""
    out_dir = Path(out_dir)
    rows = read_csv(out_dir / f"{experiment}.csv")
    problems = (
        check_littles_law(rows)
        + check_utilization_law(rows, doc)
        + check_utilization_bound(rows)
        + check_manifest(out_dir, experiment)
    )
    kind = (doc.get("antipattern") or {}).get("kind")
    if kind == "where-was-i":
        problems += check_open_flow(rows)
    if kind == "are-we-there-yet" and doc.get("sweep"):
        problems += check_interior_minimum(rows)
    if doc.get("validation"):
        problems += check_validation_table(
            read_csv(out_dir / f"{experiment}_validation.csv"), doc)
    return problems
