"""Release gate: one test per acceptance check.

Covers the analytic oracles (open queue, finite buffer, closed network),
the frozen validation-table numerics, transform neutrality, behavior of
the shipped experiment configs (sweet spot, monotone load, their pinned bytes,
a Little's law audit of every station and class, the utilization law on
every fcfs cell, each ungated class's response as the visit-weighted
sum of its station responses, forced flow on every visited cell,
each class's response bounded below by its demand, and each open
class's arrivals leaving as throughput or drops), graph reduction brute
force, and two open classes at one fcfs server (Pollaczek-Khinchine
waits for class-dependent means, drops at a capacity they share).
"""

import csv
import hashlib
import json
import math
import platform
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from qnaps.antipatterns import SPECS, WhereWasI, apply
from qnaps.config import load_config
from qnaps.egraph import reduce as eg_reduce
from qnaps.kernel import run_replication
from qnaps.model import (
    FCFS,
    BaselineParams,
    Exponential,
    SensorNetParams,
    build_baseline,
    build_sensor_net,
)
from qnaps.render import render_validation_table
from qnaps.runner import replication_seed, run_experiment
from qnaps.stats import ConfidenceInterval
from qnaps.egraph import ValidationRow, response_time_error, utilization_error

from _helpers import (
    closed_cycle_model,
    covers,
    eg_expectation_by_paths,
    estimate,
    exact_mva,
    load_script,
    mg1_class_responses,
    mm1_model,
    mm1k_drop_probability,
    random_eg,
    run_reps,
    table,
    two_class_queue_model,
    visit_ratios,
)

HORIZON, WARMUP = 1.0e5, 1.0e4

same_bytes = load_script(Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py")
PIN = json.loads(same_bytes.PIN.read_text(encoding="utf-8"))
JOBS = (1, 2)


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """Run every shipped config at full scale at jobs 1 and 2; reused by nine gates."""
    runs = {}
    for name in PIN:
        cfg = load_config(resources.files("qnaps") / "configs" / f"{name}.yaml")
        dirs, seconds = [], []
        for jobs in JOBS:
            out = tmp_path_factory.mktemp(f"{name}_jobs{jobs}")
            t0 = time.perf_counter()
            run_experiment(cfg, out_dir=out, jobs=jobs)
            seconds.append(time.perf_counter() - t0)
            dirs.append(out)
        runs[name] = {"cfg": cfg, "dirs": tuple(dirs), "seconds": tuple(seconds)}
    return runs


def _csv_rows(out_dir, experiment):
    with open(out_dir / f"{experiment}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _point_cells(run, experiment):
    """Each point of the run's config with its CSV cells at jobs 1:
    (station, class, metric) -> (mean, 99% half-width)."""
    by_value = {}
    for r in _csv_rows(run["dirs"][0], experiment):
        by_value.setdefault(r["sweep_value"], {})[(r["station"], r["class"], r["metric"])] = (
            float(r["mean"]), float(r["ci_half_width_99"]))
    assert len(by_value) == len(run["cfg"].points), experiment
    return list(zip(run["cfg"].points, by_value.values()))


def _series(rows, station, job_class, metric):
    return [float(r["mean"]) for r in rows
            if (r["station"], r["class"], r["metric"]) == (station, job_class, metric)]


# ---------------------------------------------------------------------------
# 1. open single queue against the closed forms


def test_criterion_01_mm1_means_and_ci_coverage():
    model = mm1_model(lam=0.8, mu=1.0)
    t0 = time.perf_counter()
    util_hits = resp_hits = 0
    for trial in range(20):
        base = 1000 + 64 * trial  # disjoint seed blocks: rep index < 64
        seeds = [replication_seed(base, 0, rep) for rep in range(30)]
        est = estimate(run_reps(model, seeds, HORIZON, WARMUP))
        util = est[("Queue", "all", "utilization")]
        resp = est[("system", "Jobs", "response-time-msec")]
        if trial == 0:
            assert abs(util.mean - 0.8) <= 0.01
            assert abs(resp.mean - 5.0) <= 0.03 * 5.0
        util_hits += covers(util, 0.8)
        resp_hits += covers(resp, 5.0)
    assert util_hits >= 17, f"99% CI covered utilization only {util_hits}/20 times"
    assert resp_hits >= 17, f"99% CI covered response time only {resp_hits}/20 times"
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 2. finite buffer drop probability through the buffer-capping transform


def test_criterion_02_finite_buffer_drop_probability():
    base = build_baseline(BaselineParams(
        arrival_rate=0.5, controller_service=Exponential(1.0),
        environment_delay=None,
    ))
    model = apply(base, WhereWasI(overhead=0.0, buffer_capacity=3))
    t0 = time.perf_counter()
    window = HORIZON - WARMUP
    drops = served = 0.0
    for rep in range(10):
        res = table(run_replication(model, seed=500 + rep, horizon=HORIZON, warmup=WARMUP))
        drops += res[("Controller", "Analysis", "dropped-count")]
        served += res[("Controller", "Analysis", "throughput-per-msec")] * window
    p_sim = drops / (drops + served)
    assert abs(p_sim - mm1k_drop_probability(0.5, 1.0, 3)) <= 0.005
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2b. two open classes at one fcfs server: class-dependent means, and a
# capacity they share


def test_criterion_02b_fcfs_classes_share_the_pollaczek_khinchine_wait():
    # rho = 0.3 / 1 + 0.1 / 0.25 = 0.7: every class waits the same 6.333 ms
    lams, mus = (0.3, 0.1), (1.0, 0.25)
    model = two_class_queue_model(lams, mus)
    exact = mg1_class_responses(lams, mus)
    for trial in range(5):
        seeds = [replication_seed(3000 + 64 * trial, 0, rep) for rep in range(10)]
        est = estimate(run_reps(model, seeds, 2.0e5, 2.0e4))
        for job_class, t in zip(("A", "B"), exact):
            ci = est[("Queue", job_class, "response-time-msec")]
            assert abs(ci.mean - t) <= 2.0 * ci.half_width, (
                f"trial {trial} class {job_class}: {ci.mean:.4f} +- {ci.half_width:.4f} vs {t:.4f}")


def test_criterion_02c_shared_capacity_drops_every_class_alike():
    # whatever the labels, the total is M/M/1/4 at rho = 0.8, and by PASTA
    # each class finds the buffer full with the same probability P4
    lams = (0.5, 0.3)
    model = two_class_queue_model(lams, (1.0, 1.0), capacity=4)
    p4 = mm1k_drop_probability(sum(lams), 1.0, 4)
    est = estimate(run_reps(model, [replication_seed(4000, 0, rep) for rep in range(10)],
                            HORIZON, WARMUP))
    for job_class, lam in zip(("A", "B"), lams):
        for metric, exact in (("dropped-rate-per-msec", lam * p4),
                              ("throughput-per-msec", lam * (1.0 - p4))):
            ci = est[("Queue", job_class, metric)]
            assert abs(ci.mean - exact) <= 2.0 * ci.half_width, (
                f"class {job_class} {metric}: {ci.mean:.5f} +- {ci.half_width:.5f} vs {exact:.5f}")


# ---------------------------------------------------------------------------
# 3. closed cycle throughput against exact MVA


def test_criterion_03_closed_network_matches_exact_mva():
    t0 = time.perf_counter()
    for n, x_exact, _ in exact_mva((1.0, 0.6), 10):
        model = closed_cycle_model((1.0, 0.6), population=n)
        res = run_replication(model, seed=1234 + n, horizon=HORIZON, warmup=WARMUP)
        x_sim = table(res)[("system", "Jobs", "throughput-per-msec")]
        assert abs(x_sim - x_exact) <= 0.02 * x_exact, (
            f"population {n}: simulated {x_sim:.5f} vs exact {x_exact:.5f}")
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 4. frozen validation-table numerics and layout

# frozen reference rows for the comparison table: (class, eg util %,
# qn util %, qn util hw, util err, eg resp, qn resp, qn resp hw, resp err).
# The rows came with the repository's first commit, laid out as the
# paper's Table 6; no file records more of their source. This repo
# reproduces their utilizations but not their response times, and two of
# those sit below their own demand sums (Analysis 5.35 < 5.53, Status
# 1.11 < 1.17), which no FCFS model with those demands gives. They stay
# frozen as a layout and numerics fixture, not as an oracle.
_ORIGINAL = [
    ("Analysis", 17.4, 17.8, 0.41, 0.4, 5.53, 5.35, 0.10, 3.18),
    ("Status", 3.9, 4.1, 0.08, 0.2, 1.17, 1.11, 0.02, 5.05),
    ("Actors", 16.1, 15.8, 0.46, 0.3, 3.51, 3.64, 0.07, 3.85),
    ("Polling", 10.0, 10.9, 0.30, 0.9, 2.06, 2.18, 0.04, 5.72),
]
_REPRODUCED_RESP = [
    ("Analysis", 5.38, 5.33, 0.92),
    ("Status", 1.10, 1.12, 1.78),
    ("Actors", 3.47, 3.62, 4.14),
    ("Polling", 2.10, 2.13, 1.41),
]


def test_criterion_04_validation_table_numerics():
    for _, eg_u, qn_u, _, err, *_ in _ORIGINAL:
        assert round(utilization_error(eg_u, qn_u), 6) == err
    for _, eg_r, qn_r, err in _REPRODUCED_RESP:
        assert abs(response_time_error(eg_r, qn_r) - err) <= 0.1

    rows = [
        ValidationRow(name, eg_u,
                      ConfidenceInterval(qn_u, qn_hw, 0.99, 5), u_err,
                      eg_r, ConfidenceInterval(qn_r, r_hw, 0.99, 5), r_err)
        for name, eg_u, qn_u, qn_hw, u_err, eg_r, qn_r, r_hw, r_err in _ORIGINAL
    ]
    text = render_validation_table(rows, decimals=1)
    lines = [ln for ln in text.splitlines() if "|" in ln]
    norm = [" | ".join(c.strip() for c in ln.split("|")) for ln in lines]
    assert norm[0] == ("Job Class | EG [%] | QN [%] | Error [%] | "
                       "EG [msec] | QN [msec] | Error [%]")
    assert norm[1] == "Analysis | 17.4 | 17.8 (±0.41) | 0.4 | 5.53 | 5.35 (±0.10) | 3.18"
    assert norm[4] == "Polling | 10.0 | 10.9 (±0.30) | 0.9 | 2.06 | 2.18 (±0.04) | 5.72"


# ---------------------------------------------------------------------------
# 5. neutral transform parameters leave the baseline untouched


def test_criterion_05_neutral_transforms_are_bit_identical():
    # every kind at its defaults, on a net none of the transforms collides with
    base = build_sensor_net(SensorNetParams(include_polling=False, include_status=False))
    before = table(run_replication(base, seed=7, horizon=30000.0, warmup=3000.0))
    for spec_class in SPECS.values():
        transformed = apply(base, spec_class())
        after = table(run_replication(transformed, seed=7, horizon=30000.0, warmup=3000.0))
        # float.hex compares bits, and a NaN (a cell with no completion) equals itself
        diffs = [k for k in before if k not in after or before[k].hex() != after[k].hex()]
        assert not diffs, f"{spec_class.kind}: changed {len(diffs)} metrics, e.g. {diffs[:3]}"


# ---------------------------------------------------------------------------
# 6. polling frequency sweep exposes an interior sweet spot


def test_criterion_06_polling_sweep_interior_minimum(shipped_runs):
    run = shipped_runs["awty_sweep"]
    rows = _csv_rows(run["dirs"][0], "awty_sweep")
    means = _series(rows, "system", "Analysis", "response-time-msec")
    assert len(means) == len(run["cfg"].sweep_values) == 10
    best = means.index(min(means))
    assert 0 < best < len(means) - 1, (
        f"minimum sits at endpoint index {best}: {[round(m, 2) for m in means]}")
    assert sum(run["seconds"]) < 600.0


# ---------------------------------------------------------------------------
# 7. status checking load grows with the number of monitored devices


def test_criterion_07_status_utilization_monotone(shipped_runs):
    run = shipped_runs["ieok_sweep"]
    rows = _csv_rows(run["dirs"][0], "ieok_sweep")
    utils = _series(rows, "Controller", "all", "utilization")
    assert len(utils) == 4
    for lo, hi in zip(utils, utils[1:]):
        assert hi >= lo, f"utilization dropped: {utils}"
    assert sum(run["seconds"]) < 300.0


# ---------------------------------------------------------------------------
# 8. every shipped config writes its pinned bytes, at jobs 1 and at jobs 2


def test_criterion_08_reruns_byte_identical(shipped_runs):
    differ = [f"{name} --jobs {jobs}: {fname}" for name, run in shipped_runs.items()
              for jobs, out in zip(JOBS, run["dirs"]) for fname in same_bytes.check(out, PIN[name])]
    loop_c = hashlib.sha256((resources.files("qnaps") / "_loop.c").read_bytes()).hexdigest()
    assert not differ, (
        f"files differ from {same_bytes.PIN.name} on {platform.machine()}, Python "
        f"{platform.python_version()}, _loop.c sha256 {loop_c}:\n" + "\n".join(differ))


# ---------------------------------------------------------------------------
# 9. Little's law audit on every cell of every shipped config


def test_criterion_09_littles_law_per_station_and_class(shipped_runs):
    # every (station, class) cell, the all-class rows and the system's
    # among them; the window's sojourn identity keeps each within 0.1%
    for name, run in shipped_runs.items():
        cells = {}
        for r in _csv_rows(run["dirs"][0], name):
            cells.setdefault((r["sweep_value"], r["station"], r["class"]), {})[r["metric"]] = float(r["mean"])
        assert cells, name
        for (sweep_value, station, job_class), metrics in cells.items():
            n_bar = metrics["queue-length"]
            flow = metrics["throughput-per-msec"] * metrics["response-time-msec"]
            where = f"{name} [{sweep_value}] {station} class {job_class}"
            if n_bar == 0.0:
                assert flow == 0.0, where
            else:
                assert abs(n_bar - flow) <= 0.001 * n_bar, (
                    f"{where}: N={n_bar:.5f} vs XR={flow:.5f}")


def test_criterion_09b_utilization_law_per_fcfs_cell(shipped_runs):
    # U = X E[S] / servers on every (fcfs station, class it serves) cell of
    # every point, within twice U's 99% half-width: 161 cells, the worst
    # at 0.61 half-widths (wwi_single, overhead 2.0, Controller/Status)
    checked = 0
    for name, run in shipped_runs.items():
        for point, cells in _point_cells(run, name):
            for station in point.model.stations:
                if station.kind != FCFS:
                    continue
                for job_class, dist in station.service.items():
                    u, half_width = cells[(station.name, job_class, "utilization")]
                    x, _ = cells[(station.name, job_class, "throughput-per-msec")]
                    law = x * dist.mean() / station.servers
                    assert abs(u - law) <= 2 * half_width, (
                        f"{name} [{point.value}] {station.name} class {job_class}: "
                        f"U={u:.6f} ± {half_width:.2e} vs X E[S]/m={law:.6f}")
                    checked += 1
    assert checked == 161


def test_criterion_09c_response_is_the_visit_weighted_sum_of_station_responses(shipped_runs):
    # R_c = sum over the stations s serving c of (X_cs / X_c) R_cs, a closed
    # class's reference station left out, at every point of every class
    # without a detection gate (a gated class's response also holds its
    # detection wait, which no row reports): 91 class-points, the worst
    # 4.1e-5 relative (awty_sweep, f_poll 0.001668, Actors)
    checked = 0
    for name, run in shipped_runs.items():
        for point, cells in _point_cells(run, name):
            model = point.model
            for jc in model.classes:
                if jc.name in model.detection:
                    continue
                response, _ = cells[("system", jc.name, "response-time-msec")]
                flow, _ = cells[("system", jc.name, "throughput-per-msec")]
                visits = [(cells[(s.name, jc.name, "throughput-per-msec")][0] / flow,
                           cells[(s.name, jc.name, "response-time-msec")][0])
                          for s in model.stations
                          if jc.name in s.service and not (jc.kind == "closed" and s.name == jc.reference)]
                # a cell with no completion in the window has no response time
                total = sum(v * r for v, r in visits if v > 0.0)
                assert abs(response - total) <= 1e-3 * response, (
                    f"{name} [{point.value}] class {jc.name}: R={response:.6f} vs "
                    f"sum of visits x station responses={total:.6f}")
                checked += 1
    assert checked == 91


def test_criterion_09d_forced_flow_per_visited_cell(shipped_runs):
    # X_cs = v_cs X_c on every (station, class) cell with v_cs > 0, within
    # twice X_cs's 99% half-width, the visits solved from the routing table
    # and X_c the class's system throughput: 237 cells, the worst at 0.17
    # half-widths (wwi, overhead 4.0, Actor2/Actors)
    checked = 0
    for name, run in shipped_runs.items():
        for point, cells in _point_cells(run, name):
            model = point.model
            for jc in model.classes:
                flow, _ = cells[("system", jc.name, "throughput-per-msec")]
                visits = visit_ratios(model, jc)
                for s in model.stations:
                    if jc.name not in s.service or visits.get(s.name, 0.0) == 0.0:
                        continue
                    x, half_width = cells[(s.name, jc.name, "throughput-per-msec")]
                    law = visits[s.name] * flow
                    assert abs(x - law) <= 2 * half_width, (
                        f"{name} [{point.value}] {s.name} class {jc.name}: "
                        f"X={x:.6f} ± {half_width:.2e} vs v X_c={law:.6f}")
                    checked += 1
    assert checked == 237


def test_criterion_09e_response_at_least_the_demand(shipped_runs):
    # R_c >= D_c - R_c's 99% half-width at every point of every class, with
    # D_c = sum over the stations s serving c of v_cs E[S_cs], a closed
    # class's reference station left out as its system response leaves it
    # out: 101 class-points, every R_c >= D_c, the closest awty_sweep at
    # f_poll 0.001, Polling (4.517 against 4.0)
    checked = 0
    for name, run in shipped_runs.items():
        for point, cells in _point_cells(run, name):
            model = point.model
            for jc in model.classes:
                visits = visit_ratios(model, jc)
                demand = math.fsum(
                    visits.get(s.name, 0.0) * s.service[jc.name].mean() for s in model.stations
                    if jc.name in s.service and not (jc.kind == "closed" and s.name == jc.reference))
                response, half_width = cells[("system", jc.name, "response-time-msec")]
                assert response >= demand - half_width, (
                    f"{name} [{point.value}] class {jc.name}: "
                    f"R={response:.6f} ± {half_width:.2e} below D={demand:.6f}")
                checked += 1
    assert checked == 101


def test_criterion_09f_arrivals_leave_as_throughput_or_drops(shipped_runs):
    # X_c + sum over the fcfs stations s of D_cs = lambda_c = 1 / E[A_c] at
    # every point of every open class, with X_c its system throughput and
    # D_cs its drop rate at s, within twice the root-sum-square of their
    # 99% half-widths: 51 class-points, the worst at 0.52 of that
    # (ieok_sweep, Analysis: 0.086777 against 0.087)
    checked = 0
    for name, run in shipped_runs.items():
        for point, cells in _point_cells(run, name):
            model = point.model
            for jc in model.classes:
                if jc.kind != "open":
                    continue
                parts = [cells[("system", jc.name, "throughput-per-msec")]] + [
                    cells[(s.name, jc.name, "dropped-rate-per-msec")]
                    for s in model.stations if s.kind == FCFS and jc.name in s.service]
                out = math.fsum(mean for mean, _ in parts)
                bound = 2 * math.hypot(*(half_width for _, half_width in parts))
                rate = 1 / jc.arrival.mean()
                assert abs(out - rate) <= bound, (
                    f"{name} [{point.value}] class {jc.name}: X + drops={out:.6f} "
                    f"± {bound / 2:.2e} vs lambda={rate:.6f}")
                checked += 1
    assert checked == 51


# ---------------------------------------------------------------------------
# 10. graph reduction against exhaustive path enumeration


def test_criterion_10_reduction_matches_enumeration():
    rng = np.random.default_rng(991)
    for _ in range(100):
        g = random_eg(rng, max_depth=4)
        exp = eg_expectation_by_paths(g)
        red = eg_reduce(g)
        for res in set(red) | set(exp):
            assert math.isclose(
                red.get(res, 0.0), exp.get(res, 0.0), rel_tol=1e-9, abs_tol=1e-12
            ), f"resource {res}: reduce {red.get(res)} vs enumeration {exp.get(res)}"
