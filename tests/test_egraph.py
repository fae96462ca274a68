"""Execution graphs: reduction semantics, metrics, validation join."""

import math

import pytest

from qnaps.egraph import (
    Basic,
    Branch,
    EgError,
    EgScenario,
    Loop,
    Sequence,
    build_validation_table,
    eg_metrics,
    reduce as eg_reduce,
)
from qnaps.stats import ConfidenceInterval


def test_reduce_folds_nested_structures():
    g = Sequence(
        Basic({"CPU": 1.0, "Disk": 0.5}),
        Loop(2.5, Basic({"CPU": 2.0})),  # fractional counts are expected counts
        Branch((0.5, Basic({"Disk": 1.0})), (0.5, Sequence(Basic({"CPU": 4.0})))),
    )
    d = eg_reduce(g)
    assert d["CPU"] == pytest.approx(1.0 + 2.5 * 2.0 + 0.5 * 4.0, rel=1e-12)
    assert d["Disk"] == pytest.approx(0.5 + 0.5 * 1.0, rel=1e-12)


def test_reduce_scale_equivariance():
    g = Sequence(Basic({"A": 1.2}), Loop(3, Basic({"A": 0.4, "B": 1.0})))
    base = eg_reduce(g)
    scaled = eg_reduce(
        Sequence(Basic({"A": 2.4}), Loop(3, Basic({"A": 0.8, "B": 2.0})))
    )
    for res in base:
        assert scaled[res] == pytest.approx(2.0 * base[res], rel=1e-12)


def test_branch_probability_validation():
    with pytest.raises(EgError, match="sum"):
        eg_reduce(Branch((0.5, Basic({"A": 1.0})), (0.4, Basic({"A": 2.0}))))
    with pytest.raises(EgError, match="outside"):
        eg_reduce(Branch((1.5, Basic({"A": 1.0})), (-0.5, Basic({"A": 2.0}))))
    with pytest.raises(EgError, match="no arms"):
        eg_reduce(Branch())
    with pytest.raises(EgError, match="negative demand"):
        Basic({"A": -1.0})
    with pytest.raises(EgError, match="count"):
        Loop(-1, Basic({"A": 1.0}))
    # NaN fails every range check too
    with pytest.raises(EgError, match="negative demand"):
        Basic({"A": math.nan})
    with pytest.raises(EgError, match="count"):
        Loop(math.nan, Basic({"A": 1.0}))
    with pytest.raises(EgError, match="arrival rate"):
        EgScenario("A", Basic({"A": 1.0}), math.nan)
    with pytest.raises(EgError, match="outside"):
        eg_reduce(Branch((math.nan, Basic({"A": 1.0})), (1.0, Basic({"A": 2.0}))))


def test_eg_metrics_and_saturation():
    s = EgScenario("Analysis", Sequence(Basic({"Controller": 2.0}), Basic({"Environment": 3.53})), 0.087)
    m = eg_metrics(s)
    assert m.response_time == pytest.approx(5.53, rel=1e-12)
    assert m.utilization["Controller"] == pytest.approx(17.4, rel=1e-12)

    hot = eg_metrics(EgScenario("Hot", Basic({"CPU": 3.0}), 0.5))
    assert hot.utilization["CPU"] == pytest.approx(150.0)  # reported, not clamped

    with pytest.raises(EgError):
        EgScenario("Neg", Basic({}), -0.1)


def _ci(mean, hw=0.01):
    return ConfidenceInterval(mean, hw, 0.99, 5)


def _qn_estimates():
    return {
        ("Controller", "Analysis", "utilization"): _ci(0.178, 0.0041),
        ("system", "Analysis", "response-time-msec"): _ci(5.35, 0.10),
        ("system", "Analysis", "queue-length"): _ci(1.0),
        ("system", "Analysis", "throughput-per-msec"): _ci(0.087),
    }


def test_validation_table_scales_utilization_to_percent():
    scenarios = [
        EgScenario("Analysis", Sequence(Basic({"Controller": 2.0}), Basic({"Environment": 3.53})), 0.087)
    ]
    rows = build_validation_table(scenarios, _qn_estimates(), {"Analysis": "Controller"})
    (row,) = rows
    assert row.eg_utilization == pytest.approx(17.4, rel=1e-12)
    assert row.qn_utilization.mean == pytest.approx(17.8, rel=1e-12)
    assert row.qn_utilization.half_width == pytest.approx(0.41, rel=1e-12)
    assert row.utilization_error == pytest.approx(0.4, abs=1e-9)
    assert row.response_error == pytest.approx(100 * abs(5.53 - 5.35) / 5.35, rel=1e-12)


def test_validation_table_error_cases():
    scenario = EgScenario("Analysis", Basic({"Controller": 2.0}), 0.087)
    est = _qn_estimates()

    with pytest.raises(EgError, match="duplicate"):
        build_validation_table([scenario, scenario], est, {"Analysis": "Controller"})
    with pytest.raises(EgError, match="only on the analytic side"):
        build_validation_table(
            [scenario, EgScenario("Ghost", Basic({"Controller": 1.0}), 0.01)],
            est,
            {"Analysis": "Controller", "Ghost": "Controller"},
        )
    extra = dict(est)
    extra[("system", "Other", "response-time-msec")] = _ci(1.0)
    with pytest.raises(EgError, match="only on the simulated side"):
        build_validation_table([scenario], extra, {"Analysis": "Controller"})
    with pytest.raises(EgError, match="no comparison resource"):
        build_validation_table([scenario], est, {})
    with pytest.raises(EgError, match="places no demand"):
        build_validation_table([scenario], est, {"Analysis": "Actor1"})
    short = {k: v for k, v in est.items() if k[2] != "utilization"}
    with pytest.raises(EgError, match="missing"):
        build_validation_table([scenario], short, {"Analysis": "Controller"})
