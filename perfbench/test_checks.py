"""Tests for the benchmark's correctness checks.

Each check passes on real outputs of the shipped configs (fixtures/,
written by ``python3 -m qnaps.cli`` at each config's own seed) and fails
on a copy of the CSV altered to break the property it checks.

    python3 -m pytest perfbench -q
"""

import csv
import shutil
from pathlib import Path

import pytest
import yaml

import checks

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
CONFIGS = HERE.parent / "src" / "qnaps" / "configs"


def config(name: str) -> dict:
    return yaml.safe_load((CONFIGS / f"{name}.yaml").read_text(encoding="utf-8"))


def altered(tmp_path, source: Path, change) -> list[dict]:
    """Rewrite ``source`` with ``change(row)`` applied to every row and
    read the altered CSV back."""
    rows = checks.read_csv(source)
    target = tmp_path / source.name
    with open(target, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            change(row)
            writer.writerow(row)
    return checks.read_csv(target)


def scale(station, job_class, metric, factor, sweep_value=None):
    def change(row):
        if (row["station"], row["class"], row["metric"]) == (station, job_class, metric) \
                and sweep_value in (None, row["sweep_value"]):
            row["mean"] = repr(float(row["mean"]) * factor)
    return change


@pytest.fixture
def table6_dir(tmp_path):
    out = tmp_path / "table6_validation"
    shutil.copytree(FIXTURES / "table6_validation", out)
    return out


def test_shipped_outputs_pass_every_check(table6_dir):
    assert checks.check_run(table6_dir, "table6_validation", config("table6_validation")) == []
    wwi = checks.read_csv(FIXTURES / "wwi.csv")
    awty = checks.read_csv(FIXTURES / "awty_sweep.csv")
    for rows, name in ((wwi, "wwi"), (awty, "awty_sweep")):
        assert checks.check_littles_law(rows) == []
        assert checks.check_utilization_law(rows, config(name)) == []
        assert checks.check_utilization_bound(rows) == []
    assert checks.check_open_flow(wwi) == []
    assert checks.check_interior_minimum(awty) == []


@pytest.mark.parametrize("metric", ["queue-length", "throughput-per-msec", "response-time-msec"])
def test_littles_law_fails_when_one_term_moves(tmp_path, metric):
    rows = altered(tmp_path, FIXTURES / "awty_sweep.csv",
                   scale("system", "Analysis", metric, 1.2, sweep_value="0.01291549665014884"))
    problems = checks.check_littles_law(rows)
    assert len(problems) == 1 and "Analysis" in problems[0]


def test_utilization_law_fails_on_scaled_utilization(tmp_path):
    rows = altered(tmp_path, FIXTURES / "wwi.csv",
                   scale("Controller", "Analysis", "utilization", 1.1, sweep_value="4.0"))
    problems = checks.check_utilization_law(rows, config("wwi"))
    assert len(problems) == 1 and "Controller/Analysis" in problems[0]


def test_utilization_law_uses_the_wwi_overhead():
    # the point measured at 4 msec overhead, relabelled as the point without
    rows = [dict(r, sweep_value="0.0") for r in checks.read_csv(FIXTURES / "wwi.csv")
            if r["sweep_value"] == "4.0"]
    problems = checks.check_utilization_law(rows, config("wwi"))
    assert len(problems) == 1 and "Controller/Analysis" in problems[0]


def test_utilization_bound_fails_above_one(tmp_path):
    rows = altered(tmp_path, FIXTURES / "awty_sweep.csv",
                   scale("Controller", "all", "utilization", 2.0, sweep_value="0.1"))
    assert len(checks.check_utilization_bound(rows)) == 1


def test_manifest_fails_on_an_edited_file(table6_dir):
    path = table6_dir / "table6_validation.csv"
    path.write_bytes(path.read_bytes().replace(b"0.", b"1.", 1))
    problems = checks.check_manifest(table6_dir, "table6_validation")
    assert problems == ["manifest digest of table6_validation.csv does not match the file"]


def test_manifest_fails_on_an_unlisted_file(table6_dir):
    (table6_dir / "stray.txt").write_text("x")
    assert len(checks.check_manifest(table6_dir, "table6_validation")) == 1


def test_open_flow_fails_when_arrivals_go_missing(tmp_path):
    rows = altered(tmp_path, FIXTURES / "wwi.csv",
                   scale("Controller", "Actors", "throughput-per-msec", 0.9, sweep_value="2.0"))
    problems = checks.check_open_flow(rows)
    assert len(problems) == 1 and "[2.0] Actors" in problems[0]


def test_open_flow_fails_on_inflated_drops(tmp_path):
    # at 4 msec overhead the controller drops about 0.6% of arrivals;
    # a 3-replication CI cannot resolve less than a few percent
    rows = altered(tmp_path, FIXTURES / "wwi.csv",
                   scale("Controller", "Analysis", "dropped-rate-per-msec", 10.0, sweep_value="4.0"))
    assert len(checks.check_open_flow(rows)) == 1


def test_interior_minimum_fails_at_an_endpoint(tmp_path):
    rows = altered(tmp_path, FIXTURES / "awty_sweep.csv",
                   scale("system", "Analysis", "response-time-msec", 0.01, sweep_value="0.1"))
    problems = checks.check_interior_minimum(rows)
    assert len(problems) == 1 and "endpoint 0.1" in problems[0]


@pytest.mark.parametrize("column", ["eg_utilization_pct", "eg_response_msec"])
def test_validation_table_fails_on_an_edited_eg_column(tmp_path, column):
    def change(row):
        if row["job_class"] == "Status":
            row[column] = repr(float(row[column]) * 1.001)
    rows = altered(tmp_path, FIXTURES / "table6_validation" / "table6_validation_validation.csv",
                   change)
    problems = checks.check_validation_table(rows, config("table6_validation"))
    assert len(problems) == 1 and f"Status {column}" in problems[0]


def test_same_bytes_fails_on_one_changed_byte():
    data = (FIXTURES / "wwi.csv").read_bytes()
    assert checks.check_same_bytes(data, bytes(data), "wwi.csv") == []
    changed = data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
    assert checks.check_same_bytes(changed, data, "wwi.csv") == ["wwi.csv: contents differ"]


def test_check_run_reports_a_broken_csv(table6_dir):
    rows = altered(table6_dir, table6_dir / "table6_validation.csv",
                   scale("system", "Status", "queue-length", 1.5))
    assert rows
    problems = checks.check_run(table6_dir, "table6_validation", config("table6_validation"))
    assert any("Little's law" in p for p in problems)
    assert any("manifest digest" in p for p in problems)
