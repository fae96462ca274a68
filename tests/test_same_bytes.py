"""tools/same_bytes.py, the check of shipped runs against tests/data/shipped_pin.json."""

import json
from pathlib import Path

import pytest

from _helpers import load_script

ROOT = Path(__file__).resolve().parents[1]
same_bytes = load_script(ROOT / "tools" / "same_bytes.py")


def test_check_ignores_only_the_manifests_clock(tmp_path):
    pinned = {"experiment": "x", "outputs": {"x.csv": same_bytes.sha256(b"a,b\n").hexdigest()}}
    (tmp_path / "x.csv").write_bytes(b"a,b\n")
    manifest = tmp_path / "x_manifest.json"
    manifest.write_text(json.dumps({**pinned, "jobs": 2, "wall_clock_seconds": 9.0}))
    assert same_bytes.check(tmp_path, pinned) == ["x_manifest.json"]
    manifest.write_text(json.dumps({**pinned, "wall_clock_seconds": 9.0}))
    assert same_bytes.check(tmp_path, pinned) == []
    assert same_bytes.check(tmp_path, {**pinned, "replications": 3}) == ["x_manifest.json"]
    (tmp_path / "x.csv").write_bytes(b"a,c\n")
    assert same_bytes.check(tmp_path, pinned) == ["x.csv"]
    # a file the pin does not name differs, and so does one the run did not write
    (tmp_path / "x.csv").write_bytes(b"a,b\n")
    (tmp_path / "x.svg").write_bytes(b"<svg/>")
    manifest.unlink()
    assert same_bytes.check(tmp_path, pinned) == ["x.svg", "x_manifest.json"]


@pytest.mark.parametrize("loop", [[], ["--python-loop"]], ids=["compiled", "python"])
def test_this_checkout_writes_the_pinned_bytes(capsys, loop):
    # a shipped config with no pin fails here
    assert same_bytes.configs(ROOT) == sorted(json.loads(same_bytes.PIN.read_text())) == [
        "awty_sweep", "baseline", "ieok_sweep", "table6_validation", "wwi", "wwi_single"]
    assert same_bytes.main(["--jobs", "1", "--config", "baseline", *loop]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "baseline --jobs 1: 3 files, identical", "3 files checked, 0 differ"]
