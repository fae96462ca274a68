"""tools/same_bytes.py, the byte-identity check across two checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def _manifest(**changes) -> bytes:
    doc = {"experiment": "x", "outputs": {"x.csv": "ab"}, "wall_clock_seconds": 0.5, **changes}
    return json.dumps(doc).encode()


def test_differing_ignores_only_the_manifests_wall_clock():
    before = {"x.csv": b"a,b\n", "x_manifest.json": _manifest()}
    assert same_bytes.differing(before, {**before, "x_manifest.json": _manifest(
        wall_clock_seconds=9.0)}) == []
    assert same_bytes.differing(before, {**before, "x_manifest.json": _manifest(
        outputs={"x.csv": "cd"})}) == ["x_manifest.json"]
    assert same_bytes.differing(before, {**before, "x.csv": b"a,c\n"}) == ["x.csv"]
    # a file written on one side only differs too
    assert same_bytes.differing(before, {**before, "x.svg": b"<svg/>"}) == ["x.svg"]
    assert same_bytes.differing(before, {"x.csv": b"a,b\n"}) == ["x_manifest.json"]


def test_a_checkout_writes_its_own_bytes(capsys):
    assert same_bytes.configs(ROOT) == ["awty_sweep", "baseline", "ieok_sweep",
                                        "table6_validation", "wwi", "wwi_single"]
    assert same_bytes.main([str(ROOT), str(ROOT), "--jobs", "1", "--config", "baseline"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "baseline --jobs 1: 3 files, identical", "3 files compared, 0 differ"]


def test_python_loop_refuses_a_checkout_without_the_reference_loop(tmp_path, capsys):
    # a checkout that has the CLI but not tests/_reference.py: refused
    # before any run, naming the file
    old = tmp_path / "old"
    (old / "src/qnaps").mkdir(parents=True)
    (old / "src/qnaps/cli.py").write_text("")
    with pytest.raises(SystemExit) as stop:
        same_bytes.main([str(ROOT), str(old), "--python-loop", "--config", "baseline"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{old} has no Python loop to run (no tests/_reference.py)" in captured.err
