"""Check that every shipped config still writes its pinned bytes.

    python tools/same_bytes.py [--jobs 1 2] [--config NAME ...] [--python-loop]

tests/data/shipped_pin.json holds, for every shipped config, the manifest
its run writes with `--format all`, less RUN_KEYS, the one key that
changes between runs, the wall clock; the manifest's outputs map
holds the sha256 of every other file the run writes. This runs
`python -m qnaps.cli --config src/qnaps/configs/NAME.yaml --format all
--jobs K` of this checkout for every shipped config (or each NAME given)
and every K, each into a fresh temporary directory, and checks each
directory against the pin. --python-loop runs the CLI on the Python loop
and the Python fills of tests/_reference.py, so no compiled code makes a
value or runs the loop. Prints one line per run and exits 1 listing each
file that differs from the pin, is missing or is not pinned; exits 2
when a run fails. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN = ROOT / "tests/data/shipped_pin.json"
RUN_KEYS = ("wall_clock_seconds",)

# run the CLI as `python -m qnaps.cli` does, on tests/_reference.py in
# place of the compiled extension
_REFERENCE_LOOP = ("import sys; sys.path.insert(0, 'tests'); import _reference, qnaps.kernel as k; "
                   "k._loop = _reference; from qnaps.cli import main; sys.exit(main())")


def configs(checkout: Path) -> list[str]:
    return sorted(p.stem for p in (checkout / "src/qnaps/configs").glob("*.yaml"))


def _pinned_form(name: str, data: bytes):
    """What the pin holds of a file: a manifest's JSON less RUN_KEYS,
    the sha256 of any other file's bytes."""
    if name.endswith("_manifest.json"):
        return {k: v for k, v in json.loads(data).items() if k not in RUN_KEYS}
    return sha256(data).hexdigest()


def check(out_dir: Path, pinned: dict) -> list[str]:
    """Each file that out_dir holds or pinned names whose bytes differ
    from pinned, one config's entry of the pin."""
    want = {**pinned["outputs"], f"{pinned['experiment']}_manifest.json": pinned}
    have = {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}
    return [name for name in sorted(want.keys() | have.keys())
            if name not in have or _pinned_form(name, have[name]) != want.get(name)]


def run(config: str, jobs: int, out: Path, python_loop: bool) -> None:
    """One CLI run of this checkout into out; exits 2 if it fails."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    program = ["-c", _REFERENCE_LOOP] if python_loop else ["-m", "qnaps.cli"]
    args = [sys.executable, *program, "--config", str(ROOT / f"src/qnaps/configs/{config}.yaml"),
            "--format", "all", "--jobs", str(jobs), "--out", str(out)]
    done = subprocess.run(args, env=env, cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        print(f"{config} at --jobs {jobs} exited {done.returncode}:\n{done.stderr.strip()}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--jobs", type=int, nargs="+", default=[1, 2], metavar="K")
    p.add_argument("--config", nargs="+", metavar="NAME", help="default: every shipped config")
    p.add_argument("--python-loop", action="store_true", help="run on the Python loop and fills")
    args = p.parse_args(argv)
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    names = args.config or configs(ROOT)
    if unpinned := [name for name in names if name not in pin]:
        p.error(f"{PIN} pins no config named {', '.join(unpinned)}")
    bad, files = [], 0
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        for config in names:
            for jobs in args.jobs:
                out = Path(tmp) / f"{config}.jobs{jobs}"
                run(config, jobs, out, args.python_loop)
                diff = check(out, pin[config])
                count = len(pin[config]["outputs"]) + 1
                files += count
                bad += [f"{config} --jobs {jobs}: {name}" for name in diff]
                print(f"{config} --jobs {jobs}: {count} files, "
                      + (f"{len(diff)} differ" if diff else "identical"), flush=True)
    for line in bad:
        print(f"DIFFERS {line}")
    print(f"{files} files checked, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
