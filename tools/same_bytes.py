"""Check that two checkouts write the same bytes for every shipped config.

    python tools/same_bytes.py BEFORE AFTER [--jobs 1 2] [--config NAME ...]
                               [--python-loop]

Runs `python -m qnaps.cli --config <checkout>/src/qnaps/configs/NAME.yaml
--format all --jobs K` in each checkout, with PYTHONPATH=<checkout>/src,
for every shipped config (or each NAME given) and every K, each into a
fresh temporary directory. Then it compares every file the two sides
wrote, byte for byte; a manifest is compared as JSON without its
wall_clock_seconds. --python-loop runs both sides on the Python loop and
the Python fills, so no compiled code makes a value or runs the loop:
tests/_reference.py stands in for the compiled extension, and a checkout
without that file is refused before any run. Prints one line per run
and exits 1 listing each file that differs, or is written on one side
only; exits 2 when a checkout is refused or a run fails. Standard
library only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# run the CLI as `python -m qnaps.cli` does, on tests/_reference.py in
# place of the compiled extension
_REFERENCE_LOOP = ("import sys; sys.path.insert(0, 'tests'); import _reference, qnaps.kernel as k; "
                   "k._loop = _reference; from qnaps.cli import entry; entry()")


def configs(checkout: Path) -> list[str]:
    return sorted(p.stem for p in (checkout / "src/qnaps/configs").glob("*.yaml"))


def run(checkout: Path, config: str, jobs: int, out: Path, python_loop: bool) -> dict[str, bytes]:
    """Every file one CLI run in checkout writes, by name."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    program = ["-c", _REFERENCE_LOOP] if python_loop else ["-m", "qnaps.cli"]
    args = [sys.executable, *program, "--config", str(checkout / f"src/qnaps/configs/{config}.yaml"),
            "--format", "all", "--jobs", str(jobs), "--out", str(out)]
    done = subprocess.run(args, env=env, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        print(f"{checkout}: {config} at --jobs {jobs} exited {done.returncode}:\n"
              f"{done.stderr.strip()}", file=sys.stderr)
        sys.exit(2)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def comparable(name: str, data: bytes):
    """A file's bytes, or a manifest's JSON without its wall-clock time."""
    if not name.endswith("_manifest.json"):
        return data
    manifest = json.loads(data)
    manifest.pop("wall_clock_seconds", None)
    return manifest


def differing(before: dict[str, bytes], after: dict[str, bytes]) -> list[str]:
    return [name for name in sorted(before.keys() | after.keys())
            if name not in before or name not in after
            or comparable(name, before[name]) != comparable(name, after[name])]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before", type=Path, help="checkout whose bytes are the reference")
    p.add_argument("after", type=Path, help="checkout to compare with it")
    p.add_argument("--jobs", type=int, nargs="+", default=[1, 2], metavar="K")
    p.add_argument("--config", nargs="+", metavar="NAME", help="default: every shipped config")
    p.add_argument("--python-loop", action="store_true",
                   help="run both sides on the Python loop and fills")
    args = p.parse_args(argv)
    before, after = args.before.resolve(), args.after.resolve()
    for checkout in (before, after):
        if not (checkout / "src/qnaps/cli.py").is_file():
            p.error(f"{checkout} is not a qnaps checkout (no src/qnaps/cli.py)")
        if args.python_loop and not (checkout / "tests/_reference.py").is_file():
            p.error(f"{checkout} has no Python loop to run (no tests/_reference.py)")
    bad, files = [], 0
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        for config in args.config or configs(before):
            for jobs in args.jobs:
                run_dir = Path(tmp) / f"{config}.jobs{jobs}"
                a = run(before, config, jobs, run_dir / "before", args.python_loop)
                b = run(after, config, jobs, run_dir / "after", args.python_loop)
                diff = differing(a, b)
                files += len(a.keys() | b.keys())
                bad += [f"{config} --jobs {jobs}: {name}" for name in diff]
                print(f"{config} --jobs {jobs}: {len(a)} files, "
                      + (f"{len(diff)} differ" if diff else "identical"), flush=True)
    for line in bad:
        print(f"DIFFERS {line}")
    print(f"{files} files compared, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
