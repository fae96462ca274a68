"""Command line front end.

    qnaps --config experiment.yaml [--seed S] [--replications N]
          [--horizon MS] [--warmup MS] [--jobs K] [--out DIR]
          [--format {csv,svg,table,all}]

Flags override the config file. Worker count precedence: --jobs, then
the config's run.jobs, then 1. --format all selects every format the
config can satisfy (svg only when a plot section exists; asking for
--format svg explicitly without one is an error).

Exit codes: 0 success, 2 configuration problem (bad file, bad flag
value, model that does not validate), 3 simulation deadlock, 4 internal
invariant failure in the engine (population leak, flow imbalance).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .kernel import DeadlockError, InvalidModelError, KernelError
from .runner import run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEADLOCK = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qnaps",
        description="Queueing-network antipattern simulation experiments.",
    )
    p.add_argument("--config", required=True, metavar="PATH", help="experiment config file (schema v1)")
    p.add_argument("--seed", type=int, metavar="U64", help="override base seed")
    p.add_argument("--replications", type=int, metavar="N", help="override replication count")
    p.add_argument("--horizon", type=float, metavar="MS", help="override horizon (msec)")
    p.add_argument("--warmup", type=float, metavar="MS", help="override warmup (msec)")
    p.add_argument("--jobs", type=int, metavar="K", help="parallel replication workers")
    p.add_argument("--out", default="qnaps-out", metavar="DIR", help="output directory (default: qnaps-out)")
    p.add_argument("--format", choices=("csv", "svg", "table", "all"), help="override configured outputs")
    return p


def _pick_jobs(flag_value, cfg_jobs) -> int:
    if flag_value is not None:
        jobs = flag_value
    elif cfg_jobs is not None:
        jobs = cfg_jobs
    else:
        jobs = 1
    if jobs < 1:
        raise ConfigError(f"jobs: must be >= 1, got {jobs}")
    return jobs


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.format is not None:
            if args.format == "all":
                outputs = ("csv", "table") + (("svg",) if cfg.plot is not None else ())
            else:
                outputs = (args.format,)
        else:
            outputs = None
        cfg = cfg.with_overrides(
            seed=args.seed,
            replications=args.replications,
            horizon=args.horizon,
            warmup=args.warmup,
            outputs=outputs,
        )
        if "svg" in cfg.outputs and cfg.plot is None:
            raise ConfigError("--format svg: config has no plot section")
        jobs = _pick_jobs(args.jobs, cfg.jobs)
        written = run_experiment(cfg, out_dir=args.out, jobs=jobs, echo=print)
        for path in written:
            print(f"wrote {path}")
        return EXIT_OK
    except (ConfigError, InvalidModelError) as exc:
        print(f"qnaps: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DeadlockError as exc:
        print(f"qnaps: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK
    except KernelError as exc:
        print(f"qnaps: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
