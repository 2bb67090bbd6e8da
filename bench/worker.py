"""One workload in one fresh interpreter; started by run.py, one at a time.

    worker.py setup   --workload W --seed N --t0 T CONFIG...
    worker.py measure --workload W --seed N --t0 T --seconds S --trace 0|1 CONFIG...

`T` is the parent's `time.monotonic()` just before it started this process.
CLOCK_MONOTONIC is shared by all processes, so `monotonic() - T` once
`finprob` is imported and every config is loaded and validated is the
set-up time, interpreter start included. This file imports only what that
set-up needs; the benchmark's own modules load after the set-up clock
stops. `setup` prints the set-up time; `measure` hands over to
`measure.main`.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import finprob.cli  # noqa: E402  (path set above)
from finprob.config import load_config, validate_config  # noqa: E402

IMPORTED = time.monotonic()

import argparse  # noqa: E402  (already loaded by finprob.cli)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--per-layer", default="", help="comma-separated per-layer metric names")
    p.add_argument("configs", nargs="+")
    args = p.parse_args(argv)

    configs_start = time.monotonic()
    for path in args.configs:
        problems = validate_config(load_config(path))
        if problems:
            raise SystemExit(f"{path}: invalid config: {'; '.join(problems)}")
    setup_done = time.monotonic()

    setup = {
        "setup_s": setup_done - args.t0,
        "setup.import_s": IMPORTED - args.t0,
        "setup.configs_s": setup_done - configs_start,
    }
    import measure  # the script's own directory is on sys.path

    return measure.main(args, setup, ROOT)


if __name__ == "__main__":
    sys.exit(main())
