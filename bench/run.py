"""Run the finprob benchmark from the root of a source checkout.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The package is imported from `src/`; nothing is installed. Each workload
runs in fresh interpreters started one after another (never two at once):
a few set-up probes that only import `finprob` and load the configs, then
one measuring process that runs whole rounds of the workload for S seconds
and checks every output. With `--trace 0` the result holds the end-to-end
metrics of BENCHMARK.json; with `--trace 1` the measuring process spends
half of its time untraced and half traced, and the result holds the
per-layer metrics. Inputs, CSVs and spans go to `.bench_out/<workload>/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every run succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

import workloads  # noqa: E402  (the script's own directory is on sys.path)

SETUP_PROBES = 5  # fresh interpreters per run whose set-up time is sampled
PROBE_TIMEOUT_S = 60
# One thread per worker: numpy's BLAS would otherwise start a thread per
# core, and on a small machine those threads only add noise.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spawn(mode: str, name: str, seed: int, configs: list, extra: list, timeout: float):
    """Start one worker, wait for it, and return (exit code, its JSON line)."""
    t0 = time.monotonic()
    argv = [
        sys.executable, str(WORKER), mode,
        "--workload", name, "--seed", str(seed), "--t0", repr(t0), *extra, *configs,
    ]
    proc = subprocess.run(
        argv, cwd=ROOT, env={**os.environ, **WORKER_ENV},
        stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: int):
    """Result object of one workload, or None when its worker died."""
    configs = workloads.write_inputs(ROOT, name, workloads.build(name, seed))
    setup_samples = []
    if not trace:
        for _ in range(SETUP_PROBES):
            code, out = _spawn("setup", name, seed, configs, [], PROBE_TIMEOUT_S)
            if code != 0 or out is None:
                print(f"{name}: set-up probe failed (exit {code})", file=sys.stderr)
                return None
            setup_samples.append(out["setup_s"])
    per_layer = ",".join(m["name"] for m in spec["per_layer"])
    extra = ["--seconds", str(seconds), "--trace", str(trace), "--per-layer", per_layer]
    code, out = _spawn("measure", name, seed, configs, extra, 2 * seconds + 90)
    if out is None:
        print(f"{name}: measuring process died (exit {code})", file=sys.stderr)
        return None
    metrics = out["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setup_samples + [out["setup_s"]])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "rounds": out["rounds"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "finprob" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from a finprob checkout: src/finprob and BENCHMARK.json are needed",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    p = argparse.ArgumentParser(description="finprob benchmark")
    p.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(spec, name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        print(f"{name}: {result['attempted']} runs attempted, {result['failed']} failed, "
              f"{result['rounds']} rounds, outputs {'correct' if result['correct'] else 'WRONG'}")
        for metric, v in result["metrics"].items():
            print(f"  {metric} {v['value']:.6g} {v['unit']}")

    if len(names) == 1:
        final = results[names[0]]
        final.pop("rounds")
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": v
                for name, r in results.items()
                for metric, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
