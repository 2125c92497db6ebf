"""contactcurv benchmark: one seeded workload, every metric by name.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: catalog_verify, dense_points, tensor_queries (see
bench/README.md).  Run from the root of a source checkout; the package is
imported from its ``src`` directory, never from an installed copy.

With ``--trace 0`` the set-up is timed in several fresh interpreters and
the workload then runs untraced in one more, so ``peak_rss_mb`` belongs to
the workload alone.  With ``--trace 1`` the workload runs with the layer
tracer and reports per-layer metrics; its spans are written under
``.bench_out/``.

Stdout ends with two JSON lines: the run's context (environment, sample
counts, host-speed scale, failures) and the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
a result was printed.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("catalog_verify", "dense_points", "tensor_queries")

SETUP_PROBES = 7      # fresh interpreters timed for setup_s, besides the run's own
TIME_LIMIT_S = 170.0  # the whole run, probes included


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def call_worker(argv: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its last stdout line."""
    if timeout <= 0:
        raise BenchError("out of time before the workload started")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[0]} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker {argv[0]} printed no result: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "contactcurv" / "__init__.py").is_file():
        print(f"error: no contactcurv source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_samples, unscaled = [], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = call_worker(["setup", *common], 60.0)
                setup_samples.append(probe["setup_s"])
                unscaled.append(probe["unscaled_s"])
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        result = call_worker(["run", *common, "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], remaining)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    detail = result["detail"]
    if not args.trace:
        setup_samples.append(result["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                   **metrics}
        detail["setup_samples_s"] = setup_samples
        detail["unscaled"]["setup_s"] = statistics.median(
            unscaled + [detail["unscaled"]["setup_s"]])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
