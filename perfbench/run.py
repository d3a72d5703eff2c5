"""quatspec benchmark: end-to-end CLI workloads with per-layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload apply-n128 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

- verify-n8     `verify --random 8,20,<seed>`, the full property battery
- apply-n128    `spectrum` plus `apply` in the intrinsic, cslice, circular and
                general modes on one n=128 normal matrix
- contour-n128  `apply --mode contour --nodes 64 --fn builtin:exp`, n=128

Each workload runs in its own fresh process (`worker.py`) with BLAS pinned to
one thread in that process's environment only. Set-up (cold import of
`quatspec.cli`, input generation, writing the input files) is also run in
SETUP_REPEATS further fresh processes, and `setup_s` is the median.

Prints every metric by name and unit, a `detail` line with the environment,
sample counts and failures, and, last, one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are the per-layer ones. Exits non-zero, printing no result, when the program
is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-n8", "apply-n128", "contour-n128")
SETUP_REPEATS = 4
DEADLINE_S = 170.0  # a run must end within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _worker(args, workdir: Path, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), *extra]
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError(f"worker printed no result: {proc.stdout[-2000:]!r}") from exc


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rec: dict, setup: list[float]) -> dict:
    times = rec["times"]
    return {
        "op_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
        "ops_per_s": _metric((len(times) - rec["failed"]) / rec["wall_s"], "1/s"),
        "peak_rss_mb": _metric(rec["peak_rss_mb"], "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def per_layer(rec: dict) -> tuple[dict, list[str]]:
    """Per-op medians of the span times; calls and counts must repeat
    exactly across the traced ops (same inputs), else they are listed as
    unsteady."""
    ops = rec["per_op"]
    metrics, unsteady = {}, []
    for key in ops[0]:
        values = [op[key] for op in ops]
        if key.endswith(".calls") or key.startswith("count."):
            if len(set(values)) != 1:
                unsteady.append(key)
            metrics[key] = _metric(values[0], "count")
        else:
            metrics[key] = _metric(statistics.median(values), "ms")
    traced = statistics.median(rec["traced_times"]) * 1e3
    plain = statistics.median(rec["untraced_times"]) * 1e3
    metrics["trace.op_p50_ms"] = _metric(traced, "ms")
    metrics["trace.untraced_op_p50_ms"] = _metric(plain, "ms")
    metrics["trace.overhead"] = _metric(traced / plain, "ratio")
    return metrics, unsteady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="self-test: move every reference outside its "
                             "tolerance, so every op must fail")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "quatspec" / "cli.py").is_file():
        print(f"error: no quatspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / str(os.getpid())
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        setup = [_worker(args, workdir, ["--setup-only"], deadline)["setup_s"]
                 for _ in range(SETUP_REPEATS)]
        rec = _worker(args, workdir, [], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(rec["setup_s"])

    attempted, failed = len(rec["times"]), rec["failed"]
    correct = failed == 0 and rec["warmup_failure"] is None
    if args.trace:
        metrics, unsteady = per_layer(rec)
        correct = correct and not unsteady
        for name in rec["missing_spans"]:
            print(f"warning: {name} wraps nothing in this tree; it reads 0", file=sys.stderr)
    else:
        metrics, unsteady = end_to_end(rec, setup), []

    for name, m in metrics.items():
        print(f"{args.workload:13} {name:42} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:13} {'ops_failed_frac':42} {failed / attempted:14.6g} "
          f"(of {attempted} ops)")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "op_samples": attempted, "op_times_s": rec["times"],
        "setup_samples_s": setup, "ops_failed_frac": failed / attempted,
        "first_failure": rec["first_failure"] or rec["warmup_failure"],
        "unsteady_counts": unsteady, "missing_spans": rec.get("missing_spans", []),
        "env": {**rec["env"], "pinned": PINNED_ENV},
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
