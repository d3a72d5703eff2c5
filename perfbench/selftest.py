"""Self-test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

It checks three things and exits non-zero if any fails:

1. The reference checks are not vacuous: with `--perturb-reference` every
   reference sits just outside its tolerance (for verify-n8, every
   tolerance just below its residual), and each workload must report failed
   ops (ops_failed_frac > 0) and `correct: false`, failed by the reference
   check itself rather than by the program exiting non-zero.
2. The exact counts repeat: two traced runs of the same seed must report the
   same value for every `count.*` and `*.calls` metric.
   Both also check that the metrics are exactly those BENCHMARK.json names.
3. Without the program, in a directory that holds only BENCHMARK.json and
   the benchmark's files, run.py exits non-zero and prints no result.

Takes a few minutes; the traced verify-n8 runs are the slowest part.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run(workload: str, *extra: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "2", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> set[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def check_perturbed(workload: str) -> str | None:
    proc = run(workload, "--trace", "0", "--perturb-reference")
    res = result(proc)
    if res["failed"] == 0 or res["correct"]:
        return f"perturbed reference went unnoticed: {res}"
    detail = json.loads(proc.stdout.split("\ndetail ", 1)[1].splitlines()[0])
    if " exited " in detail["first_failure"]:  # the program failed, not the check
        return f"op failed before its reference check: {detail['first_failure'][:500]}"
    if set(res["metrics"]) != declared("end_to_end"):
        return f"end-to-end metrics differ from BENCHMARK.json: {sorted(res['metrics'])}"
    return None


def check_counts_repeat(workload: str) -> str | None:
    first, second = (result(run(workload, "--trace", "1")) for _ in range(2))
    exact = [k for k in first["metrics"] if k.startswith("count.") or k.endswith(".calls")]
    differ = [k for k in exact
              if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
    if differ or not (first["correct"] and second["correct"]):
        return f"counts differ between traced runs: {differ}"
    if set(first["metrics"]) != declared("per_layer"):
        return "per-layer metrics differ from BENCHMARK.json"
    return None


def check_bare_directory() -> str | None:
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("apply-n128", "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"bare directory run exited {proc.returncode} with output {proc.stdout!r}"
    return None


def main() -> int:
    checks = [(f"perturbed reference fails ({w})", check_perturbed, w) for w in WORKLOADS]
    checks += [(f"counts repeat ({w})", check_counts_repeat, w) for w in WORKLOADS]
    checks.append(("bare directory exits non-zero", lambda _: check_bare_directory(), None))
    bad = 0
    for label, fn, arg in checks:
        try:
            error = fn(arg)
        except AssertionError as exc:
            error = str(exc)
        print(f"{'FAIL' if error else 'ok  '} {label}" + (f": {error}" if error else ""),
              flush=True)
        bad += error is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
