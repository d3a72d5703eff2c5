"""One benchmark workload in one fresh process; `run.py` starts it.

The process imports the program cold, generates the workload's inputs from
the seed (that is the set-up), runs one untimed warm-up op, then runs ops in
a closed loop (one client, no extra threads) until the timed phase has
lasted `--seconds`. Each op calls `quatspec.cli.main(argv)` in-process with
its standard output captured, and every call's output is checked against
the benchmark's own reference; time spent on the checks is not op time.

With `--trace 1` the timed phase is split: the first half runs untraced, the
second half runs with `tracer.Tracer` installed, which gives the per-layer
numbers and the tracing overhead (traced against untraced median op time).

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

SPECTRUM_SIZE = 128  # matrix size of the apply and contour workloads
CONTOUR_NODES = 64
VERIFY_SPEC = (8, 20)  # `verify --random n,count,<seed>`
APPLY_SESSION = [("intrinsic", "square"), ("cslice", "exp"),
                 ("circular", "re"), ("general", "exp")]


@dataclass
class Call:
    argv: list[str]
    check: Callable[[str], str | None]  # stdout -> failure reason or None


# Every identity `verify --random 8,20,<seed>` checks, whatever the seed.
VERIFY_CHECKS = frozenset("""
    J-commutes-T J-unit JK-anticommute K-commutes-A K-commutes-B K-transport
    K-unit adjoint-same-spectrum adjoint-similarity circular-constant-K
    circular-constant-L circular-homomorphism circular-isometry
    circular-norm-bound circular-spectral-containment circular-star circularity
    contour-cubic contour-id contour-one contour-square cslice-constant-J
    cslice-extends-intrinsic cslice-kernel cslice-linearity cslice-norm
    cslice-spectral-map decomposition eigensphere-membership gelfand-constant
    general-adjoint-rule general-right-scalar hc-cstar-identity
    hc-norm-sandwich hc-star-antihom hc-submultiplicative hc-sup-dominates
    hc-sup-sharp id-recovered identity-recovered intrinsic-homomorphism
    intrinsic-isometry intrinsic-spectral-map intrinsic-star
    kernel-choice-independence measure-moment measure-total quat-conj-antihom
    quat-norm-multiplicative radius-equals-norm resolvent-series
    restriction-identity slice-class-closure slice-cslice-commute
    slice-norm-cstar slice-norm-submult slice-product-assoc
    slice-representation slice-star-antihom spectral-map-polynomial
    spectral-map-power-2 spectral-map-power-3 spectrum-ground-truth
    spectrum-imaginary spectrum-is-sphere spectrum-real spectrum-unit-modulus
    square-intrinsic square-polynomial unity-recovered upper-eigenvalues
    vanishing-polynomial
""".split())
VERIFY_SOFT = frozenset({"circular-isometry"})  # may exceed its tolerance


def _verify_check(path: str, matrices: int, perturb: bool):
    """Check the JSON report: every identity present, every suite run on
    every matrix, and each hard check's residual within its tolerance,
    re-read from the report's own fields. `perturb` shrinks each tolerance
    to a tenth of its residual, so every check with a residual fails."""

    def check(_out: str) -> str | None:
        with open(path) as fh:
            report = json.load(fh)
        os.remove(path)  # the next op must write its own report
        missing = VERIFY_CHECKS - {c["name"] for c in report["checks"]}
        if missing:
            return f"verify report lacks checks {sorted(missing)}"
        if report["meta"].get("matrices") != matrices:
            return f"verify ran {report['meta'].get('matrices')} matrices, want {matrices}"
        skipped = [note for note in report["notes"] if "skipped" in note]
        if skipped:
            return f"verify skipped work: {skipped}"
        failed = []
        for c in report["checks"]:
            tol = c["residual"] / 10 if perturb else c["tolerance"]
            if c["name"] not in VERIFY_SOFT and not c["residual"] <= tol:
                failed.append(f"{c['name']} {c['residual']:.3e} > {tol:.3e}")
        if failed:
            return f"verify checks failed: {failed}"
        return None

    return check


def build_op(workload: str, seed: int, workdir: str, perturb: bool) -> list[Call]:
    """Generate and write the inputs; return the calls that make one op.

    `perturb` moves every reference to ten times its tolerance (for
    `verify`, every tolerance to a tenth of its residual), so every op must
    fail: the self-test that shows the checks are not vacuous."""
    if workload == "verify-n8":
        n, count = VERIFY_SPEC
        report = os.path.join(workdir, "verify.json")
        argv = ["verify", "--random", f"{n},{count},{seed}", "--json-out", report]
        return [Call(argv, _verify_check(report, count, perturb))]

    import inputs  # after quatspec, so the cold import pays for numpy

    case = inputs.NormalCase(SPECTRUM_SIZE, seed)
    path = os.path.join(workdir, "t.json")
    inputs.write_matrix(case, path)
    bump = 10.0 if perturb else 0.0

    def apply_call(mode: str, fn: str, tol: float, *extra: str) -> Call:
        ref = case.reference(fn) * (1.0 + bump * tol)
        argv = ["apply", "--input", path, "--mode", mode, "--fn", f"builtin:{fn}", *extra]
        return Call(argv, lambda out: inputs.matrix_error(json.loads(out), ref, tol))

    if workload == "contour-n128":
        return [apply_call("contour", "exp", inputs.CONTOUR_TOL,
                           "--nodes", str(CONTOUR_NODES))]
    if workload == "apply-n128":
        reps = case.reps.copy()
        reps[:, 0] += bump * inputs.SPECTRUM_TOL * max(1.0, case.norm)
        spectrum = Call(["spectrum", "--input", path],
                        lambda out: inputs.spectrum_error(json.loads(out), case, reps))
        return [spectrum] + [apply_call(mode, fn, inputs.ALGEBRAIC_TOL)
                             for mode, fn in APPLY_SESSION]
    raise SystemExit(f"unknown workload {workload!r}")


class Runner:
    def __init__(self, cli, op: list[Call]):
        self.cli = cli
        self.op = op
        self.tracer = None
        self.first_failure: str | None = None

    def run_op(self) -> tuple[float, str | None]:
        """Wall time of one op and its failure reason (None if it passed)."""
        elapsed = 0.0
        reason = None
        for call in self.op:
            out, err = io.StringIO(), io.StringIO()
            if self.tracer is not None:
                self.tracer.active = True
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(call.argv)
            except (Exception, SystemExit):
                rc = None
                err.write(traceback.format_exc())
            elapsed += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
            if reason is not None:
                continue
            try:
                reason = call.check(out.getvalue())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output of {call.argv[0]}: {exc!r}"
            if rc != 0:  # the check, if it could read the output, names the cause
                reason = (f"{call.argv[0]} exited {rc}: {err.getvalue().strip()[-2000:]}"
                          + (f" ({reason})" if reason else ""))
        if reason is not None and self.first_failure is None:
            self.first_failure = reason
        return elapsed, reason

    def phase(self, seconds: float, min_ops: int, on_op=None) -> dict:
        """Closed loop until `seconds` of wall time and `min_ops` ops."""
        times, failed = [], 0
        start = time.perf_counter()
        while True:
            if self.tracer is not None:
                self.tracer.reset()
            dt, reason = self.run_op()
            times.append(dt)
            failed += reason is not None
            if on_op is not None:
                on_op()
            wall = time.perf_counter() - start
            if len(times) >= min_ops and wall >= seconds:
                break
        return {"times": times, "failed": failed, "wall": wall}


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        pass
    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": threads,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import quatspec.cli as cli
    op = build_op(args.workload, args.seed, args.workdir, args.perturb_reference)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(cli, op)
    _, warm_failure = runner.run_op()  # untimed warm-up
    record = {"setup_s": setup_s, "warmup_failure": warm_failure}
    if not args.trace:
        res = runner.phase(args.seconds, 1)
        record.update(times=res["times"], failed=res["failed"], wall_s=res["wall"])
    else:
        import tracer as tracer_mod

        plain = runner.phase(args.seconds / 2, 1)
        tr = tracer_mod.Tracer()
        tr.install()
        runner.tracer = tr
        per_op: list[dict] = []
        traced = runner.phase(args.seconds / 2, 2, on_op=lambda: per_op.append(tr.snapshot()))
        record.update(times=plain["times"] + traced["times"],
                      failed=plain["failed"] + traced["failed"],
                      untraced_times=plain["times"], traced_times=traced["times"],
                      per_op=per_op, missing_spans=tr.missing)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["first_failure"] = runner.first_failure
    record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
