"""Command-line front end.

Subcommands:

- `spectrum`   - spherical spectrum of a matrix, optionally plotted to SVG
- `decompose`  - export the T = A + JB decomposition bundle
- `apply`      - evaluate a slice function of the matrix (five calculi)
- `resolvent`  - series inverse of Delta_q(T)
- `verify`     - run the property-verification suites

Exit codes: 0 success, 1 verification failures, 2 malformed input JSON or
an option out of its range, 3 precondition violations and numerical
failures raised by the library.

JSON numbers are emitted via the shortest round-trip representation, so
parse -> serialize -> parse is bit-identical after one normalization pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .calculus import (MIN_CONTOUR_NODES, build_context, circular_calculus,
                       cslice_calculus, general_calculus, intrinsic_calculus,
                       slice_regular_contour)
from .errors import NumericalError, PreconditionError
from .qmatrix import QMatrix
from .quaternion import Quaternion
from .slicefn import SliceFunction
from .spectral import resolvent_series, spherical_spectrum
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read JSON from {path}: {exc}") from exc


class _InputError(Exception):
    pass


def _load_matrix(path: str) -> QMatrix:
    data = _load_json(path)
    try:
        return QMatrix.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"malformed matrix JSON in {path}: {exc}") from exc


def _load_function(spec: str) -> SliceFunction:
    if spec.startswith("builtin:"):
        return SliceFunction.builtin(spec.split(":", 1)[1])
    data = _load_json(spec)
    try:
        return SliceFunction.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"malformed function JSON in {spec}: {exc}") from exc


def _finite(option: str, *values: float | None) -> None:
    for value in values:
        if value is not None and not math.isfinite(value):
            raise _InputError(f"{option} must be finite, got {value}")


def _positive(option: str, value: float | None) -> None:
    if value is not None and not value > 0:
        raise _InputError(f"{option} must be > 0, got {value}")


def _dumps(obj, indent: str = "") -> str:
    """Exactly `json.dumps(obj, indent=2)`, nested at `indent`.

    A list of finite floats is joined in one call of `float.__repr__`, the
    float format of `json`; every other leaf (non-finite floats, ints,
    bools, None, strings) and any dict with a non-string key is written by
    `json.dumps` itself, so their text is json's."""
    inner = indent + "  "
    if isinstance(obj, list) and obj:
        sep = ",\n" + inner
        try:
            text = sep.join(map(float.__repr__, obj))
        except TypeError:  # not a list of floats
            text = None
        if text is None or "n" in text:  # 'nan' and 'inf' have an n, finite floats none
            text = sep.join(_dumps(item, inner) for item in obj)
        return f"[\n{inner}{text}\n{indent}]"
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        text = f",\n{inner}".join(f"{json.dumps(key)}: {_dumps(value, inner)}"
                                  for key, value in obj.items())
        return f"{{\n{inner}{text}\n{indent}}}"
    return json.dumps(obj, indent=2).replace("\n", "\n" + indent)


def _write_json(data, fh) -> None:
    fh.write(_dumps(data) + "\n")


def _emit(data) -> None:
    _write_json(data, sys.stdout)


def _spectrum_svg(reps, path: str) -> None:
    """Standalone static scatter of the (alpha, beta) representatives."""
    width, height, margin = 420, 320, 45
    reps = np.asarray(reps, dtype=float).reshape(-1, 2)
    a_lo = min(-1.0, reps[:, 0].min() - 0.5) if reps.size else -1.0
    a_hi = max(1.0, reps[:, 0].max() + 0.5) if reps.size else 1.0
    b_hi = max(1.0, reps[:, 1].max() + 0.5) if reps.size else 1.0

    def sx(a):
        return margin + (a - a_lo) / (a_hi - a_lo) * (width - 2 * margin)

    def sy(b):
        return height - margin - b / b_hi * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{sy(0)}" x2="{width - margin}" y2="{sy(0)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{sx(0)}" y1="{margin}" x2="{sx(0)}" y2="{height - margin}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{width - margin}" y="{sy(0) + 16}" font-size="11" '
        'text-anchor="end">Re q</text>',
        f'<text x="{sx(0) + 6}" y="{margin - 6}" font-size="11">|Im q|</text>',
    ]
    for a, b in reps:
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="4" '
                     'fill="steelblue" fill-opacity="0.8"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _cmd_spectrum(args) -> int:
    t = _load_matrix(args.input)
    spec = spherical_spectrum(t)
    if args.emit_plot:
        _spectrum_svg(spec.reps, args.emit_plot)
    _emit(spec.to_json())
    return EXIT_OK


def _cmd_decompose(args) -> int:
    t = _load_matrix(args.input)
    ctx = build_context(t)
    with open(args.out, "w") as fh:
        _write_json(ctx.to_json(), fh)
    return EXIT_OK


_MODES = {
    "intrinsic": intrinsic_calculus,
    "cslice": cslice_calculus,
    "circular": circular_calculus,
    "general": general_calculus,
}


def _cmd_apply(args) -> int:
    _finite("--radius", args.radius)
    _positive("--radius", args.radius)
    if args.nodes < MIN_CONTOUR_NODES:
        raise _InputError(f"--nodes must be >= {MIN_CONTOUR_NODES}, got {args.nodes}")
    t = _load_matrix(args.input)
    f = _load_function(args.fn)
    ctx = build_context(t)
    if args.mode == "contour":
        result = slice_regular_contour(ctx, f, radius=args.radius, nodes=args.nodes)
    else:
        result = _MODES[args.mode](ctx, f)
    _emit(result.to_json())
    return EXIT_OK


def _cmd_resolvent(args) -> int:
    _finite("--tol", args.tol)
    _positive("--tol", args.tol)
    t = _load_matrix(args.input)
    try:
        comps = [float(x) for x in args.q.split(",")]
        if len(comps) != 4:
            raise ValueError("expected four components")
    except ValueError as exc:
        raise _InputError(f"malformed quaternion {args.q!r}: {exc}") from exc
    _finite("--q", *comps)
    result = resolvent_series(t, Quaternion(*comps), args.tol)
    _emit(result.to_json())
    return EXIT_OK


def _cmd_verify(args) -> int:
    matrices = None
    random_spec = None
    if args.random:
        try:
            n, count, seed = (int(x) for x in args.random.split(","))
        except ValueError as exc:
            raise _InputError(
                f"malformed --random spec {args.random!r} (want n,count,seed)") from exc
        for field, value, least in (("n", n, 1), ("count", count, 1), ("seed", seed, 0)):
            if value < least:
                raise _InputError(f"--random {field} must be >= {least}, got {value}")
        random_spec = (n, count, seed)
    elif args.input:
        matrices = [(_load_matrix(args.input), None)]
    else:
        raise _InputError("verify requires --input or --random")
    report = run_verification(matrices=matrices, random_spec=random_spec,
                              suite=args.suite)
    print(report.table())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            _write_json(report.to_json(), fh)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatspec",
        description="Spherical spectra and slice functional calculus for "
                    "quaternionic matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spherical spectrum of a matrix")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--emit-plot", metavar="OUT.svg",
                   help="write a static scatter of the representatives")
    p.set_defaults(fn_=_cmd_spectrum)

    p = sub.add_parser("decompose", help="export the T = A + JB bundle")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--out", required=True, help="output JSON file")
    p.set_defaults(fn_=_cmd_decompose)

    p = sub.add_parser("apply", help="evaluate a slice function of the matrix")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--fn", required=True,
                   help="function JSON file or builtin:NAME")
    p.add_argument("--mode", default="general",
                   choices=[*_MODES, "contour"])
    p.add_argument("--radius", type=float, default=None,
                   help="contour radius (default 2 ||T||, 1 for T = 0)")
    p.add_argument("--nodes", type=int, default=256,
                   help="contour quadrature nodes")
    p.set_defaults(fn_=_cmd_apply)

    p = sub.add_parser("resolvent", help="series inverse of Delta_q(T)")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--q", required=True, metavar="a,b,c,d",
                   help="quaternion with |q| > ||T||")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn_=_cmd_resolvent)

    p = sub.add_parser("verify", help="run the property-verification suites")
    p.add_argument("--input", help="matrix JSON file")
    p.add_argument("--random", metavar="n,count,seed",
                   help="verify on randomly generated operators")
    p.add_argument("--suite", default="all",
                   choices=["all", "algebra", "spectral", "calculus"])
    p.add_argument("--json-out", help="also write the report as JSON")
    p.set_defaults(fn_=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn_(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (PreconditionError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
