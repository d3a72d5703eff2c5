"""Command-line front end.

Subcommands:

- `spectrum`   - spherical spectrum of a matrix, optionally plotted to SVG
- `decompose`  - export the T = A + JB decomposition bundle
- `apply`      - evaluate a slice function of the matrix (five calculi)
- `resolvent`  - series inverse of Delta_q(T)
- `verify`     - run the property-verification suites

Exit codes: 0 success, 1 verification failures, 2 malformed input JSON
(also a file that is not UTF-8, nests too deep or holds an integer beyond
the double range), an unknown `--fn builtin:NAME`, an option out of its
range or an unwritable output file (`--out`, `--emit-plot`, `--json-out`),
3 precondition violations and numerical failures.

Input files are read by orjson, loaded on the first read, and the documents
it refuses by `json` (see `_load_json`). Output is the text of
`json.dumps(..., indent=2)`: JSON numbers are emitted via the shortest
round-trip representation, so parse -> serialize -> parse is bit-identical
after one normalization pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain

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


# the bytes that are neither brackets nor quotes, and each bracket's depth step
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_DEPTH_STEP = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")


def _nesting(raw: bytes) -> int:
    """How deep arrays and objects nest in the JSON text `raw`, brackets in
    strings not counted. On invalid text it bounds the depth a parser
    reaches before the first error."""
    if b"\\" in raw:  # drop escaped backslashes and quotes, so that quotes pair up
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = b"".join(raw.translate(None, _NOT_STRUCTURE).split(b'"')[::2])
    steps = np.frombuffer(brackets.translate(_DEPTH_STEP), dtype=np.int8)
    return int(np.cumsum(steps, dtype=np.int64).max(initial=0))


def _load_json(path: str):
    """The JSON document in the file at `path`, as `json` reads it.

    orjson parses it. A document orjson refuses (NaN and Infinity tokens,
    numbers beyond the double range, lone surrogates) or one nested deeper
    than the recursion limit is read by `json`, so the same documents parse:
    orjson has no nesting limit, and near depth 10^5 it overflows the native
    stack and the process dies. One difference: orjson reads an integer
    literal outside [-2^63, 2^64) as a float."""
    # loaded here, not with the module: verify --random reads no JSON
    import orjson
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if _nesting(raw) <= sys.getrecursionlimit():
            try:
                return orjson.loads(raw)
            except orjson.JSONDecodeError:
                pass  # json reads it or names the fault
        return json.loads(raw.decode("utf-8"))
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read JSON from {path}: {exc}") from exc


class _InputError(Exception):
    pass


# what a well-formed JSON document can still raise in a `from_json`: a
# missing field, a wrong type or value, an integer beyond the double range
# (OverflowError) or nesting too deep to format (RecursionError)
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def _load_matrix(path: str) -> QMatrix:
    data = _load_json(path)
    try:
        return QMatrix.from_json(data)
    except _MALFORMED as exc:
        raise _InputError(f"malformed matrix JSON in {path}: {exc}") from exc


def _load_function(spec: str) -> SliceFunction:
    """`builtin:NAME` is read as the function JSON {"kind": "builtin", "name": NAME}."""
    if spec.startswith("builtin:"):
        data, source = {"kind": "builtin", "name": spec.split(":", 1)[1]}, f"--fn {spec}"
    else:
        data, source = _load_json(spec), f"function JSON in {spec}"
    try:
        return SliceFunction.from_json(data)
    except _MALFORMED as exc:
        raise _InputError(f"malformed {source}: {exc}") from exc


def _finite(option: str, *values: float | None) -> None:
    for value in values:
        if value is not None and not math.isfinite(value):
            raise _InputError(f"{option} must be finite, got {value}")


def _positive(option: str, value: float | None) -> None:
    if value is not None and not value > 0:
        raise _InputError(f"{option} must be > 0, got {value}")


def _chained(lists, times: int):
    """The items `times` levels below `lists`, in row-major order, lazily."""
    for _ in range(times):
        lists = chain.from_iterable(lists)
    return lists


def _float_grid(obj: list, indent: str) -> str | None:
    """`json.dumps(obj, indent=2)` nested at `indent` if `obj` is a non-empty
    rectangular nested list of floats, else None.

    The shape takes one pass per level: every item at a level is a list of
    one length. Each item of `obj` fills one layout string built from the
    shape, with one call of `float.__repr__` per leaf, the float format of
    `json`, in one join; the items are joined in one more. No level is
    copied, so one item's leaf texts are alive at a time, and each text is
    allocated at its final size."""
    shape, first = [len(obj)], obj[0]
    while isinstance(first, list):
        try:
            widths = set(map(list.__len__, _chained(obj, len(shape) - 1)))
        except TypeError:  # an item that is not a list
            return None
        if not first or widths != {len(first)}:
            return None
        shape.append(len(first))
        first = first[0]
    texts = map(float.__repr__, obj)
    if len(shape) > 1:
        layout = "%s"
        for depth in reversed(range(1, len(shape))):
            inner = indent + "  " * (depth + 1)
            layout = (f"[\n{inner}" + f",\n{inner}".join([layout] * shape[depth])
                      + f"\n{inner[2:]}]")
        head, *tails = layout.split("%s")  # the layout before the first leaf, and after each
        texts = ("".join(chain([head], chain.from_iterable(
                     zip(map(float.__repr__, _chained(item, len(shape) - 2)), tails))))
                 for item in obj)
    try:
        items = f",\n{indent}  ".join(texts)
    except TypeError:  # a leaf that is not a float
        return None
    return f"[\n{indent}  {items}\n{indent}]"


def _dumps(obj, indent: str = "") -> str:
    """Exactly `json.dumps(obj, indent=2)`, nested at `indent`.

    A dict with string keys is written key by key and a rectangular nested
    list of finite floats by `_float_grid`; every other value (any other list,
    scalars, a dict with a non-string key) by `json.dumps`, so its text is json's."""
    if isinstance(obj, list) and obj:
        text = _float_grid(obj, indent)
        if text is not None and "n" not in text:  # 'nan' and 'inf' have an n, finite floats none
            return text
    elif isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        inner = indent + "  "
        text = f",\n{inner}".join(f"{json.dumps(key)}: {_dumps(value, inner)}"
                                  for key, value in obj.items())
        return f"{{\n{inner}{text}\n{indent}}}"
    return json.dumps(obj, indent=2).replace("\n", "\n" + indent)


def _emit(data) -> None:
    sys.stdout.write(_dumps(data) + "\n")


def _write_file(option: str, path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path} ({option}): {exc.strerror or exc}") from exc


def _spectrum_svg(reps) -> str:
    """A standalone static SVG scatter of the (alpha, beta) representatives."""
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
    return "\n".join(parts) + "\n"


def _cmd_spectrum(args) -> int:
    t = _load_matrix(args.input)
    spec = spherical_spectrum(t)
    if args.emit_plot:
        _write_file("--emit-plot", args.emit_plot, _spectrum_svg(spec.reps))
    _emit(spec.to_json())
    return EXIT_OK


def _cmd_decompose(args) -> int:
    t = _load_matrix(args.input)
    ctx = build_context(t)
    _write_file("--out", args.out, _dumps(ctx.to_json()) + "\n")
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
        _write_file("--json-out", args.json_out, _dumps(report.to_json()) + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


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
