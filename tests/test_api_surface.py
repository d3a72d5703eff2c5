"""Every public function, class and method of the package is reached from
the program itself (`verify`, the CLI, or another library function), not
only from the tests, and every parameter of theirs with a default is one
that the program itself sets.

The scan reads the sources with `ast`. A public name (no leading
underscore) counts as reached when some module of `src/quatspec` other than
`__init__.py` refers to it outside the definition itself: a function or a
class as a bare name or an attribute, a method as an attribute. References
are matched by name only, so a method is reached by any attribute of the
same name. No name is exempt: test oracles and fixtures live in
`tests/oracles.py`.

Since references are matched by name, a method that two or more classes
define is checked once more by running the program: one short CLI session
runs under `sys.setprofile`, and every class's method of that name must
have run.

A defaulted parameter counts as set when some call of that name in the same
modules, outside the definition itself, passes it by keyword or passes at
least as many positional arguments as reach its place (a starred argument
reaches none). A default that no call sets is a setting only the tests
exercise; it belongs in a constant.
"""

import ast
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from quatspec.cli import main
from quatspec.qmatrix import op_norm, random_normal, random_qmatrix

SRC = Path(__file__).resolve().parent.parent / "src" / "quatspec"

# Defaulted parameters that no call in the package sets, by design.
UNSET = {
    "cli.py: main(argv)": "the console entry point: the script calls main() and "
                          "argparse reads sys.argv; tests pass argv",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of every public top-level function and class
    and of every public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, is an attribute, line) of every bare name and attribute in the
    module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, node.lineno


def unreached_names() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = [(name, attr, module, line) for module, tree in trees.items()
            if module != "__init__.py" for name, attr, line in _references(tree)]
    unreached = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            inside = range(node.lineno, node.end_lineno + 1)
            if any(ref == name and (attr or not owner) and not (where == module and line in inside)
                   for ref, attr, where, line in refs):
                continue
            unreached.append(f"{module}: {qualname}")
    return unreached


def _defaulted(node: ast.FunctionDef, method: bool):
    """(name, place) of every parameter of the definition with a default;
    the place counts the positional arguments of a call before it (self or
    cls not counted), and is None for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    shift = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                               for d in node.decorator_list)
    first = len(positional) - len(args.defaults)
    for place, arg in enumerate(positional[first:], start=first - shift):
        yield arg.arg, place
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(tree: ast.Module):
    """(name, is an attribute, line, positional count, keywords) of every
    call in the module; positional arguments are counted up to the first
    starred one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            attr = isinstance(node.func, ast.Attribute)
            count = next((k for k, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                         len(node.args))
            yield (node.func.attr if attr else node.func.id, attr, node.lineno, count,
                   {kw.arg for kw in node.keywords})


def unset_defaults() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = [(module, *call) for module, tree in trees.items() if module != "__init__.py"
             for call in _calls(tree)]
    unset = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            if not isinstance(node, ast.FunctionDef):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            sites = [(count, keywords) for where, ref, attr, line, count, keywords in calls
                     if ref == name and (attr or not owner)
                     and not (where == module and line in inside)]
            for param, place in _defaulted(node, bool(owner)):
                key = f"{module}: {qualname}({param})"
                if key not in UNSET and not any(
                        param in keywords or (place is not None and count > place)
                        for count, keywords in sites):
                    unset.append(key)
    return unset


def test_every_public_name_is_reached_from_the_program():
    assert unreached_names() == []


def test_every_default_is_set_by_the_program():
    assert unset_defaults() == []


def shared_method_names() -> dict[str, dict[tuple[str, int], str]]:
    """Each public method name that two or more classes define, with the
    (file, first line) of each definition's code object, a decorated one's
    at its first decorator, as Python 3.10 gives no `co_qualname`."""
    methods = defaultdict(dict)
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in _definitions(ast.parse(path.read_text())):
            owner, _, name = qualname.rpartition(".")
            if owner:
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                methods[name][(str(path), first)] = f"{path.name}: {qualname}"
    return {name: where for name, where in methods.items() if len(where) > 1}


def cli_session(tmp: Path, capsys) -> None:
    """spectrum, decompose and resolvent; apply in all five modes, with a
    builtin, a poly file and a builtin with a domain; verify on random
    matrices with a JSON report and on a non-normal matrix file."""
    rng = np.random.default_rng(5)
    t = random_normal(4, rng)[0]
    normal, other = tmp / "t.json", tmp / "m.json"
    normal.write_text(json.dumps(t.to_json()))
    other.write_text(json.dumps(random_qmatrix(3, rng).to_json()))
    poly = tmp / "square.json"
    poly.write_text(json.dumps({"kind": "poly", "Q1": [[2, 0, [1, 0, 0, 0]], [0, 2, [-1, 0, 0, 0]]],
                                "Q2": [[1, 1, [2, 0, 0, 0]]]}))
    assert main(["spectrum", "--input", str(normal), "--emit-plot", str(tmp / "s.svg")]) == 0
    on_spectrum = tmp / "exp.json"
    on_spectrum.write_text(json.dumps({"kind": "builtin", "name": "exp",
                                       "domain": json.loads(capsys.readouterr().out)}))
    q = f"{2.0 * op_norm(t) + 1.0},0,0,0"
    for argv in (["decompose", "--out", str(tmp / "ctx.json")],
                 ["resolvent", "--q", q],
                 ["apply", "--mode", "intrinsic", "--fn", "builtin:square"],
                 ["apply", "--mode", "cslice", "--fn", str(poly)],
                 ["apply", "--mode", "circular", "--fn", "builtin:re"],
                 ["apply", "--mode", "general", "--fn", str(on_spectrum)],
                 ["apply", "--mode", "contour", "--fn", "builtin:exp", "--nodes", "64"]):
        assert main([argv[0], "--input", str(normal), *argv[1:]]) == 0, argv
    assert main(["verify", "--random", "4,5,7", "--json-out", str(tmp / "report.json")]) == 0
    assert main(["verify", "--input", str(other)]) == 0


def test_every_same_named_method_runs_in_a_cli_session(tmp_path, capsys):
    """The name scan counts a method as reached when any method of its name
    is: a `QVector.to_json` once passed on `QMatrix.to_json`'s references.
    Here the method of every class must run, matched by its code object."""
    shared = shared_method_names()
    assert {"to_json", "from_json", "n", "norm", "components"} <= shared.keys()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        cli_session(tmp_path, capsys)
    finally:
        sys.setprofile(None)
    ran = {(str(Path(file).resolve()), line) for file, line in ran}
    idle = sorted(qualname for where in shared.values()
                  for key, qualname in where.items() if key not in ran)
    assert idle == []
