"""Every public function, class and method of the package is reached from
the program itself (`verify`, the CLI, or another library function), not
only from the tests, and every parameter of theirs with a default is one
that the program itself sets.

The scan reads the sources with `ast`. A public name (no leading
underscore) counts as reached when some module of `src/quatspec` other than
`__init__.py` refers to it outside the definition itself: a function or a
class as a bare name or an attribute, a method as an attribute. References
are matched by name only, so a method is reached by any attribute of the
same name. A class on the keep-list keeps its methods.

A defaulted parameter counts as set when some call of that name in the same
modules, outside the definition itself, passes it by keyword or passes at
least as many positional arguments as reach its place (a starred argument
reaches none). A default that no call sets is a setting only the tests
exercise; it belongs in a constant.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quatspec"

# Kept although only tests reach them: test fixtures and independent
# references that the tests check the program against.
KEEP = {
    "QMatrix.from_entries": "test fixture: a matrix from rows of quaternions",
    "QVector.basis_vector": "test fixture: a standard basis vector",
    "Quaternion.isclose": "test helper: a tolerance comparison of two quaternions",
    "SliceFunction.eval": "the scalar form of `values` at one point, the tests' oracle",
    "ComplexifiedQuaternion": "the scalar H(x)C reference for `_hc_mul` and `_hc_norm`",
    "sphere_decompose": "the scalar oracle of `SliceFunction.values` in test_slicefn.py",
}

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
            if qualname in KEEP or owner in KEEP or any(
                    ref == name and (attr or not owner) and not (where == module and line in inside)
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
            if not isinstance(node, ast.FunctionDef) or qualname in KEEP or owner in KEEP:
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


def test_every_kept_name_exists():
    defined = {qualname for tree in (ast.parse(p.read_text()) for p in SRC.glob("*.py"))
               for qualname, _ in _definitions(tree)}
    assert set(KEEP) <= defined
