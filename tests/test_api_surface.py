"""Every public function, class and method of the package is reached from
the program itself (`verify`, the CLI, or another library function), not
only from the tests.

The scan reads the sources with `ast`. A public name (no leading
underscore) counts as reached when some module of `src/quatspec` other than
`__init__.py` refers to it outside the definition itself: a function or a
class as a bare name or an attribute, a method as an attribute. References
are matched by name only, so a method is reached by any attribute of the
same name. A class on the keep-list keeps its methods.
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


def test_every_public_name_is_reached_from_the_program():
    assert unreached_names() == []


def test_every_kept_name_exists():
    defined = {qualname for tree in (ast.parse(p.read_text()) for p in SRC.glob("*.py"))
               for qualname, _ in _definitions(tree)}
    assert set(KEEP) <= defined
