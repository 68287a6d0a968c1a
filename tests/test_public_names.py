"""Every public name in `src/boolnet` has a user outside the unit tests.

A public module-level function or class, or a public method or property
of a public class, must be named somewhere in `src/` outside its own
definition, in `perfbench/*.py`, in `tests/test_acceptance.py` or in the
README's fenced python blocks. A name only unit tests call belongs in
those tests. Names match loosely, as identifiers (`ast.Name`), attribute
names (`ast.Attribute`) or imported names; dunder methods are out of
scope.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _references(tree: ast.AST):
    """(name, line) of every identifier, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of public functions, classes and methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _outside_users() -> set[str]:
    """Names referenced by perfbench, the acceptance tests and the README."""
    trees = [
        ast.parse(path.read_text())
        for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                     ROOT / "tests" / "test_acceptance.py"]
    ]
    readme = (ROOT / "README.md").read_text()
    trees += [
        ast.parse(block)
        for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    ]
    return {name for tree in trees for name, _ in _references(tree)}


def test_every_public_src_name_has_a_user_outside_the_unit_tests():
    modules = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "boolnet").glob("*.py"))
    }
    refs = {name: list(_references(tree)) for name, tree in modules.items()}
    outside = _outside_users()
    unused = []
    for module, tree in modules.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            used = name in outside or any(
                ref == name and (other != module or line not in own)
                for other, found in refs.items()
                for ref, line in found
            )
            if not used:
                unused.append(f"{module}: {qualname}")
    assert not unused, "public names that only unit tests use: " + ", ".join(unused)
