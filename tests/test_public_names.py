"""Every public name in `src/boolnet` has a user outside the unit tests.

A public module-level function or class, or a public method or property
of a public class, must be named somewhere in `src/` outside its own
definition, in `perfbench/*.py`, in `tests/test_acceptance.py` or in the
README's fenced python blocks. A name only unit tests call belongs in
those tests. A function or class matches as an identifier (`ast.Name`),
an attribute name (`ast.Attribute`) or an imported name. A method or
property matches only as an attribute name, an imported name or a
keyword: a bare identifier of the same name, such as a parameter, does
not use it. Dunder methods are out of scope.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _references(tree: ast.AST):
    """(name, line, kind) of every identifier, attribute, imported name
    and keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, "attribute"
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno, "import"
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno, "keyword"


# The kinds of reference that can use a module-level definition and a
# class member.
TOP_LEVEL = {"name", "attribute", "import"}
MEMBER = {"attribute", "import", "keyword"}


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


def _outside_users() -> set[tuple[str, str]]:
    """(name, kind) of each reference in perfbench, the acceptance tests
    and the README."""
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
    return {(name, kind) for tree in trees for name, _, kind in _references(tree)}


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
            kinds = MEMBER if "." in qualname else TOP_LEVEL
            own = range(node.lineno, node.end_lineno + 1)
            used = any((name, kind) in outside for kind in kinds) or any(
                ref == name and kind in kinds and (other != module or line not in own)
                for other, found in refs.items()
                for ref, line, kind in found
            )
            if not used:
                unused.append(f"{module}: {qualname}")
    assert not unused, "public names that only unit tests use: " + ", ".join(unused)
