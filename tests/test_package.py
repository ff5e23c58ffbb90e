"""Shape of the package itself, read from its source."""

import ast
from pathlib import Path

import hqcdfs

PACKAGE = Path(hqcdfs.__file__).parent


def test_every_public_function_has_a_caller_in_the_package():
    """A public module-level function must be named in ``src/hqcdfs`` outside
    its own definition and ``__init__.py``; one that only the tests call
    belongs in ``tests/``."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    named = set()
    for module, tree in trees.items():
        if module != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    defined = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert defined
    assert [name for name in defined if name.split(":")[1] not in named] == []
