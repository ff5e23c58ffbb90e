"""Shape of the package itself, read from its source."""

import ast
import re
from pathlib import Path

import hqcdfs

PACKAGE = Path(hqcdfs.__file__).parent
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def names_in_package() -> set:
    """Every name and attribute read in ``src/hqcdfs`` outside ``__init__.py``."""
    named = set()
    for module, tree in TREES.items():
        if module != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    return named


def test_every_public_function_has_a_caller_in_the_package():
    """A public module-level function must be named in ``src/hqcdfs`` outside
    its own definition and ``__init__.py``; one that only the tests call
    belongs in ``tests/``."""
    named = names_in_package()
    defined = [
        f"{module}:{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert defined
    assert [name for name in defined if name.split(":")[1] not in named] == []


def test_every_public_method_has_a_caller_in_the_package():
    """The same for the public methods, classmethods and properties of every
    class."""
    named = names_in_package()
    defined = [
        f"{module}:{cls.name}.{node.name}"
        for module, tree in TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    uncalled = [name for name in defined if name.rsplit(".", 1)[1] not in named]
    assert uncalled == []


def test_readme_layout_lists_every_module():
    """The README's "Library layout" table names exactly the modules of
    ``src/hqcdfs``, ``__init__`` aside."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `hqcdfs\.(\w+)`", section, re.MULTILINE)
    assert sorted(listed) == sorted(Path(name).stem for name in TREES if name != "__init__.py")
