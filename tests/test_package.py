"""Shape of the package itself, read from its source."""

import ast
import importlib
import math
import re
from pathlib import Path

import hqcdfs
from hqcdfs.cli import COMMANDS, PROGRAM

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


def overrides(module: str, cls: str, method: str) -> bool:
    """Whether ``method`` of class ``cls`` in ``module`` overrides a method
    of a base class, through which its callers call it."""
    obj = getattr(importlib.import_module(f"hqcdfs.{Path(module).stem}"), cls)
    return any(method in vars(base) for base in obj.__mro__[1:])


def test_every_public_method_has_a_caller_in_the_package():
    """The same for the public methods, classmethods and properties of every
    class, except those that override a base-class method: the base class's
    callers call them."""
    named = names_in_package()
    defined = [
        (module, cls.name, node.name)
        for module, tree in TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    uncalled = [
        f"{module}:{cls}.{method}"
        for module, cls, method in defined
        if method not in named and not overrides(module, cls, method)
    ]
    assert uncalled == []


def passes(call: ast.Call, name: str, index: int) -> bool:
    """Whether ``call`` gives the parameter ``name``, at position ``index``
    of its call, by keyword or by position; a ``*`` or ``**`` argument may
    give any."""
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    keywords = [kw.arg for kw in call.keywords]
    return starred or None in keywords or name in keywords or index < len(call.args)


# Defaulted parameters that no package call sets: ``cli.main``'s ``argv``
# is the in-process test entry, and the console script passes none.
UNSET_DEFAULTS = ["cli.py:main(argv)"]


def test_every_defaulted_parameter_is_passed_in_the_package():
    """Each defaulted parameter of a public function or method is passed at
    some call site in ``src/hqcdfs``: a knob that the package never sets
    belongs to the tests, or nowhere."""
    calls = [
        node
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    unset = []
    for module, tree in TREES.items():
        functions = [(node, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [
            (node, not any(ast.unparse(d) == "staticmethod" for d in node.decorator_list))
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]
        for func, bound in functions:
            if func.name.startswith("_"):
                continue
            positional = func.args.posonlyargs + func.args.args
            named = [(arg.arg, i - bound) for i, arg in enumerate(positional)]
            defaulted = named[len(named) - len(func.args.defaults):] if func.args.defaults else []
            defaulted += [
                (arg.arg, math.inf)
                for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
                if default is not None
            ]
            to_func = [
                call for call in calls
                if func.name == getattr(call.func, "id", getattr(call.func, "attr", None))
            ]
            unset += [
                f"{module}:{func.name}({name})"
                for name, index in defaulted
                if not any(passes(call, name, index) for call in to_func)
            ]
    assert unset == UNSET_DEFAULTS


def test_no_function_local_package_imports():
    """A ``from .`` import inside a function can hide a module cycle."""
    local = [
        f"{module}:{func.name}"
        for module, tree in TREES.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert local == []


def test_only_operators_reads_a_spectrum():
    """Only ``operators.py`` calls ``eigh`` or reads a ``.values`` attribute,
    so no other module can rebuild e^{-i Lambda t} from the eigenvalues by
    hand: every evolution goes through ``Spectrum.frames``. A call such as
    ``dict.values()`` is not such a read."""
    called = {
        id(node.func)
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    found = set()
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "eigh":
                found.add((module, "eigh"))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node.attr == "eigh" or node.attr == "values" and id(node) not in called:
                    found.add((module, node.attr))
    assert sorted(found) == [("operators.py", "eigh"), ("operators.py", "values")]


def test_readme_layout_lists_every_module():
    """The README's "Library layout" table names exactly the modules of
    ``src/hqcdfs``, ``__init__`` aside."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `hqcdfs\.(\w+)`", section, re.MULTILINE)
    assert sorted(listed) == sorted(Path(name).stem for name in TREES if name != "__init__.py")


def test_two_exception_types():
    """``src/hqcdfs`` defines exactly two exception types, one per failing
    exit status of the CLI: ``operators.ContractViolation`` (3) and
    ``cli.InputError`` (2). Every other failure is a built-in type."""
    defined = []
    for name in TREES:
        stem = Path(name).stem
        module = importlib.import_module("hqcdfs" if stem == "__init__" else f"hqcdfs.{stem}")
        defined += [
            f"{stem}.{obj.__name__}"
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
    assert sorted(defined) == ["cli.InputError", "operators.ContractViolation"]


def test_one_way_out():
    """``cli.main`` alone writes to ``sys.stderr`` and calls ``_emit``, at
    one site, and nothing in ``src/hqcdfs`` calls ``print`` or ``sys.exit``:
    every report and every failure line leaves through ``main``."""
    main = next(node for node in TREES["cli.py"].body if getattr(node, "name", None) == "main")
    in_main = {id(node) for node in ast.walk(main)}
    found = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
            elif isinstance(node, ast.Attribute):
                name = ast.unparse(node)
            else:
                continue
            if name in ("print", "sys.exit", "_emit", "sys.stderr"):
                found.append((module, name, id(node) in in_main))
    assert sorted(set(found)) == [("cli.py", "_emit", True), ("cli.py", "sys.stderr", True)]
    assert found.count(("cli.py", "_emit", True)) == 1


def test_one_decode_rule_and_one_layout_rule():
    """A record reads its input document by ``Record.from_json_dict`` and
    writes its report by ``Record.to_json_dict``. Only ``BasisSet``, whose
    ``--basis`` vectors arrive as columns of [re, im] pairs, has its own
    decoder, and its own layout, which echoes them as they arrived; and only
    ``GateRecipe``, which echoes its input floats unrounded, has its own
    layout too."""
    defining = {"from_json_dict": [], "to_json_dict": []}
    for tree in TREES.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and node.name in defining:
                        defining[node.name].append(cls.name)
    assert sorted(defining["from_json_dict"]) == ["BasisSet", "Record"]
    assert sorted(defining["to_json_dict"]) == ["BasisSet", "GateRecipe", "Record"]


# Input rules may fail only where a value enters the program: anywhere in
# ``cli``, which alone raises ``InputError``, in a record's ``__post_init__``
# or ``from_json_dict``, in these owners of record fields, and in the
# encoder's non-finite guard. The library takes every other value as given.
INPUT_OWNERS = {"as_int", "as_float"}
INPUT_ERRORS = {"ValueError", "InputError"}


def input_error_raises() -> list:
    """(module, owner, raised expression) of each raise of an input-error
    type in ``src/hqcdfs``, with its owner the module-level function or the
    ``Class.method`` around it, and ``Record`` subclasses' names kept as
    ``Record:Class``; a raise outside any function has owner None."""
    found = []
    for module, tree in TREES.items():
        owners = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                owners[node.name] = node
            elif isinstance(node, ast.ClassDef):
                prefix = "Record:" if "Record" in [ast.unparse(b) for b in node.bases] else ""
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        owners[f"{prefix}{node.name}.{method.name}"] = method
        owner_of = {id(n): owner for owner, func in owners.items() for n in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) in INPUT_ERRORS:
                    found.append((module, owner_of.get(id(node)), node.exc))
    return found


def owns_input(module: str, owner: str | None, exc: ast.expr) -> bool:
    owner = owner or ""
    methods = (".__post_init__", ".from_json_dict")
    record_rule = owner.startswith("Record:") and owner.endswith(methods)
    message = ast.unparse(exc.args[0]) if isinstance(exc, ast.Call) and exc.args else ""
    non_finite = module == "serialize.py" and message.startswith("_NON_FINITE")
    return module == "cli.py" or owner in INPUT_OWNERS or record_rule or non_finite


def test_values_are_checked_where_they_enter():
    """``ValueError`` and ``InputError`` are raised only by the owners of
    input, and ``InputError`` only in ``cli``: the pipeline takes the values
    they checked, and what it builds from them, without checking them
    again. Computed results fail by ``ContractViolation`` instead."""
    raises = input_error_raises()
    assert INPUT_OWNERS <= {owner for _, owner, _ in raises}
    assert [f"{m}:{o}" for m, o, exc in raises if not owns_input(m, o, exc)] == []
    input_errors = [m for m, _, exc in raises if ast.unparse(getattr(exc, "func", exc)) == "InputError"]
    assert set(input_errors) == {"cli.py"}


def refuses_nan(test: ast.expr) -> bool:
    """Whether ``test`` is true whenever a NaN is compared in it: ``not`` of a
    comparison without ``!=``, a ``!=``, or an ``or`` of such tests."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return all(refuses_nan(value) for value in test.values)
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        test = test.operand
        return isinstance(test, ast.Compare) and not any(isinstance(op, ast.NotEq) for op in test.ops)
    return isinstance(test, ast.Compare) and all(isinstance(op, ast.NotEq) for op in test.ops)


def test_every_contract_guard_refuses_a_nan():
    """Each ``if`` whose body raises ``ContractViolation`` fires on a NaN: a
    comparison with a NaN is false, so ``x > tol`` lets a NaN defect
    through where ``not x <= tol`` refuses it."""
    guards = [
        (module, node.test)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and any(
            isinstance(stmt, ast.Raise)
            and ast.unparse(getattr(stmt.exc, "func", stmt.exc)) == "ContractViolation"
            for stmt in node.body
        )
    ]
    assert guards
    assert [f"{module}:{ast.unparse(test)}" for module, test in guards if not refuses_nan(test)] == []


def test_cli_option_surface():
    """Every option string of each subcommand, read from the CLI's option
    table in declaration order: adding or removing a knob is an edit here."""
    surface = {
        name: [s for option in options for s in option.split("/")]
        for name, (_, options) in COMMANDS.items()
    }
    assert [s for option in PROGRAM[1] for s in option.split("/")] == [
        "-h", "--help", "--version",
    ]
    assert surface == {
        "gate": ["-h", "--help", "--recipe", "--steps", "--out"],
        "holonomy": ["-h", "--help", "--recipe", "--basis", "--steps", "--out"],
        "noise": ["-h", "--help", "--recipe", "--ensemble", "--format", "--out"],
        "sweep": ["-h", "--help", "--param", "--from", "--to", "--points", "--recipe", "--out"],
        "nogo": ["-h", "--help", "--trials", "--seed", "--out"],
    }
