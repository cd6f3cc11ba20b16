import ast
from collections import Counter
from pathlib import Path

import coal

PACKAGE = Path(coal.__file__).parent
REPO = PACKAGE.parent.parent

# public names the tests import as reference implementations to check the
# package against; no package code calls them
TEST_REFERENCES = {
    "WeightedPoint",
    "fit_weighted",
    "brute_force_cost_range",
    "cost_interval",
    "max_cost",
    "min_cost",
    "sensitivity",
    "partial_costs",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_package_module_imports_nothing():
    # a public name has one import path: the submodule that defines it
    tree = _parse(PACKAGE / "__init__.py")
    imports = [
        node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not imports, f"coal/__init__.py imports on lines {imports}"


def _names_read(node):
    """Names read as a variable or an attribute under a syntax tree node.

    Docstrings and import statements do not count: only a Name or an
    Attribute node does.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_name_has_a_caller_in_the_package():
    defined = {}  # public top-level def or class -> (file, whether it reads itself)
    readers = Counter()  # name -> number of top-level statements that read it
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            read = set(_names_read(stmt))
            readers.update(read)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined[stmt.name] = (path.name, stmt.name in read)
    called = {name for name, (_, own) in defined.items() if readers[name] > own}
    assert TEST_REFERENCES <= defined.keys()
    assert not TEST_REFERENCES & called, "a test reference the package calls needs no exemption"
    unused = sorted(
        f"{path}:{name}"
        for name, (path, _) in defined.items()
        if name not in called | TEST_REFERENCES
    )
    assert not unused, f"public but never used in src/coal: {unused}"
    imported = {
        alias.name
        for path in (REPO / "tests").glob("*.py")
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert TEST_REFERENCES <= imported, f"no test imports {sorted(TEST_REFERENCES - imported)}"


# public methods and properties that only tests or perfbench read
ATTRIBUTE_REFERENCES = {
    "CostInterval.width",
    "GroundTruth.true_costs",
    # the one-label form of the risk formula; a round takes every label's
    # risk through oracle.record_round's one product over the lanes
    "LabelState.risk_of_weights",
    "QueryDecision.intervals",
    "SparseVector.dot",
}


def _attributes_read(folder):
    """Attribute names read in a folder's modules, except numpy's and math's:
    np.dot does not read SparseVector.dot."""
    read = set()
    for path in folder.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if not (isinstance(base, ast.Name) and base.id in ("np", "math")):
                    read.add(node.attr)
    return read


def test_every_public_method_has_a_caller_in_the_package():
    methods = {
        f"{stmt.name}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for stmt in _parse(path).body
        if isinstance(stmt, ast.ClassDef)
        for node in stmt.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    read = _attributes_read(PACKAGE)
    called = {method for method in methods if method.split(".")[1] in read}
    assert ATTRIBUTE_REFERENCES <= methods
    assert not ATTRIBUTE_REFERENCES & called, "a method the package reads needs no exemption"
    unused = sorted(methods - called - ATTRIBUTE_REFERENCES)
    assert not unused, f"public methods never read in src/coal: {unused}"
    outside = _attributes_read(REPO / "tests") | _attributes_read(REPO / "perfbench")
    unread = sorted(m for m in ATTRIBUTE_REFERENCES if m.split(".")[1] not in outside)
    assert not unread, f"no test or perfbench reads {unread}"


CALLER_DIRS = [PACKAGE, REPO / "tests", REPO / "perfbench"]


def _defaulted_parameters(tree):
    """(call name, parameter, positional index or None) per defaulted parameter.

    A method's positional index skips self; __init__ is called by its class name.
    """
    found = []

    def visit(body, class_name):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
                skip = 1 if class_name and not static else 0
                name = class_name if node.name == "__init__" else node.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    found.append((name, arg.arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((name, arg.arg, None))
                visit(node.body, None)

    visit(tree.body, None)
    return found


def _passed_arguments():
    """Per called name: keyword names passed, the most positionals, and
    whether some call unpacks *args or **kwargs (which may pass anything)."""
    passed = {}
    for folder in CALLER_DIRS:
        for path in folder.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                keywords, most, unpacks = passed.get(name, (set(), 0, False))
                keywords |= {kw.arg for kw in node.keywords if kw.arg is not None}
                unpacks = unpacks or any(kw.arg is None for kw in node.keywords)
                unpacks = unpacks or any(isinstance(a, ast.Starred) for a in node.args)
                passed[name] = (keywords, max(most, len(node.args)), unpacks)
    return passed


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant dressed as an option
    passed = _passed_arguments()
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, param, index in _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8"))):
            keywords, most, unpacks = passed.get(name, (set(), 0, False))
            if not (unpacks or param in keywords or (index is not None and index < most)):
                never.append(f"{path.name}:{name}({param}=)")
    assert not never, f"defaulted parameters no call passes: {never}"
