import ast
from pathlib import Path

import coal

PACKAGE = Path(coal.__file__).parent

# exported as reference implementations the tests check the package against
TEST_REFERENCES = {"WeightedPoint", "fit_weighted", "brute_force_cost_range", "separation_oracle"}


def _referenced_names():
    """Names read as a variable or an attribute anywhere in the package's code.

    The package's own re-exports in __init__.py do not count, and neither do
    docstrings: only a Name or an Attribute node in the syntax tree does.
    """
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_export_has_a_caller_in_the_package():
    exported = _exported_names()
    assert TEST_REFERENCES <= exported
    unused = exported - TEST_REFERENCES - _referenced_names()
    assert not unused, f"exported but never used in src/coal: {sorted(unused)}"


REPO = PACKAGE.parent.parent
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
