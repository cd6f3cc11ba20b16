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
