"""The public surface: every name in magpol.__all__ has a consumer besides
the tests.

A consumer is a reference in the package's own modules (not the name's
definition, and not the re-export in __init__.py), in the benchmark under
perfbench/, or in the README.  A public name that only tests use is surface
to maintain with nothing depending on it.
"""

import ast
import re
from pathlib import Path

import magpol

ROOT = Path(__file__).resolve().parent.parent


def _identifiers(path):
    """Names that a Python file reads, imports or reaches as attributes;
    definitions (def, class) are not references."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_consumer_outside_the_tests():
    package = ROOT / "src" / "magpol"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set().union(*(_identifiers(path) for path in sources))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    referenced |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", readme))
    unused = sorted(set(magpol.__all__) - referenced)
    assert not unused, f"public names used only by tests: {unused}"
