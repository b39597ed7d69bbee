"""The package imports nothing but the standard library and numpy.

README and CI install ``numpy`` as the only runtime requirement; an import of
anything else under ``src/repro`` works only on machines that happen to have
that package and fails everywhere else.
"""

import ast
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def top_level_imports(path):
    """``(line, top-level module name)`` of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 50  # the walk found the package
    undeclared = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sources
        for line, name in top_level_imports(path)
        if name not in ALLOWED
    ]
    assert undeclared == []
