"""Every module-level import in the package, the scripts and the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/htnav", "scripts", "tests")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing in the module reads.

    A name counts as read when it appears as an identifier anywhere in the
    module or as a string in a top-level ``__all__``.
    """
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_checker_sees_unused_and_reexported_names():
    source = "import json\nimport os.path\nfrom math import pi, tau\n__all__ = ['tau']\nx = pi + os.sep\n"
    assert unused_imports(source) == ["json (line 1)"]


def test_no_unused_module_level_imports():
    found = {}
    for folder in CHECKED:
        for path in sorted((ROOT / folder).glob("*.py")):
            unused = unused_imports(path.read_text())
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert found == {}
