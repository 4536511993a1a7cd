"""Every module-level import in the package, the scripts and the tests is used,
everything public in the package is used by the program, not only by tests,
and the CLI calls every entry point that the benchmark hooks by name."""

import ast
from pathlib import Path

import pytest

import htnav.cli

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/htnav", "scripts", "tests")
# the benchmark's child process, read and never imported
CHILD = (ROOT / "perfbench" / "child.py").read_text()


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


def public_definitions(source: str) -> dict[str, int]:
    """Public top-level functions and classes by name, and public methods as
    ``.name``, each with its line."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found["." + item.name] = item.lineno
    return found


def code_references(source: str) -> set[str]:
    """Names read as code: identifiers, and attribute names both bare and as
    ``.name``.  Imports and strings (``__all__`` too) are not references."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs |= {node.attr, "." + node.attr}
    return refs


def top_level_literal(source: str, name: str):
    """The literal value that ``source`` assigns to ``name`` at its top level."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no top-level {name}")


def traced_names(source: str) -> set[str]:
    """The names that ``perfbench/child.py``'s ``TARGETS`` wrap, as references."""
    parts = {part for _, attr, _ in top_level_literal(source, "TARGETS") for part in attr.split(".")}
    return parts | {"." + part for part in parts}


def test_checker_sees_unreferenced_definitions():
    source = (
        "from .m import a\n__all__ = ['a', 'f']\n"
        "def f():\n    return 'g'\n"
        "class C:\n    def m(self):\n        return a\n    def _p(self):\n        pass\n"
        "def g():\n    return C().m()\n"
    )
    defined = public_definitions(source)
    assert defined == {"f": 3, "C": 5, ".m": 6, "g": 10}
    assert sorted(set(defined) - code_references(source)) == ["f", "g"]
    assert traced_names("TARGETS = (('htnav.env', 'NavEnv.reset', 'env.reset'),)\n") == {
        "NavEnv", "reset", ".NavEnv", ".reset"
    }


def test_everything_public_in_the_package_is_used_by_the_program():
    refs = traced_names(CHILD)
    for folder in ("src/htnav", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            refs |= code_references(path.read_text())
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted((ROOT / "src/htnav").glob("*.py"))
        for name, line in public_definitions(path.read_text()).items()
        if name not in refs
    ]
    assert unused == []


# the command that reaches each of ``perfbench/child.py``'s ``WORKLOAD_ENTRIES``
ENTRY_COMMANDS = {
    "train": ["train", "--episodes", "0", "--seeds", "0"],
    "run_comparison": ["compare", "--episodes", "0", "--seeds", "0"],
    "evaluate": ["eval", str(ROOT / "perfbench" / "eval_checkpoint.json"), "-n", "1",
                 "--scenario", "uneven_terrain"],
}


@pytest.mark.parametrize("name", top_level_literal(CHILD, "WORKLOAD_ENTRIES"))
def test_cli_calls_every_benchmark_entry_by_name(tmp_path, monkeypatch, name):
    # the benchmark starts its workload clock by wrapping htnav.cli.<name>
    real = getattr(htnav.cli, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(htnav.cli, name, recording)
    assert htnav.cli.main([*ENTRY_COMMANDS[name], "--out", str(tmp_path / "out")]) == 0
    assert calls == [name]
