"""The package source keeps only code that the package itself runs.

Every top-level function and class in ``src/convmds`` must be referenced
somewhere in ``src/`` outside its own body, or be exported in the package's
``__all__``.  A helper that only the tests call belongs under ``tests/``.
"""

import ast
from pathlib import Path

import convmds

SRC = Path(__file__).resolve().parent.parent / "src" / "convmds"

ALLOWED = {
    # perfbench traces it as linalg.in_span; dropping it changes the benchmark
    "in_span",
    # the README's documented way to regenerate the fixtures/ directory
    "write_fixture_files",
}


def _names(node) -> set:
    """Identifiers read or bound anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreferenced_definitions() -> list:
    """(file, name) of each top-level def or class nothing else names."""
    nodes = [(path.name, node)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text(encoding="utf-8")).body]
    names = [_names(node) for _, node in nodes]
    exported = set(convmds.__all__)
    unused = []
    for i, (fname, node) in enumerate(nodes):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name in exported:
            continue
        if not any(node.name in seen for j, seen in enumerate(names) if j != i):
            unused.append((fname, node.name))
    return unused


def test_every_definition_is_used_or_exported():
    unused = [f"{f}:{name}" for f, name in unreferenced_definitions()
              if name not in ALLOWED]
    assert unused == []


def test_allowlist_entries_are_still_unreferenced():
    assert {name for _, name in unreferenced_definitions()} == ALLOWED
