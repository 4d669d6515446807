"""The package source keeps only code that the package itself runs.

Every top-level function and class in ``src/convmds`` must be referenced
somewhere in ``src/`` outside its own body, or be exported in the package's
``__all__``.  A helper that only the tests call belongs under ``tests/``.

Every method, property and dataclass field of a class in ``src/convmds``
must be read as ``.name`` somewhere in ``src/``, ``tests/`` or
``perfbench/``.  The check goes by name alone, so a member escapes it when
an unrelated object's attribute of the same name is read.

Within ``src/``, only ``CodeSpec.complement`` calls ``derived_complement``,
so each code derives its window complement once, and only ``make_code``
raises ``MissingMatrix``: every code has both windows.  Each of the three
budgeted searches (column distances, decoder supports, superregular
columns) raises ``BudgetExceeded`` from one place, and the binomial
minors' 8x8 cap is the only other raise.  A ``LowerToeplitz`` refuses a
missing field when it is built, so no function that takes one tests its
domain again.
"""

import ast
from pathlib import Path

import convmds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "convmds"

ALLOWED = {
    # perfbench traces it as linalg.in_span; dropping it changes the benchmark
    "in_span",
    # the README's documented way to regenerate the fixtures/ directory
    "write_fixture_files",
}

MEMBERS_ALLOWED = set()


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


def _is_dataclass(cls) -> bool:
    for deco in cls.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def _members(cls):
    """Methods, properties and (for a dataclass) fields, dunders aside."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and _is_dataclass(cls):
            name = node.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            yield name


def unread_members() -> list:
    """Class.member of each member no ``.member`` read names."""
    reads = {node.attr
             for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    return [f"{cls.name}.{name}"
            for path in sorted(SRC.glob("*.py"))
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(cls, ast.ClassDef)
            for name in _members(cls) if name not in reads]


def test_every_member_is_read():
    assert [m for m in unread_members() if m not in MEMBERS_ALLOWED] == []


def test_member_allowlist_entries_are_still_unread():
    assert set(unread_members()) == MEMBERS_ALLOWED


def callers_of(name: str, raised: bool = False) -> list:
    """Qualified name of the def enclosing each call of ``name`` in src/,
    or with ``raised`` each ``raise name`` or ``raise name(...)``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise if raised else ast.Call):
                target = child.exc if raised else child
                if isinstance(target, ast.Call):
                    target = target.func
                if getattr(target, "id", getattr(target, "attr", None)) == name:
                    found.append(".".join(scope))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


def test_only_the_code_derives_its_window_complement():
    # every other window reader goes through CodeSpec.complement, which
    # derives the complement once per code
    assert callers_of("derived_complement") == ["code.CodeSpec.complement"]


def test_only_make_code_raises_missing_matrix():
    # a code needs one stored matrix; the other window is derived from it
    assert callers_of("MissingMatrix", raised=True) == ["code.make_code"]


def test_each_budget_is_checked_in_one_place():
    # the column distances check their budget once, before any engine runs
    assert callers_of("BudgetExceeded", raised=True) == [
        "decoder.solve_eta0", "distances.column_distance",
        "superregular.smallest_prime_superregular", "superregular._first_hit"]


def test_only_lower_toeplitz_tests_for_a_missing_field():
    # the CLI's --field option is the one other ``.field`` compared with None
    found = [(path.stem, ast.unparse(node))
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Compare)
             and getattr(node.left, "attr", None) == "field"
             and any(getattr(c, "value", 0) is None for c in node.comparators)]
    assert found == [("cli", "args.field is not None"),
                     ("superregular", "self.field is None")]
