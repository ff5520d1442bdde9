"""Dead-code guard: every export, every module-level function, every class
method and every import has a user.

Uses are found with the standard `ast` module: a name counts as used where
it is loaded (a bare name or an attribute), except inside a definition of
that same name, so a function or method that only calls itself is still
unused.  Import lists and `__all__` strings are not uses.
"""

import ast
from pathlib import Path

import csdepth

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "csdepth"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _uses(paths) -> set[str]:
    used = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in owners:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in paths:
        visit(_parse(path), frozenset())
    return used


def _functions(body):
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_every_export_is_used():
    assert all(hasattr(csdepth, name) for name in csdepth.__all__)
    used = _uses([p for p in SOURCES if p.name != "__init__.py"] + TESTS)
    unused = sorted(set(csdepth.__all__) - used)
    assert not unused, f"exported but used nowhere in src/ or tests/: {unused}"


def test_every_private_function_is_used():
    used = _uses(SOURCES)
    unused = sorted(
        f"{path.stem}.{top.name}"
        for path in SOURCES for top in _functions(_parse(path).body)
        if top.name.startswith("_") and not top.name.startswith("__")
        and top.name not in used)
    assert not unused, f"private functions used nowhere in src/: {unused}"


def test_every_public_function_and_method_is_used():
    # exports count as used by their own test above; dunder methods are
    # called by the language
    used = _uses([p for p in SOURCES if p.name != "__init__.py"] + TESTS)
    defined = []
    for path in SOURCES:
        body = _parse(path).body
        defined += [(f"{path.stem}.{top.name}", top.name) for top in _functions(body)
                    if not top.name.startswith("_") and top.name not in csdepth.__all__]
        defined += [(f"{path.stem}.{cls.name}.{fn.name}", fn.name)
                    for cls in body if isinstance(cls, ast.ClassDef)
                    for fn in _functions(cls.body) if not fn.name.startswith("__")]
    unused = sorted(qualname for qualname, name in defined if name not in used)
    assert not unused, f"functions and methods used nowhere in src/ or tests/: {unused}"


def test_every_import_is_used():
    # __init__ imports only to re-export; its names are checked above
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in names if name not in loaded]
    assert not unused, f"imported but never used: {unused}"
