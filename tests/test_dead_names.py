"""Every top-level name defined in `src/rawfilter` must be used somewhere:
a helper that nothing calls any more is dead code and goes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rawfilter"
SEARCHED = ("src", "tests", "scripts", "perfbench")


def _definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree: ast.Module):
    """(name, line) of every name a module reads: loaded names, attributes,
    imported names and the dotted parts of string constants (names patched
    or looked up by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                yield part, node.lineno


def test_every_top_level_name_in_the_package_is_referenced():
    definitions = []  # (name, file, first line, last line)
    references: dict = {}  # name -> {(file, line)}
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, line in _references(tree):
                references.setdefault(name, set()).add((path, line))
            if PACKAGE in path.parents:
                for name, node in _definitions(tree):
                    if not (name.startswith("__") and name.endswith("__")):
                        definitions.append((name, path, node.lineno, node.end_lineno))
    dead = [
        f"{path.relative_to(ROOT)}:{first} {name}"
        for name, path, first, last in definitions
        if all(where == path and first <= line <= last for where, line in references.get(name, ()))
    ]
    assert not dead, dead


def test_every_imported_name_in_the_package_is_read():
    """A name a module imports must be read in that module; `__init__.py`
    is exempt, since it imports to re-export."""
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    if bound not in ("*", "annotations"):
                        imported[bound] = node.lineno
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items()
            if name not in read
        ]
    assert not unused, unused
