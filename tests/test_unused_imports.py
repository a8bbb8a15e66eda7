"""Every name a module under ``src/repro`` imports is used there.

A stdlib-only unused-import check: each module is parsed, and a name
bound by an ``import`` statement that nothing else in the module
references is reported.  Two kinds of import are exempt: the names an
``__init__.py`` re-exports through ``__all__``, and a statement marked
``# noqa`` (imported for its side effects, like the experiment
registry's module loads).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(node):
    """The names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            names.append(alias.asname)
        elif isinstance(node, ast.Import):
            names.append(alias.name.split(".")[0])
        else:
            names.append(alias.name)
    return names


def _annotation_names(annotation):
    """Names inside a string annotation such as ``"RandomStreams"``."""
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        try:
            parsed = ast.parse(annotation.value, mode="eval")
        except SyntaxError:
            return set()
        return {node.id for node in ast.walk(parsed)
                if isinstance(node, ast.Name)}
    return set()


def _exports(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def unused_imports(path):
    """Imported names that ``path`` never references, in line order."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            statement = lines[node.lineno - 1:node.end_lineno]
            if not any("# noqa" in line for line in statement):
                imported += [(node.lineno, name)
                             for name in _bound_names(node)]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
    if path.name == "__init__.py":
        used |= _exports(tree)
    return [(line, name) for line, name in sorted(imported)
            if name not in used]


def test_no_unused_imports():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(path)]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_checker_flags_an_unused_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\n"
                      "import sys  # noqa\n"
                      "from typing import List, Optional\n"
                      "def f(x: 'Optional[int]') -> None:\n"
                      "    return os.sep\n")
    assert unused_imports(module) == [(4, "List")]
