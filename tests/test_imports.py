"""Static check of the package source: every import is used.

A name counts as used when it appears as a name node anywhere in the
module.  A name used only inside a quoted annotation counts as unused;
modules use `from __future__ import annotations`, so such an annotation
can be written unquoted.
"""

import ast
import pathlib

import weylab

SRC = pathlib.Path(weylab.__file__).parent


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s:%d %s" % (path.relative_to(SRC), line, name)
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__ modules import to re-export names or to fill the registries
    found = [hit for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py" for hit in unused_imports(path)]
    assert found == []
