"""Static checks of the package source: every import is used, and every
name the package defines is used somewhere.

An import counts as used when it appears as a name node anywhere in the
module.  A name used only inside a quoted annotation counts as unused;
modules use `from __future__ import annotations`, so such an annotation
can be written unquoted.

A defined name (a top-level function, class or constant, or a method)
counts as used when the package, the tests, the demos or the benchmark
load it as a name, read it as an attribute, import it or spell it as a
string constant: the benchmark tracer looks names up by string.
"""

import ast
import pathlib

import weylab

SRC = pathlib.Path(weylab.__file__).parent
USERS = [SRC] + [SRC.parents[1] / d for d in ("tests", "demos", "bench")]


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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(path):
    """(line, name) of the module's top-level functions, classes and
    constants and of its classes' methods."""
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((item.lineno, item.name) for item in node.body
                       if isinstance(item, ast.FunctionDef))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        out.extend((node.lineno, t.id) for t in targets
                   if isinstance(t, ast.Name))
    return [(line, name) for line, name in out if not _is_dunder(name)]


def referenced_names():
    names = set()
    for root in USERS:
        for path in root.rglob("*.py"):
            for n in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, ast.alias):
                    names.add(n.name.rpartition(".")[2])
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    names.add(n.value)
    return names


def test_every_defined_name_is_used():
    used = referenced_names()
    found = ["%s:%d %s" % (path.relative_to(SRC), line, name)
             for path in sorted(SRC.rglob("*.py"))
             for line, name in defined_names(path) if name not in used]
    assert found == []
