"""Static checks of the package source: every import is used, every name
the package defines is used somewhere, and nothing names numpy.random;
and what a run imports: a sampling run loads neither numpy.random nor
hashlib, and an estimate-only run does not load the seed stream.

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
import os
import pathlib
import subprocess
import sys

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


def numpy_random_uses(path):
    """Lines where a module imports numpy.random or reads np.random or
    numpy.random as an attribute."""
    tree = ast.parse(path.read_text(), str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + ["%s.%s" % (node.module, alias.name)
                                           for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name):
            names = ["%s.random" % node.value.id]
        else:
            continue
        if any(name in ("numpy.random", "np.random")
               or name.startswith("numpy.random.") for name in names):
            hits.append("%s:%d" % (path.relative_to(SRC), node.lineno))
    return hits


def test_no_module_names_numpy_random():
    # samplers draw from core.seed_stream, weylab's own copy of the stream
    assert [hit for path in sorted(SRC.rglob("*.py"))
            for hit in numpy_random_uses(path)] == []


def _modules_after_run(tmp_path, args):
    """sys.modules names, after `weylab <args>` ran in a fresh interpreter."""
    src = str(SRC.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = ("import sys\nfrom weylab.cli import main\n"
            "status = main(sys.argv[1:])\nprint(status)\nprint(*sorted(sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    status, modules = done.stdout.splitlines()[-2:]
    assert status == "0"
    return set(modules.split())


def test_sampling_run_loads_no_numpy_random_or_hashlib(tmp_path):
    modules = _modules_after_run(
        tmp_path, ["run", "tm-chain-classify", "--seed", "3", "--out", "out"])
    assert "weylab.seeds" in modules  # the run did draw its pairs
    assert modules.isdisjoint({"numpy.random", "secrets", "hashlib"})


def test_estimate_run_does_not_load_the_seed_stream(tmp_path):
    (tmp_path / "fibres.ini").write_text(
        "[scenario:fibres]\n"
        "operation = estimate\n"
        "system = toeplitz\n"
        "pairs =\n"
        "    addr=int:-3 flag=plain | addr=int:-3 flag=primed\n"
        "    addr=int:12 flag=plain | addr=int:12 flag=primed\n"
        "max_exponent = 8\n"
        "kinds = besicovitch weyl check hat banach-density\n"
        "eps = 0.01\n")
    modules = _modules_after_run(tmp_path, ["run", "fibres.ini", "--out", "out"])
    assert "weylab.cli" in modules
    assert modules.isdisjoint({"weylab.seeds", "numpy.random"})
