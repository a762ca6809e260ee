"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library, and scipy, though often installed beside
numpy, is never loaded.  Every name a module imports is used or
re-exported, and every private module-level name is used.  No module reads
another module's private names, and the region module sits below the
witness and semigroup layers.  Only the CLI and save_kernel write files."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import tauberlab

PACKAGE = Path(tauberlab.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tauberlab"}


def _imported_top_levels(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    assert sorted(set(_imported_top_levels(path)) - ALLOWED) == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_or_exports_every_import(path):
    assert _unused_imports(path) == []


def _module_level_definitions(tree):
    """(name, node) of each function, class and constant defined at the top
    level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t)):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id, node


def _references(node):
    """The names node reads, by name or as an attribute of a module."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_module_level_name_is_used():
    # a helper orphaned by a later change is dead code: some module of the
    # package must read each private function, class and constant somewhere
    # other than in its own definition
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _references(tree))
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name, node in _module_level_definitions(tree)
              if name.startswith("_") and not name.startswith("__")
              and uses[name] == sum(ref == name for ref in _references(node))]
    assert unused == []


def _package_imports(tree):
    """The package modules a module imports (``from . import x`` or ``from
    .x import y``), and each ``x._y`` of a private name it imports or reads."""
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                modules.add(node.module)
                private += [f"{node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            private.append(f"{node.value.id}.{node.attr}")
    return modules, private


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another_module(path):
    assert _package_imports(ast.parse(path.read_text(), filename=str(path)))[1] == []


def test_regions_imports_neither_witness_nor_semigroup():
    # the region and its supremum sit below the layers that build on them
    path = PACKAGE / "regions.py"
    modules, _ = _package_imports(ast.parse(path.read_text(), filename=str(path)))
    assert modules & {"witness", "semigroup"} == set()


_WRITE_MODES = set("wax+")


def _file_writers(tree):
    """The top-level function or class of each call that writes a file:
    write_text, write_bytes, or an open whose mode is not a read-only
    string constant."""
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "open":
                # builtin open(file, mode), pathlib's path.open(mode)
                args = node.args[1:] if isinstance(func, ast.Name) else node.args
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                            args[0] if args else ast.Constant("r"))
                writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                              and not _WRITE_MODES & set(mode.value))
            else:
                writes = name in ("write_text", "write_bytes")
            if writes:
                yield getattr(top, "name", "<module>")


def test_only_the_cli_and_save_kernel_write_files():
    # every artifact goes through the CLI's one write path; save_kernel is
    # the library's own kernel writer, on the CLI's two kernel texts
    writers = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
               for name in _file_writers(ast.parse(path.read_text(), filename=str(path)))
               if path.stem != "cli"}
    assert writers == {"specialfn.save_kernel"}


def test_cli_import_loads_no_scipy():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    probe = "import sys, tauberlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.strip() == "[]"
