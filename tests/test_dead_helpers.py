"""No helper of the package is left without a reader, no import unread.

Every function or class defined at the top level of a module under
``src/semih1`` with a ``_private`` name must be referenced somewhere in the
package outside its own definition: as a name that is read, or as an
attribute.  An import is not a reference, so a helper that is only
imported somewhere is still reported.

Every public function defined at the top level of such a module must be
referenced in the package the same way, exported from ``semih1/__init__.py``,
or referenced by a file under ``bench/``.

Every name a module other than ``__init__.py`` imports at its top level
must be read in that module, unless its line is marked ``noqa``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semih1"
BENCH = ROOT / "bench"
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCS, ast.ClassDef)


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _read(node):
    """The name a node reads, as a name or an attribute, else None."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _package():
    """(defined, used): each top-level definition as (module, name, node), and each pair
    (name read, the (module, name) of the definition it is read in, or None)."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.name, top.name) if isinstance(top, DEFS) else None
            if owner:
                defined.append((*owner, top))
            used.update((name, owner) for node in ast.walk(top)
                        if (name := _read(node)) is not None)
    return defined, used


def _unread(defined, used):
    """``module:name`` of each definition read nowhere in the package outside itself."""
    return sorted(f"{module}:{name}" for module, name, _ in defined
                  if not any(n == name and o != (module, name) for n, o in used))


def test_every_private_helper_is_referenced():
    defined, used = _package()
    private = [d for d in defined if _is_private(d[1])]
    assert len(private) > 50
    dead = _unread(private, used)
    assert not dead, dead


def test_every_public_function_is_read_exported_or_benchmarked():
    defined, used = _package()
    public = [d for d in defined if isinstance(d[2], FUNCS) and not d[1].startswith("_")]
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for top in init.body
                if isinstance(top, ast.ImportFrom) for alias in top.names}
    benched = {name for path in sorted(BENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if (name := _read(node)) is not None}
    assert len(public) > 80
    dead = _unread([d for d in public if d[1] not in exported | benched], used)
    assert not dead, dead


def test_every_module_level_import_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for top in tree.body:
            for alias in top.names if isinstance(top, (ast.Import, ast.ImportFrom)) else ():
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "noqa" not in lines[alias.lineno - 1]:
                    unread.append(f"{path.name}:{alias.lineno}:{name}")
    assert not unread, unread
