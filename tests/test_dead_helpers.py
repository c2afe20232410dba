"""No private helper of the package is left without a caller, no import unread.

Every function or class defined at the top level of a module under
``src/semih1`` with a ``_private`` name must be referenced somewhere in the
package outside its own definition: as a name that is read, or as an
attribute.  An import is not a reference, so a helper that is only
imported somewhere is still reported.

Every name a module other than ``__init__.py`` imports at its top level
must be read in that module, unless its line is marked ``noqa``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semih1"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_is_referenced():
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.name, top.name) if isinstance(top, DEFS) else None
            if owner and _is_private(top.name):
                defined.add(owner)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    used.add((name, owner))
    dead = sorted(f"{module}:{name}" for module, name in defined
                  if not any(n == name and o != (module, name) for n, o in used))
    assert len(defined) > 50
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
