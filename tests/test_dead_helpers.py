"""No helper of the package is left without a reader, no import unread.

Every function or class defined at the top level of a module under
``src/semih1`` with a ``_private`` name must be referenced somewhere in the
package outside its own definition: as a name that is read, or as an
attribute.  An import is not a reference, so a helper that is only
imported somewhere is still reported.

Every public function or class defined at the top level of such a module
must be referenced in the package the same way, exported from
``semih1/__init__.py``, or referenced by a file under ``bench/``: an error
class that nothing raises or catches is reported too.

Every public method or property of a public class defined at the top level
of such a module must be read as an attribute in the package outside its
own body, read as an attribute by a file under ``bench/``, or written as
``.name`` in code in README.md.  A store (``self.rows = ...``) is not a read.

Every name ``semih1/__init__.py`` exports is named in code in README.md, so
the public surface is the one README documents.

Every name a module other than ``__init__.py`` imports at its top level
must be read in that module, unless its line is marked ``noqa``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semih1"
BENCH = ROOT / "bench"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _read(node):
    """The name a node reads, as a name or an attribute, else None."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _package():
    """(defined, used): each top-level definition as (module, name), and each pair
    (name read, the (module, name) of the definition it is read in, or None)."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.name, top.name) if isinstance(top, DEFS) else None
            if owner:
                defined.append(owner)
            used.update((name, owner) for node in ast.walk(top)
                        if (name := _read(node)) is not None)
    return defined, used


def _unread(defined, used):
    """``module:name`` of each definition read nowhere in the package outside itself."""
    return sorted(f"{module}:{name}" for module, name in defined
                  if not any(n == name and o != (module, name) for n, o in used))


def _readme_code():
    """The inline code spans and fenced code blocks of README.md, joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))


def _exported():
    """The names ``semih1/__init__.py`` imports, so exports."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for top in init.body
            if isinstance(top, ast.ImportFrom) for alias in top.names}


def test_every_private_helper_is_referenced():
    defined, used = _package()
    private = [d for d in defined if _is_private(d[1])]
    assert len(private) > 50
    dead = _unread(private, used)
    assert not dead, dead


def test_every_public_function_is_read_exported_or_benchmarked():
    defined, used = _package()
    public = [d for d in defined if not d[1].startswith("_")]
    benched = {name for path in sorted(BENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if (name := _read(node)) is not None}
    assert len(public) > 100
    dead = _unread([d for d in public if d[1] not in _exported() | benched], used)
    assert not dead, dead


def test_every_public_method_is_read_benchmarked_or_named_in_the_readme():
    methods, loads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads += [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
        methods += [(f"{path.name}:{top.name}.{node.name}", node) for top in tree.body
                    if isinstance(top, ast.ClassDef) and not top.name.startswith("_")
                    for node in top.body
                    if isinstance(node, DEFS[:2]) and not node.name.startswith("_")]
    benched = {node.attr for path in sorted(BENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    named = set(re.findall(r"\.(\w+)", _readme_code()))
    assert len(methods) > 20
    dead = []
    for where, method in methods:
        own = {id(node) for node in ast.walk(method)}
        if not (method.name in benched | named
                or any(node.attr == method.name and id(node) not in own for node in loads)):
            dead.append(where)
    assert not dead, dead


def test_every_exported_name_is_named_in_the_readme():
    named = set(re.findall(r"\w+", _readme_code()))
    exported = _exported()
    assert len(exported) > 40
    assert not exported - named, sorted(exported - named)


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
