"""Instance files: JSON definitions of algebras, modules, characters, jobs.

The format is sparse and exact: structure constants are lists of
``{"i", "j", "k", "c"}`` entries with 0-based indices and string rationals
matching ``-?[0-9]+(/[1-9][0-9]*)?`` (bare JSON integers are also
accepted).  Entries on one index triple add up, a sum of zero being no
entry, and parse straight into the slices of :mod:`.algebra`: one cell per
index pair, never one per triple.  Every definition is validated once, at
parse; jobs then execute in order against a registry seeded with the
definitions and extended by ``build`` jobs.  Each command is one row of
``JOBS`` and each build kind one of ``BUILDS``: argument signatures and a
handler.  A job that fits no signature is a ``ParseError`` job error.
Builds call the ``products`` constructors, which skip the checks that a
valid definition implies; a ``semidirect``, ``module-extension`` or
``triangular`` build, and a ``spaces`` job on an (algebra, module) pair,
assemble the product from a module or corner that parsing validated,
without validating it again.
"""

import json
import re

from . import __version__
from .algebra import (
    Algebra,
    BimoduleAction,
    Character,
    CornerModule,
    ModuleAlgebra,
    _from_slices,
    regular_action,
    validate_algebra,
    validate_character,
    validate_corner,
    validate_module,
)
from .catalog import null_algebra
from .errors import (
    ParseError,
    Semih1Error,
    UnresolvedReference,
    ValidationFailed,
)
from .linalg import F0, Matrix, frac
from .products import (
    _assemble,
    _triangular,
    alpha_product,
    direct_product,
    theta_lau,
    unitization,
)
from .spaces import _h1_of, derivation_space, hom_space, inner_space, inner_witness
from .verify import RULES, space, split_blocks, verify_any

RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$")

VERIFY_IDS = tuple(RULES)


class InstanceFile:
    """Parsed and fully validated definitions plus the job list."""

    def __init__(self, algebras, modules, corners, characters, jobs):
        self.algebras = algebras
        self.modules = modules      # name -> (ModuleAlgebra, (over,))
        self.corners = corners      # name -> (CornerModule, (over-a, over-b))
        self.characters = characters  # name -> (Character, (over,))
        self.jobs = jobs


def _rat(value, where):
    if type(value) is int:  # a JSON true or false is no number
        return frac(value)
    if isinstance(value, str):
        if not RATIONAL_RE.match(value):
            raise ParseError(f"bad rational {value!r}", where)
        return frac(value)
    raise ParseError(f"expected a rational string, got {type(value).__name__}", where)


def _expect(obj, typ, where):
    if not isinstance(obj, typ):
        raise ParseError(f"expected {typ.__name__}, got {type(obj).__name__}", where)
    return obj


def _named_list(doc, key):
    items = doc.get(key, [])
    _expect(items, list, key)
    return items


def _entries(doc, section, keys, tables):
    """(where, entry, name) per entry of ``section``: a dict of a name and ``keys``, named afresh."""
    for pos, spec in enumerate(_named_list(doc, section)):
        here = f"{section}[{pos}]"
        _expect(spec, dict, here)
        for k in spec:
            if k not in ("name", *keys):
                raise ParseError(f"unknown key {k!r}", here)
        name = _expect(spec.get("name"), str, f"{here}.name")
        if any(name in table for table in tables):
            raise ParseError(f"duplicate name {name!r}", here)
        yield here, spec, name


def _sparse_tensor(entries, shape, keys, where):
    """The d0 x d1 grid of slices of a list of sparse entries."""
    d0, d1, d2 = shape
    cells = {}
    _expect(entries, list, where)
    for pos, entry in enumerate(entries):
        _expect(entry, dict, f"{where}[{pos}]")
        here = f"{where}[{pos}]"
        for k in entry:
            if k not in (*keys, "c"):
                raise ParseError(f"unknown key {k!r}", here)
        try:
            a, b, c = (entry[k] for k in keys)
            val = entry["c"]
        except KeyError as missing:
            raise ParseError(f"missing key {missing}", here)
        for idx, bound, label in ((a, d0, keys[0]), (b, d1, keys[1]), (c, d2, keys[2])):
            if type(idx) is not int or not (0 <= idx < bound):
                raise ParseError(f"index {label}={idx!r} out of range [0,{bound})", here)
        cell = cells.setdefault((a, b), {})
        cell[c] = cell.get(c, F0) + _rat(val, here)
    grid = [[()] * d1 for _ in range(d0)]
    for (a, b), cell in cells.items():
        grid[a][b] = tuple(sorted((k, x) for k, x in cell.items() if x))
    return grid


def _matrix_arg(value, where) -> Matrix:
    _expect(value, list, where)
    rows = []
    width = None
    for i, row in enumerate(value):
        _expect(row, list, f"{where}[{i}]")
        rows.append([_rat(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("ragged matrix", where)
    if not rows:
        raise ParseError("empty matrix", where)
    return Matrix.from_rows(rows)


def parse_instance_text(text, where="<input>") -> InstanceFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
                         where)
    _expect(doc, dict, where)
    for key in doc:
        if key not in ("algebras", "modules", "characters", "jobs"):
            raise ParseError(f"unknown top-level key {key!r}", where)

    algebras, characters, modules, corners = tables = {}, {}, {}, {}
    for here, spec, name in _entries(doc, "algebras", ("dim", "mult"), tables):
        dim = spec.get("dim")
        if type(dim) is not int or dim < 0:
            raise ParseError("dim must be a nonnegative integer", f"{here}.dim")
        mult = _sparse_tensor(spec.get("mult", []), (dim, dim, dim),
                              ("i", "j", "k"), f"{here}.mult")
        alg = _from_slices(Algebra, name, dim, mult)
        report = validate_algebra(alg)
        if not report.ok:
            raise ValidationFailed(f"algebra {name!r}: " + report.describe(), report)
        algebras[name] = alg

    for here, spec, name in _entries(doc, "characters", ("over", "values"), tables):
        over = _expect(spec.get("over"), str, f"{here}.over")
        if over not in algebras:
            raise UnresolvedReference(f"{here}: unknown algebra {over!r}")
        values = _expect(spec.get("values"), list, f"{here}.values")
        base = algebras[over]
        if len(values) != base.dim:
            raise ParseError(f"expected {base.dim} values", f"{here}.values")
        char = Character(base, [_rat(v, f"{here}.values[{i}]") for i, v in enumerate(values)])
        if not validate_character(char):
            raise ValidationFailed(f"character {name!r} is not a nonzero multiplicative functional")
        characters[name] = (char, (over,))

    for here, spec, name in _entries(doc, "modules", ("over", "right_over", "dim", "mult", "left",
                                                      "right"), tables):
        over = _expect(spec.get("over"), str, f"{here}.over")
        if over not in algebras:
            raise UnresolvedReference(f"{here}: unknown algebra {over!r}")
        dim = spec.get("dim")
        if type(dim) is not int or dim < 0:
            raise ParseError("dim must be a nonnegative integer", f"{here}.dim")
        a = algebras[over]
        right_over = spec.get("right_over")
        if right_over is not None:
            # an (A,B)-module for triangular builds: left action of A,
            # right action of B, no multiplication of its own
            right_over = _expect(right_over, str, f"{here}.right_over")
            if right_over not in algebras:
                raise UnresolvedReference(f"{here}: unknown algebra {right_over!r}")
            if spec.get("mult"):
                raise ParseError("corner modules carry no multiplication", f"{here}.mult")
            b = algebras[right_over]
            left = _sparse_tensor(spec.get("left", []), (a.dim, dim, dim),
                                  ("i", "p", "q"), f"{here}.left")
            right = _sparse_tensor(spec.get("right", []), (dim, b.dim, dim),
                                   ("p", "i", "q"), f"{here}.right")
            corner = _from_slices(CornerModule, a.dim, b.dim, dim, left, right)
            report = validate_corner(corner, a, b)
            if not report.ok:
                raise ValidationFailed(f"module {name!r}: " + report.describe(), report)
            corners[name] = (corner, (over, right_over))
            continue
        mult = _sparse_tensor(spec.get("mult", []), (dim, dim, dim),
                              ("i", "j", "k"), f"{here}.mult")
        left = _sparse_tensor(spec.get("left", []), (a.dim, dim, dim),
                              ("i", "p", "q"), f"{here}.left")
        right = _sparse_tensor(spec.get("right", []), (dim, a.dim, dim),
                               ("p", "i", "q"), f"{here}.right")
        ualg = _from_slices(Algebra, name, dim, mult)
        report = validate_algebra(ualg)
        if not report.ok:
            raise ValidationFailed(f"module {name!r}: " + report.describe(), report)
        mod = ModuleAlgebra(ualg, _from_slices(BimoduleAction, a.dim, dim, left, right))
        report = validate_module(mod, a)
        if not report.ok:
            raise ValidationFailed(f"module {name!r}: " + report.describe(), report)
        modules[name] = (mod, (over,))

    jobs = []
    known = set(algebras) | set(modules) | set(corners) | set(characters)
    for pos, job in enumerate(_named_list(doc, "jobs")):
        here = f"jobs[{pos}]"
        _expect(job, dict, here)
        cmd = job.get("cmd")
        if cmd not in JOB_CMDS:
            raise ParseError(f"unknown cmd {cmd!r}", here)
        args = job.get("args", [])
        _expect(args, list, f"{here}.args")
        for k in job:
            if k not in ("cmd", "args", "kind", "name", "id", "map"):
                raise ParseError(f"unknown key {k!r}", here)
        if cmd == "build":
            kind = job.get("kind")
            if kind not in BUILD_KINDS:
                raise ParseError(f"unknown build kind {kind!r}", here)
            target = job.get("name")
            if not isinstance(target, str) or not target:
                raise ParseError("build jobs need a result name", here)
            if target in known:
                raise ParseError(f"build result name {target!r} already in use", here)
        if cmd == "verify" and job.get("id") not in VERIFY_IDS:
            raise ParseError(f"unknown verify id {job.get('id')!r}", here)
        if job.get("map") is not None:
            _matrix_arg(job["map"], f"{here}.map")
        for i, arg in enumerate(args):
            if isinstance(arg, str):
                if arg not in known:
                    raise UnresolvedReference(f"{here}.args[{i}]: unknown name {arg!r}")
            elif isinstance(arg, list):
                _matrix_arg(arg, f"{here}.args[{i}]")
            else:
                raise ParseError("args must be names or matrices", f"{here}.args[{i}]")
        if cmd == "build":
            known.add(job["name"])
        jobs.append(job)
    return InstanceFile(algebras, modules, corners, characters, jobs)


def parse_instance(path) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), str(path))
    return parse_instance_text(text, where=str(path))


# ---------------------------------------------------------------------------
# job execution

def _matrix_rows(m):
    return [[str(x) for x in row] for row in m.data]


_MISSING = {"corner": "no corner module named", "product": "no built product named",
            "name": "unknown name"}


class _Registry:
    """Definitions and built products by kind, as name -> (value, over-names)."""

    def __init__(self, inst: InstanceFile):
        self.tables = {"product": {}, "algebra": {n: (a, ()) for n, a in inst.algebras.items()},
                       "module": inst.modules, "corner": inst.corners,
                       "character": inst.characters}

    def lookup(self, name, kind):
        """(kind found, value, over-names) of ``name`` in a ``kind`` slot.

        A ``name`` slot takes any kind; an ``algebra`` slot also a product's total.
        """
        for found in {"name": self.tables, "algebra": ("algebra", "product")}.get(kind, (kind,)):
            if name in self.tables[found]:
                value, overs = self.tables[found][name]
                total = (kind, found) == ("algebra", "product")
                return found, value.total if total else value, overs
        raise UnresolvedReference(f"{_MISSING.get(kind, f'no {kind} named')} {name!r}")


def _resolve(reg, cmd, signatures, args):
    """The values of ``args`` under the signature that fits them, else a ParseError.

    A module or character must be over the first algebra argument, a corner the first two.
    """
    sig = next((s for s in signatures if len(s) == len(args)), None)
    if sig is None or any((slot == "matrix") != isinstance(arg, list)
                          for slot, arg in zip(sig, args)):
        raise ParseError("expected " + " or ".join(f"[{', '.join(s)}]" for s in signatures),
                         cmd)
    values, algebras = [], []
    for slot, arg in zip(sig, args):
        if slot == "matrix":
            values.append(_matrix_arg(arg, cmd))
            continue
        found, value, overs = reg.lookup(arg, slot)
        want = tuple(algebras[:len(overs)])
        if slot == "name":
            value = found, value
        elif overs != want:
            raise UnresolvedReference(f"{found} {arg!r} is over {' and '.join(map(repr, overs))},"
                                      f" not {' and '.join(map(repr, want))}")
        elif slot == "algebra":
            algebras.append(arg)
        values.append(value)
    return values


def _job_map(job, expected_shape):
    if job.get("map") is None:
        raise ParseError("this job needs a 'map' matrix", job["cmd"])
    m = _matrix_arg(job["map"], "map")
    if (m.rows, m.cols) != expected_shape:
        raise ParseError(f"map must be {expected_shape[0]}x{expected_shape[1]}", "map")
    return m


def _action(a, u):
    return regular_action(a) if u is None else u.action


def _space(space, source_dim, target_dim):
    """The report of a space of maps source -> target, flattened row-major."""
    return {"dim": space.dim, "source_dim": source_dim,
            "target_dim": target_dim, "basis": _matrix_rows(space.basis)}


def _validate(job, named):
    kind, value = named
    dim = value.base.dim if kind == "character" else value.dim
    return {"name": job["args"][0], "kind": kind, "valid": True, "dim": dim}


def _h1(job, a, u=None):
    act = _action(a, u)
    z, nn = derivation_space(a, act), inner_space(a, act)
    return {"h1_dim": _h1_of(z, nn), "z1_dim": z.dim, "n1_dim": nn.dim}


def _spaces(job, a, u=None):
    prod = a if u is None else _assemble(a, u, f"sd({a.name},{u.name})", "semidirect")
    return {"r_dim": space(prod, "r").dim, "c_dim": space(prod, "c").dim,
            "i_dim": space(prod, "i").dim, "hom_dim": space(prod, "hom_u").dim,
            "hom_cap_z1_dim": space(prod, "hom_cap_z1u").dim}


def _decompose(job, prod):
    bd = split_blocks(_job_map(job, (prod.dim, prod.dim)), prod)
    return {
        "is_derivation": bd.ok,
        "conditions": {k: (list(w) if isinstance(w, tuple) else w)
                       for k, w in bd.conditions.items()},
        "blocks": {k: _matrix_rows(getattr(bd, k)) for k in ("delta1", "delta2", "tau1", "tau2")},
    }


def _inner_witness(job, a, u=None):
    a = a.total if u is None else a
    act = _action(a, u)
    witness = inner_witness(_job_map(job, (a.dim, act.module_dim)), a, act)
    return {"inner": witness is not None,
            "witness": None if witness is None else [str(x) for x in witness]}


# Rows are (argument signatures, handler).  A command's handler takes the job
# and the resolved arguments, a build's the resolved arguments and the result
# name.  Rows reach the layer functions through this module's globals.
_PAIR = (("algebra",), ("algebra", "module"))
JOBS = {
    "validate": ((("name",),), _validate),
    "z1": (_PAIR, lambda job, a, u=None: _space(derivation_space(a, _action(a, u)),
                                                a.dim, (u or a).dim)),
    "n1": (_PAIR, lambda job, a, u=None: _space(inner_space(a, _action(a, u)),
                                                a.dim, (u or a).dim)),
    "h1": (_PAIR, _h1),
    "hom": ((("algebra", "module"), ("algebra", "module", "module")),
            lambda job, a, u, v=None: _space(hom_space(a, u.action, (v or u).action),
                                             u.dim, (v or u).dim)),
    "spaces": ((("product",), ("algebra", "module")), _spaces),
    "decompose": ((("product",),), _decompose),
    "inner-witness": ((("product",), ("algebra", "module")), _inner_witness),
    "verify": ((("product",),), lambda job, prod: verify_any(job["id"], prod).as_dict()),
}
BUILDS = {
    "semidirect": ((("algebra", "module"),),
                   lambda a, u, name: _assemble(a, u, name, "semidirect")),
    "direct": ((("algebra", "algebra"),), lambda *v, name: direct_product(*v, name=name)),
    "module-extension": ((("algebra", "module"),),
                         lambda a, u, name: _assemble(
                             a, ModuleAlgebra(null_algebra(u.dim, u.name), u.action), name,
                             "module-extension")),
    "triangular": ((("algebra", "algebra", "corner"),),
                   lambda *v, name: _triangular(*v, name=name)),
    "theta-lau": ((("algebra", "algebra", "character"),),
                  lambda *v, name: theta_lau(*v, name=name)),
    "unitization": ((("algebra",),), lambda *v, name: unitization(*v, name=name)),
    "alpha": ((("algebra", "algebra", "matrix"),), lambda *v, name: alpha_product(*v, name=name)),
}
JOB_CMDS = ("build", *JOBS)
BUILD_KINDS = tuple(BUILDS)


def run_job(reg: _Registry, job):
    """Run one job: its table row's handler on its resolved arguments."""
    cmd, args = job["cmd"], job.get("args", [])
    if cmd != "build":
        signatures, handler = JOBS[cmd]
        return handler(job, *_resolve(reg, cmd, signatures, args))
    kind, name = job["kind"], job["name"]
    signatures, make = BUILDS[kind]
    prod = make(*_resolve(reg, f"build {kind}", signatures, args), name=name)
    reg.tables["product"][name] = (prod, ())
    return {"name": name, "kind": kind, "dim": prod.dim, "n": prod.n, "m": prod.m}


def run_jobs(inst: InstanceFile):
    """Execute all jobs in order; errors are collected, never aborting.

    Returns (report_document, exit_code): exit 3 when any verify verdict is
    MISMATCH, else 2 when any job errored, else 0.
    """
    reg = _Registry(inst)
    entries = []
    mismatches = 0
    errors = 0
    for index, job in enumerate(inst.jobs):
        entry = {"index": index, "job": job}
        try:
            result = run_job(reg, job)
            entry["status"] = "ok"
            entry["result"] = result
            if job["cmd"] == "verify" and result.get("verdict") == "MISMATCH":
                mismatches += 1
        except Semih1Error as exc:
            entry["status"] = "error"
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            errors += 1
        entries.append(entry)
    doc = {
        "tool": "semih1",
        "version": __version__,
        "definitions": {
            "algebras": sorted(inst.algebras),
            "modules": sorted(inst.modules),
            "corners": sorted(inst.corners),
            "characters": sorted(inst.characters),
        },
        "jobs": entries,
        "mismatches": mismatches,
        "errors": errors,
        "ok": mismatches == 0 and errors == 0,
    }
    code = 3 if mismatches else (2 if errors else 0)
    return doc, code


def render_text(doc):
    """Human-readable rendering of a report document."""
    lines = [f"semih1 {doc['version']} report"]
    defs = doc["definitions"]
    lines.append(
        "definitions: "
        f"{len(defs['algebras'])} algebra(s), {len(defs['modules'])} module(s), "
        f"{len(defs['corners'])} corner(s), {len(defs['characters'])} character(s)")
    for entry in doc["jobs"]:
        job = entry["job"]
        label = job["cmd"]
        if job.get("kind"):
            label += f" {job['kind']}"
        if job.get("id"):
            label += f" {job['id']}"
        if job.get("args"):
            label += " " + " ".join(a if isinstance(a, str) else "<matrix>"
                                    for a in job["args"])
        if entry["status"] == "error":
            err = entry["error"]
            lines.append(f"[{entry['index']}] {label}: ERROR {err['type']}: {err['message']}")
            continue
        result = entry["result"]
        if job["cmd"] == "verify":
            verdict = result["verdict"]
            extra = ""
            if result["lhs_dim"] is not None:
                extra = f" lhs={result['lhs_dim']} rhs={result['rhs_dim']}"
            gates = [h["name"] for h in result["hypotheses"] if not h["holds"]]
            if gates:
                extra += " failed-gates: " + "; ".join(gates)
            lines.append(f"[{entry['index']}] {label}: {verdict}{extra}")
        elif job["cmd"] == "h1":
            lines.append(f"[{entry['index']}] {label}: h1={result['h1_dim']} "
                         f"(z1={result['z1_dim']}, n1={result['n1_dim']})")
        elif job["cmd"] in ("z1", "n1", "hom"):
            lines.append(f"[{entry['index']}] {label}: dim={result['dim']}")
        elif job["cmd"] == "spaces":
            lines.append(f"[{entry['index']}] {label}: " +
                         " ".join(f"{k}={v}" for k, v in sorted(result.items())))
        elif job["cmd"] == "decompose":
            bad = {k: v for k, v in result["conditions"].items() if v is not None}
            verdict = "derivation" if result["is_derivation"] else f"not a derivation {bad}"
            lines.append(f"[{entry['index']}] {label}: {verdict}")
        elif job["cmd"] == "inner-witness":
            lines.append(f"[{entry['index']}] {label}: "
                         + ("inner" if result["inner"] else "not inner"))
        else:
            lines.append(f"[{entry['index']}] {label}: ok "
                         + " ".join(f"{k}={v}" for k, v in sorted(result.items())
                                    if isinstance(v, (int, str))))
    lines.append(f"mismatches={doc['mismatches']} errors={doc['errors']} "
                 f"ok={str(doc['ok']).lower()}")
    return "\n".join(lines) + "\n"
