"""Instance files: JSON definitions of algebras, modules, characters, jobs.

The format is sparse and exact: structure constants are lists of
``{"i", "j", "k", "c"}`` entries with 0-based indices and string rationals
matching ``-?[0-9]+(/[1-9][0-9]*)?`` (bare JSON integers are also accepted),
each distinct string parsed once per tensor.  Entries on one index triple add
up, a sum of zero being no entry, and parse straight into the slices of
:mod:`.algebra`: one cell per index pair, never one per triple.  Every
definition is validated once, at parse; jobs then execute in order against a
registry seeded with the definitions and extended by ``build`` jobs.  Each
command is one row of ``JOBS`` and each build kind one of ``BUILDS``:
argument signatures, a handler and, for a command, its line in the text
report; builds share the ``ok k=v ...`` line of ``validate``.  A job that
fits no signature is a ``ParseError`` job error.  Builds call the
``products`` constructors; a ``semidirect``, ``module-extension`` or
``triangular`` build, and a ``spaces`` job on an (algebra, module) pair,
call the trusted ``_semidirect``, ``_module_extension`` or ``_triangular``
on a module or corner that parsing validated, so it is not checked again.
The ``z1``, ``n1``, ``h1``, ``spaces`` and two-argument ``hom`` jobs read the
spaces kept by what they are of: a built product's total the product's rows
(``verify.space``), an algebra and a module the entries their actions and
modules keep (``verify._factor_space`` and ``verify._factor_rows``), which a
built A x| U reads too.  So each space a file's jobs read is solved once;
``hom`` into a second module is solved at each job.
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
from .errors import (
    ParseError,
    Semih1Error,
    UnresolvedReference,
    ValidationFailed,
)
from .linalg import Matrix, frac
from .products import (
    _module_extension,
    _semidirect,
    _triangular,
    alpha_product,
    direct_product,
    theta_lau,
    unitization,
)
from .spaces import _h1_of, hom_space, inner_witness
from .verify import RULES, _factor_rows, _factor_space, space, split_blocks, verify_any

RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")

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
        if not RATIONAL_RE.fullmatch(value):
            raise ParseError(f"bad rational {value!r}", where)
        try:
            return frac(value)
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"bad rational: {exc}", where)
    raise ParseError(f"expected a rational string, got {type(value).__name__}", where)


def _expect(obj, typ, where):
    if not isinstance(obj, typ):
        raise ParseError(f"expected {typ.__name__}, got {type(obj).__name__}", where)
    return obj


def _entries(doc, section, keys, tables):
    """(where, entry, name) per entry of ``section``: a dict of a name and ``keys``, named afresh."""
    for pos, spec in enumerate(_expect(doc.get(section, []), list, section)):
        here = f"{section}[{pos}]"
        _expect(spec, dict, here)
        for k in spec:
            if k not in ("name", *keys):
                raise ParseError(f"unknown key {k!r}", here)
        name = _expect(spec.get("name"), str, f"{here}.name")
        if not name:
            raise ParseError("name must not be empty", f"{here}.name")
        if any(name in table for table in tables):
            raise ParseError(f"duplicate name {name!r}", here)
        yield here, spec, name


def _entry_defect(entry, shape, keys, here):
    """Raise a ParseError for the first defect of a sparse entry that has one.

    Defects come in this order: not a dict; an unknown key, in entry order;
    a missing key, in the order of ``keys`` then ``c``; an index out of
    range, in key order.  The value is parsed by the caller.
    """
    _expect(entry, dict, here)
    for k in entry:
        if k not in (*keys, "c"):
            raise ParseError(f"unknown key {k!r}", here)
    for k in (*keys, "c"):
        if k not in entry:
            raise ParseError(f"missing key {k!r}", here)
    for k, bound in zip(keys, shape):
        if type(entry[k]) is not int or not (0 <= entry[k] < bound):
            raise ParseError(f"index {k}={entry[k]!r} out of range [0,{bound})", here)


def _sparse_tensor(entries, shape, keys, where):
    """The d0 x d1 grid of slices of a list of sparse entries.

    An entry whose keys are exactly ``keys`` and ``c``, with int indices in
    range, goes straight to its cell; any other has a defect, which
    :func:`_entry_defect` raises.
    """
    d0, d1, d2 = shape
    ki, kj, kk = keys
    fields = {*keys, "c"}
    cells, parsed = {}, {}
    _expect(entries, list, where)
    for pos, entry in enumerate(entries):
        a = b = c = None
        if type(entry) is dict and entry.keys() == fields:
            a, b, c = entry[ki], entry[kj], entry[kk]
        if not (type(a) is int and type(b) is int and type(c) is int
                and 0 <= a < d0 and 0 <= b < d1 and 0 <= c < d2):
            _entry_defect(entry, shape, keys, f"{where}[{pos}]")
        val = entry["c"]
        # True == 1: only str values share a parse
        x = parsed.get(val) if type(val) is str else _rat(val, f"{where}[{pos}]")
        if x is None:
            x = parsed[val] = _rat(val, f"{where}[{pos}]")
        cell = cells.setdefault((a, b), {})
        cell[c] = cell[c] + x if c in cell else x
    grid = [[()] * d1 for _ in range(d0)]
    for (a, b), cell in cells.items():
        grid[a][b] = tuple(sorted((k, x) for k, x in cell.items() if x))
    return grid


def _matrix_arg(value, where) -> Matrix:
    _expect(value, list, where)
    rows = []
    for i, row in enumerate(value):
        _expect(row, list, f"{where}[{i}]")
        rows.append([_rat(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
        if len(row) != len(rows[0]):
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
    except ValueError as exc:  # an integer with more digits than int() converts
        raise ParseError(f"invalid JSON: {exc}", where)
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise ParseError("invalid JSON: nested too deeply", where)
    _expect(doc, dict, where)
    for key in doc:
        if key not in ("algebras", "modules", "characters", "jobs"):
            raise ParseError(f"unknown top-level key {key!r}", where)

    algebras, characters, modules, corners = tables = {}, {}, {}, {}

    def algebra_named(spec, key, here):
        over = _expect(spec.get(key), str, f"{here}.{key}")
        if over not in algebras:
            raise UnresolvedReference(f"{here}: unknown algebra {over!r}")
        return over

    def dim_of(spec, here):
        dim = spec.get("dim")
        if type(dim) is not int or dim < 0:
            raise ParseError("dim must be a nonnegative integer", f"{here}.dim")
        return dim

    def passed(report, what):
        if not report.ok:
            raise ValidationFailed(f"{what}: " + report.describe(), report)

    for here, spec, name in _entries(doc, "algebras", ("dim", "mult"), tables):
        dim = dim_of(spec, here)
        mult = _sparse_tensor(spec.get("mult", []), (dim, dim, dim),
                              ("i", "j", "k"), f"{here}.mult")
        alg = _from_slices(Algebra, name, dim, mult)
        passed(validate_algebra(alg), f"algebra {name!r}")
        algebras[name] = alg

    for here, spec, name in _entries(doc, "characters", ("over", "values"), tables):
        over = algebra_named(spec, "over", here)
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
        over = algebra_named(spec, "over", here)
        dim = dim_of(spec, here)
        a = algebras[over]
        if spec.get("right_over") is not None:
            # an (A,B)-module for triangular builds: left action of A,
            # right action of B, no multiplication of its own
            right_over = algebra_named(spec, "right_over", here)
            if spec.get("mult"):
                raise ParseError("corner modules carry no multiplication", f"{here}.mult")
            b = algebras[right_over]
            left = _sparse_tensor(spec.get("left", []), (a.dim, dim, dim),
                                  ("i", "p", "q"), f"{here}.left")
            right = _sparse_tensor(spec.get("right", []), (dim, b.dim, dim),
                                   ("p", "i", "q"), f"{here}.right")
            corner = _from_slices(CornerModule, a.dim, b.dim, dim, left, right)
            passed(validate_corner(corner, a, b), f"module {name!r}")
            corners[name] = (corner, (over, right_over))
            continue
        mult = _sparse_tensor(spec.get("mult", []), (dim, dim, dim),
                              ("i", "j", "k"), f"{here}.mult")
        left = _sparse_tensor(spec.get("left", []), (a.dim, dim, dim),
                              ("i", "p", "q"), f"{here}.left")
        right = _sparse_tensor(spec.get("right", []), (dim, a.dim, dim),
                               ("p", "i", "q"), f"{here}.right")
        ualg = _from_slices(Algebra, name, dim, mult)
        passed(validate_algebra(ualg), f"module {name!r}")
        mod = ModuleAlgebra(ualg, _from_slices(BimoduleAction, a.dim, dim, left, right))
        passed(validate_module(mod, a), f"module {name!r}")
        modules[name] = (mod, (over,))

    jobs = []
    known = set(algebras) | set(modules) | set(corners) | set(characters)
    for pos, job in enumerate(_expect(doc.get("jobs", []), list, "jobs")):
        here = f"jobs[{pos}]"
        _expect(job, dict, here)
        cmd = job.get("cmd")
        if cmd not in JOB_CMDS:
            raise ParseError(f"unknown cmd {cmd!r}", here)
        args = _expect(job.get("args", []), list, f"{here}.args")
        for k in job:
            if k not in ("cmd", "args", *_JOB_KEYS.get(cmd, ())):
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
        raise ParseError(exc.strerror or str(exc), str(path)) from None
    except UnicodeDecodeError:
        raise ParseError("not UTF-8 text", str(path)) from None
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


def _space(space, source_dim, target_dim):
    """The report of a space of maps source -> target, flattened row-major.

    Each basis row is written from its sparse form: "0" but at its nonzero columns.
    """
    basis = []
    for row in space.rows:
        out = ["0"] * space.ambient
        for j, x in row:
            out[j] = str(x)
        basis.append(out)
    return {"dim": space.dim, "source_dim": source_dim, "target_dim": target_dim,
            "basis": basis}


def _validate(reg, job, named):
    kind, value = named
    dim = value.base.dim if kind == "character" else value.dim
    return {"name": job["args"][0], "kind": kind, "valid": True, "dim": dim}


def _part(reg, job, a, u):
    """(kind -> Z1 or N1, what they are of) of A into U, or into A.

    A built product's total reads the rows the product keeps; any other
    algebra the entries the action, its own or U's, keeps for it.
    """
    built = reg.tables["product"].get(job["args"][0])
    if built is not None:
        return (lambda kind: space(built[0], f"{kind}_total")), "the product"
    act = regular_action(a) if u is None else u.action
    return (lambda kind: _factor_space(a, act, kind)), "A" if u is None else "(A,U)"


def _maps(reg, job, a, u=None):
    """The report of the job's space, Z1 or N1 as its ``cmd`` says, of A into U or into A."""
    return _space(_part(reg, job, a, u)[0](job["cmd"]), a.dim, (u or a).dim)


def _cohomology(reg, job, a, u=None):
    """dim H1 of A into U, or into A, with the Z1 and N1 dims it is the checked difference of."""
    read, what = _part(reg, job, a, u)
    z1, n1 = read("z1"), read("n1")
    return {"h1_dim": _h1_of(z1, n1, what), "z1_dim": z1.dim, "n1_dim": n1.dim}


def _spaces(reg, job, a, u=None):
    a, u = (a.part_a, a.part_u) if u is None else (a, u)
    return {"r_dim": _factor_rows(a, u, "r").dim, "c_dim": _factor_rows(a, u, "c").dim,
            "i_dim": _factor_rows(a, u, "i").dim, "hom_dim": _factor_rows(a, u, "hom_u").dim,
            "hom_cap_z1_dim": _factor_rows(a, u, "hom_cap_z1u").dim}


def _hom(reg, job, a, u, v=None):
    """Hom_A(U, V); Hom_A(U) is the entry U's action keeps for A."""
    hom = _factor_space(a, u.action, "hom") if v is None else hom_space(a, u.action, v.action)
    return _space(hom, u.dim, (v or u).dim)


def _decompose(reg, job, prod):
    bd = split_blocks(_job_map(job, (prod.dim, prod.dim)), prod)
    return {
        "is_derivation": bd.ok,
        "conditions": {k: (list(w) if isinstance(w, tuple) else w)
                       for k, w in bd.conditions.items()},
        "blocks": {k: _matrix_rows(getattr(bd, k)) for k in ("delta1", "delta2", "tau1", "tau2")},
    }


def _inner_witness(reg, job, a, u=None):
    a, act = (a.total, regular_action(a.total)) if u is None else (a, u.action)
    witness = inner_witness(_job_map(job, (a.dim, act.module_dim)), a, act)
    return {"inner": witness is not None,
            "witness": None if witness is None else [str(x) for x in witness]}


def _fields(result):
    return " ".join(f"{k}={v}" for k, v in sorted(result.items()) if isinstance(v, (int, str)))


def _ok(result):
    return "ok " + _fields(result)


def _dim(result):
    return f"dim={result['dim']}"


def _verdict(result):
    text = result["verdict"]
    if result["lhs_dim"] is not None:
        text += f" lhs={result['lhs_dim']} rhs={result['rhs_dim']}"
    gates = [h["name"] for h in result["hypotheses"] if not h["holds"]]
    return text + (" failed-gates: " + "; ".join(gates) if gates else "")


def _derivation(result):
    bad = {k: v for k, v in result["conditions"].items() if v is not None}
    return "derivation" if result["is_derivation"] else f"not a derivation {bad}"


# Rows are (argument signatures, handler, text line).  A command's handler
# takes the registry, the job and the resolved arguments, a build's the
# resolved arguments and the result name; a line takes a successful job's
# result and gives its text after the label, builds sharing ``_ok``.  Rows
# reach the layer functions through this module's globals.
_PAIR = (("algebra",), ("algebra", "module"))
JOBS = {
    "validate": ((("name",),), _validate, _ok),
    "z1": (_PAIR, _maps, _dim),
    "n1": (_PAIR, _maps, _dim),
    "h1": (_PAIR, _cohomology, lambda r: f"h1={r['h1_dim']} (z1={r['z1_dim']}, n1={r['n1_dim']})"),
    "hom": ((("algebra", "module"), ("algebra", "module", "module")), _hom, _dim),
    "spaces": ((("product",), ("algebra", "module")), _spaces, _fields),
    "decompose": ((("product",),), _decompose, _derivation),
    "inner-witness": ((("product",), ("algebra", "module")), _inner_witness,
                      lambda r: "inner" if r["inner"] else "not inner"),
    "verify": ((("product",),), lambda reg, job, prod: verify_any(job["id"], prod).as_dict(),
               _verdict),
}
BUILDS = {
    "semidirect": ((("algebra", "module"),), lambda a, u, name: _semidirect(a, u, name)),
    "direct": ((("algebra", "algebra"),), lambda *v, name: direct_product(*v, name=name)),
    "module-extension": ((("algebra", "module"),),
                         lambda a, u, name: _module_extension(a, u.action, u.name, name)),
    "triangular": ((("algebra", "algebra", "corner"),),
                   lambda *v, name: _triangular(*v, name=name)),
    "theta-lau": ((("algebra", "algebra", "character"),),
                  lambda *v, name: theta_lau(*v, name=name)),
    "unitization": ((("algebra",),), lambda *v, name: unitization(*v, name=name)),
    "alpha": ((("algebra", "algebra", "matrix"),), lambda *v, name: alpha_product(*v, name=name)),
}
JOB_CMDS = ("build", *JOBS)
# cmd -> the keys its jobs take besides ``cmd`` and ``args``
_JOB_KEYS = {"build": ("kind", "name"), "verify": ("id",), "decompose": ("map",),
             "inner-witness": ("map",)}
BUILD_KINDS = tuple(BUILDS)


def run_job(reg: _Registry, job):
    """Run one job: its table row's handler on its resolved arguments."""
    cmd, args = job["cmd"], job.get("args", [])
    if cmd != "build":
        signatures, handler, _ = JOBS[cmd]
        return handler(reg, job, *_resolve(reg, cmd, signatures, args))
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


def _definitions(algebras, modules, corners, characters):
    return (f"{len(algebras)} algebra(s), {len(modules)} module(s), "
            f"{len(corners)} corner(s), {len(characters)} character(s)")


def render_text(doc):
    """Human-readable rendering of a report document: one line per job, from its row."""
    lines = [f"semih1 {doc['version']} report",
             "definitions: " + _definitions(**doc["definitions"])]
    for entry in doc["jobs"]:
        job = entry["job"]
        words = [str(job[k]) for k in ("cmd", "kind", "id") if job.get(k)]
        words += [a if isinstance(a, str) else "<matrix>" for a in job.get("args", [])]
        label = " ".join(words)
        if entry["status"] == "error":
            err = entry["error"]
            text = f"ERROR {err['type']}: {err['message']}"
        else:
            line = JOBS[job["cmd"]][2] if job["cmd"] in JOBS else _ok
            text = line(entry["result"])
        lines.append(f"[{entry['index']}] {label}: {text}")
    lines.append(f"mismatches={doc['mismatches']} errors={doc['errors']} "
                 f"ok={str(doc['ok']).lower()}")
    return "\n".join(lines) + "\n"
