"""Instance files: JSON definitions of algebras, modules, characters, jobs.

The format is sparse and exact: structure constants are lists of
``{"i", "j", "k", "c"}`` entries with 0-based indices and string rationals
matching ``-?[0-9]+(/[1-9][0-9]*)?`` (bare JSON integers are also
accepted).  Everything is validated before any job runs; jobs then execute
in order against a registry seeded with the definitions and extended by
``build`` jobs.
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
    regular_action,
    validate_algebra,
    validate_character,
    validate_corner,
    validate_module,
    zero_vector,
)
from .errors import (
    ParseError,
    Semih1Error,
    UnresolvedReference,
    ValidationFailed,
)
from .linalg import Matrix, frac
from .products import (
    alpha_product,
    direct_product,
    module_extension,
    semidirect,
    theta_lau,
    triangular,
    unitization,
)
from .spaces import (
    c_space,
    derivation_space,
    hom_space,
    i_space,
    inner_space,
    inner_witness,
    r_space,
)
from .verify import RULES, hom_cap_z1u, split_blocks, verify_any

RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$")

BUILD_KINDS = ("semidirect", "direct", "module-extension", "triangular",
               "theta-lau", "unitization", "alpha")
JOB_CMDS = ("validate", "build", "z1", "n1", "h1", "hom", "spaces",
            "decompose", "inner-witness", "verify")
VERIFY_IDS = tuple(RULES)


class InstanceFile:
    """Parsed and fully validated definitions plus the job list."""

    def __init__(self, algebras, modules, corners, characters, jobs):
        self.algebras = algebras
        self.modules = modules      # name -> (ModuleAlgebra, over-name)
        self.corners = corners      # name -> (CornerModule, over-a, over-b)
        self.characters = characters  # name -> (Character, over-name)
        self.jobs = jobs


def _rat(value, where):
    if isinstance(value, int):
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


def _sparse_tensor(entries, shape, keys, where):
    d0, d1, d2 = shape
    tensor = [[zero_vector(d2) for _ in range(d1)] for _ in range(d0)]
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
            if not isinstance(idx, int) or not (0 <= idx < bound):
                raise ParseError(f"index {label}={idx!r} out of range [0,{bound})", here)
        tensor[a][b][c] += _rat(val, here)
    return tensor


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

    algebras = {}
    for pos, spec in enumerate(_named_list(doc, "algebras")):
        here = f"algebras[{pos}]"
        _expect(spec, dict, here)
        name = _expect(spec.get("name"), str, f"{here}.name")
        if name in algebras:
            raise ParseError(f"duplicate algebra {name!r}", here)
        dim = spec.get("dim")
        if not isinstance(dim, int) or dim < 0:
            raise ParseError("dim must be a nonnegative integer", f"{here}.dim")
        mult = _sparse_tensor(spec.get("mult", []), (dim, dim, dim),
                              ("i", "j", "k"), f"{here}.mult")
        alg = Algebra(name, dim, mult)
        report = validate_algebra(alg)
        if not report.ok:
            raise ValidationFailed(f"algebra {name!r}: " + report.describe(), report)
        algebras[name] = alg

    characters = {}
    for pos, spec in enumerate(_named_list(doc, "characters")):
        here = f"characters[{pos}]"
        _expect(spec, dict, here)
        name = _expect(spec.get("name"), str, f"{here}.name")
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
        if name in characters:
            raise ParseError(f"duplicate character {name!r}", here)
        characters[name] = (char, over)

    modules = {}
    corners = {}
    for pos, spec in enumerate(_named_list(doc, "modules")):
        here = f"modules[{pos}]"
        _expect(spec, dict, here)
        name = _expect(spec.get("name"), str, f"{here}.name")
        if name in modules or name in corners or name in algebras:
            raise ParseError(f"duplicate name {name!r}", here)
        over = _expect(spec.get("over"), str, f"{here}.over")
        if over not in algebras:
            raise UnresolvedReference(f"{here}: unknown algebra {over!r}")
        dim = spec.get("dim")
        if not isinstance(dim, int) or dim < 0:
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
            corner = CornerModule(a.dim, b.dim, dim, left, right)
            report = validate_corner(corner, a, b)
            if not report.ok:
                raise ValidationFailed(f"module {name!r}: " + report.describe(), report)
            corners[name] = (corner, over, right_over)
            continue
        mult = _sparse_tensor(spec.get("mult", []), (dim, dim, dim),
                              ("i", "j", "k"), f"{here}.mult")
        left = _sparse_tensor(spec.get("left", []), (a.dim, dim, dim),
                              ("i", "p", "q"), f"{here}.left")
        right = _sparse_tensor(spec.get("right", []), (dim, a.dim, dim),
                               ("p", "i", "q"), f"{here}.right")
        ualg = Algebra(name, dim, mult)
        report = validate_algebra(ualg)
        if not report.ok:
            raise ValidationFailed(f"module {name!r}: " + report.describe(), report)
        mod = ModuleAlgebra(ualg, BimoduleAction(a.dim, dim, left, right))
        report = validate_module(mod, a)
        if not report.ok:
            raise ValidationFailed(f"module {name!r}: " + report.describe(), report)
        modules[name] = (mod, over)

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

def _subspace_rows(space):
    return [[str(x) for x in row] for row in space.basis.data]


def _matrix_rows(m):
    return [[str(x) for x in row] for row in m.data]


class _Registry:
    def __init__(self, inst: InstanceFile):
        self.inst = inst
        self.products = {}

    def algebra(self, name):
        if name in self.inst.algebras:
            return self.inst.algebras[name]
        if name in self.products:
            return self.products[name].total
        raise UnresolvedReference(f"no algebra named {name!r}")

    def module(self, name):
        if name in self.inst.modules:
            return self.inst.modules[name]
        raise UnresolvedReference(f"no module named {name!r}")

    def corner(self, name):
        if name in self.inst.corners:
            return self.inst.corners[name]
        raise UnresolvedReference(f"no corner module named {name!r}")

    def character(self, name):
        if name in self.inst.characters:
            return self.inst.characters[name]
        raise UnresolvedReference(f"no character named {name!r}")

    def product(self, name):
        if name in self.products:
            return self.products[name]
        raise UnresolvedReference(f"no built product named {name!r}")

    def kind_of(self, name):
        if name in self.products:
            return "product"
        if name in self.inst.algebras:
            return "algebra"
        if name in self.inst.modules:
            return "module"
        if name in self.inst.corners:
            return "corner"
        if name in self.inst.characters:
            return "character"
        raise UnresolvedReference(f"unknown name {name!r}")


def _pair_spaces(reg, args, where):
    """Resolve (algebra, action) for z1/n1/h1 style jobs."""
    if len(args) == 1:
        name = args[0]
        if reg.kind_of(name) == "product":
            total = reg.product(name).total
            return total, regular_action(total)
        alg = reg.algebra(name)
        return alg, regular_action(alg)
    if len(args) == 2:
        alg = reg.algebra(args[0])
        mod, over = reg.module(args[1])
        if over != args[0]:
            raise UnresolvedReference(f"{where}: module {args[1]!r} is over {over!r}")
        return alg, mod.action
    raise ParseError("expected [name] or [algebra, module]", where)


def _run_build(reg, job):
    kind = job["kind"]
    args = job["args"]
    name = job["name"]

    def module_over(alg_name, mod_name):
        mod, over = reg.module(mod_name)
        if over != alg_name:
            raise UnresolvedReference(f"module {mod_name!r} is over {over!r}, not {alg_name!r}")
        return mod

    if kind == "semidirect":
        a = reg.algebra(args[0])
        prod = semidirect(a, module_over(args[0], args[1]), name=name)
    elif kind == "direct":
        prod = direct_product(reg.algebra(args[0]), reg.algebra(args[1]), name=name)
    elif kind == "module-extension":
        a = reg.algebra(args[0])
        prod = module_extension(a, module_over(args[0], args[1]).action,
                                u_name=args[1], name=name)
    elif kind == "triangular":
        corner, over_a, over_b = reg.corner(args[2])
        if (over_a, over_b) != (args[0], args[1]):
            raise UnresolvedReference(
                f"corner {args[2]!r} is over ({over_a!r}, {over_b!r})")
        prod = triangular(reg.algebra(args[0]), reg.algebra(args[1]), corner, name=name)
    elif kind == "theta-lau":
        char, over = reg.character(args[2])
        if over != args[0]:
            raise UnresolvedReference(f"character {args[2]!r} is over {over!r}")
        prod = theta_lau(reg.algebra(args[0]), reg.algebra(args[1]), char, name=name)
    elif kind == "unitization":
        prod = unitization(reg.algebra(args[0]), name=name)
    else:
        alpha = _matrix_arg(args[2], "alpha")
        prod = alpha_product(reg.algebra(args[0]), reg.algebra(args[1]), alpha, name=name)
    reg.products[name] = prod
    return {"name": name, "kind": kind, "dim": prod.dim, "n": prod.n, "m": prod.m}


def _job_map(job, expected_shape=None):
    if job.get("map") is None:
        raise ParseError("this job needs a 'map' matrix", job.get("cmd", "?"))
    m = _matrix_arg(job["map"], "map")
    if expected_shape is not None and (m.rows, m.cols) != expected_shape:
        raise ParseError(f"map must be {expected_shape[0]}x{expected_shape[1]}", "map")
    return m


def run_job(reg: _Registry, job):
    cmd = job["cmd"]
    args = job.get("args", [])
    if cmd == "validate":
        name = args[0]
        kind = reg.kind_of(name)
        dims = {"algebra": lambda: reg.algebra(name).dim,
                "module": lambda: reg.module(name)[0].dim,
                "corner": lambda: reg.corner(name)[0].dim,
                "character": lambda: reg.character(name)[0].base.dim,
                "product": lambda: reg.product(name).dim}[kind]()
        return {"name": name, "kind": kind, "valid": True, "dim": dims}
    if cmd == "build":
        return _run_build(reg, job)
    if cmd == "z1":
        alg, act = _pair_spaces(reg, args, "z1")
        space = derivation_space(alg, act)
        return {"dim": space.dim, "source_dim": space.source_dim,
                "target_dim": space.target_dim, "basis": _subspace_rows(space.space)}
    if cmd == "n1":
        alg, act = _pair_spaces(reg, args, "n1")
        space = inner_space(alg, act)
        return {"dim": space.dim, "source_dim": space.source_dim,
                "target_dim": space.target_dim, "basis": _subspace_rows(space.space)}
    if cmd == "h1":
        alg, act = _pair_spaces(reg, args, "h1")
        z = derivation_space(alg, act)
        nn = inner_space(alg, act)
        return {"h1_dim": z.dim - nn.dim, "z1_dim": z.dim, "n1_dim": nn.dim}
    if cmd == "hom":
        alg = reg.algebra(args[0])
        mod_u, over_u = reg.module(args[1])
        if over_u != args[0]:
            raise UnresolvedReference(f"module {args[1]!r} is over {over_u!r}")
        if len(args) == 3:
            mod_v, over_v = reg.module(args[2])
            if over_v != args[0]:
                raise UnresolvedReference(f"module {args[2]!r} is over {over_v!r}")
            space = hom_space(alg, mod_u.action, mod_v.action)
        else:
            space = hom_space(alg, mod_u.action, mod_u.action)
        return {"dim": space.dim, "source_dim": space.source_dim,
                "target_dim": space.target_dim, "basis": _subspace_rows(space.space)}
    if cmd == "spaces":
        name = args[0]
        if reg.kind_of(name) == "product":
            prod = reg.product(name)
            a, u = prod.part_a, prod.part_u
            homz1 = hom_cap_z1u(prod)
        else:
            a = reg.algebra(args[0])
            mod, over = reg.module(args[1])
            if over != args[0]:
                raise UnresolvedReference(f"module {args[1]!r} is over {over!r}")
            u = mod
            prod = semidirect(a, u)
            homz1 = hom_cap_z1u(prod)
        return {
            "r_dim": r_space(a, u).dim,
            "c_dim": c_space(a, u).dim,
            "i_dim": i_space(a, u).dim,
            "hom_dim": hom_space(a, u.action, u.action).dim,
            "hom_cap_z1_dim": homz1.dim,
        }
    if cmd == "decompose":
        prod = reg.product(args[0])
        d = _job_map(job, (prod.dim, prod.dim))
        bd = split_blocks(d, prod)
        return {
            "is_derivation": bd.ok,
            "conditions": {k: (list(w) if isinstance(w, tuple) else w)
                           for k, w in bd.conditions.items()},
            "blocks": {
                "delta1": _matrix_rows(bd.delta1),
                "delta2": _matrix_rows(bd.delta2),
                "tau1": _matrix_rows(bd.tau1),
                "tau2": _matrix_rows(bd.tau2),
            },
        }
    if cmd == "inner-witness":
        if len(args) == 1 or (len(args) == 2 and not isinstance(args[1], str)):
            prod = reg.product(args[0])
            alg, act = prod.total, regular_action(prod.total)
            d = _job_map(job, (prod.dim, prod.dim))
        else:
            alg = reg.algebra(args[0])
            mod, over = reg.module(args[1])
            if over != args[0]:
                raise UnresolvedReference(f"module {args[1]!r} is over {over!r}")
            act = mod.action
            d = _job_map(job, (alg.dim, act.module_dim))
        witness = inner_witness(d, alg, act)
        return {"inner": witness is not None,
                "witness": None if witness is None else [str(x) for x in witness]}
    if cmd == "verify":
        prod = reg.product(args[0])
        report = verify_any(job["id"], prod)
        return report.as_dict()
    raise ParseError(f"unknown cmd {cmd!r}", "jobs")


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
