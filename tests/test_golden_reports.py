"""Byte-for-byte pins of the reports of ``semih1 run``.

``tests/golden/<fixture>.json`` holds the output of
``semih1 run <fixture> --format json``.  Any change to a verdict, a
dimension, a canonical basis or a witness tuple shows up here as a diff.
``tests/golden/text/<fixture>.txt`` holds the text report of the same run.
``tests/golden/jobs/job_errors.json`` holds the JSON report of
``JOB_ERRORS``: one job per error path of the job runner, so any change to
an error's type or message shows up as a diff.  ``tests/golden/jobs/map_spaces.json``
holds the report of ``MAP_SPACES``: successful ``z1``, ``n1``, ``h1`` and
``hom`` jobs whose source and target dimensions differ, so a swapped shape
shows up as a diff.  ``tests/golden/jobs/zero_dim.json`` holds the report of
``ZERO_DIM``: every rule and a ``spaces`` job on each product with a
zero-dimensional factor.  ``tests/golden/jobs/failed_gates.txt`` holds the
text report of ``FAILED_GATES``: rules whose gates fail, one or two at once,
each failing gate named.  ``tests/golden/jobs/<name>.txt`` holds the text
report of ``JOB_ERRORS``, of ``MAP_SPACES`` and of ``TEXT_LINES``, so that
every shape of a text line is pinned: ``ERROR`` lines, ``hom`` lines,
``not a derivation {...}``, ``inner``, and ``validate`` of every kind.
``tests/golden/jobs/sheared_spaces.json`` holds the report of ``SHEARED``:
``z1``, ``n1`` and ``hom`` jobs on M3 + D, dimension 11, in a sheared
basis, so the space reports of a mid-size table with few nonzeros, the
shape of most instance files, are pinned too.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from semih1.catalog import change_basis_algebra, direct_sum_algebra, dual_numbers, matrix_algebra
from semih1.cli import main
from semih1.linalg import Matrix
from semih1.verify import RULES

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = sorted(entry.name for entry in (resources.files("semih1") / "fixtures").iterdir()
                  if entry.name.endswith(".json"))


def test_every_fixture_has_a_golden_report():
    assert FIXTURES == sorted(p.name for p in GOLDEN.glob("*.json"))
    assert len(FIXTURES) == 12


@pytest.mark.parametrize("name", FIXTURES)
def test_json_report_is_byte_identical(name, tmp_path):
    out = tmp_path / name
    with resources.as_file(resources.files("semih1") / "fixtures" / name) as path:
        assert main(["run", str(path), "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_text_report_is_byte_identical(name, tmp_path):
    out = tmp_path / name
    with resources.as_file(resources.files("semih1") / "fixtures" / name) as path:
        assert main(["run", str(path), "--out", str(out)]) == 0
    text = (GOLDEN / "text" / name).with_suffix(".txt")
    assert out.read_bytes() == text.read_bytes()


ONE = [{"i": 0, "j": 0, "k": 0, "c": "1"}]
IDENTITY = {"left": [{"i": 0, "p": 0, "q": 0, "c": "1"}],
            "right": [{"p": 0, "i": 0, "q": 0, "c": "1"}]}
JOB_ERRORS = {
    "algebras": [{"name": "Q", "dim": 1, "mult": ONE}, {"name": "N", "dim": 1},
                 {"name": "D", "dim": 2, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"},
                                                  {"i": 0, "j": 1, "k": 1, "c": "1"},
                                                  {"i": 1, "j": 0, "k": 1, "c": "1"}]}],
    "modules": [{"name": "R", "over": "Q", "dim": 1, "mult": ONE, **IDENTITY},
                {"name": "S", "over": "N", "dim": 1},
                {"name": "C", "over": "Q", "right_over": "N", "dim": 1,
                 "left": IDENTITY["left"]}],
    "characters": [{"name": "one", "over": "Q", "values": ["1"]},
                   {"name": "d0", "over": "D", "values": ["1", "0"]}],
    "jobs": [
        {"cmd": "build", "kind": "direct", "args": ["Q", "N"], "name": "P"},
        # a name of another kind, one per kind of slot
        {"cmd": "build", "kind": "direct", "args": ["Q", "R"], "name": "X0"},
        {"cmd": "build", "kind": "unitization", "args": ["R"], "name": "X1"},
        {"cmd": "build", "kind": "triangular", "args": ["Q", "N", "R"], "name": "X2"},
        {"cmd": "build", "kind": "theta-lau", "args": ["Q", "N", "N"], "name": "X3"},
        {"cmd": "validate", "args": ["X0"]},
        {"cmd": "h1", "args": ["R"]},
        {"cmd": "hom", "args": ["Q", "Q"]},
        {"cmd": "verify", "id": "4.4", "args": ["Q"]},
        {"cmd": "decompose", "args": ["Q"], "map": [["1"]]},
        # a module, corner or character over the wrong algebra
        {"cmd": "build", "kind": "semidirect", "args": ["N", "R"], "name": "X4"},
        {"cmd": "build", "kind": "module-extension", "args": ["N", "R"], "name": "X5"},
        {"cmd": "build", "kind": "triangular", "args": ["N", "Q", "C"], "name": "X6"},
        {"cmd": "build", "kind": "theta-lau", "args": ["D", "N", "one"], "name": "X7"},
        {"cmd": "z1", "args": ["N", "R"]},
        {"cmd": "n1", "args": ["N", "R"]},
        {"cmd": "h1", "args": ["N", "R"]},
        {"cmd": "hom", "args": ["N", "R"]},
        {"cmd": "hom", "args": ["Q", "R", "S"]},
        {"cmd": "spaces", "args": ["N", "R"]},
        {"cmd": "inner-witness", "args": ["N", "R"], "map": [["1"]]},
        # maps: missing, wrongly shaped, not a homomorphism
        {"cmd": "decompose", "args": ["P"]},
        {"cmd": "decompose", "args": ["P"], "map": [["1"]]},
        {"cmd": "inner-witness", "args": ["P"]},
        {"cmd": "inner-witness", "args": ["P"], "map": [["1"]]},
        {"cmd": "inner-witness", "args": ["Q", "R"], "map": [["1", "0"], ["0", "1"]]},
        {"cmd": "build", "kind": "alpha", "args": ["Q", "N", [["1"]]], "name": "X8"},
        {"cmd": "build", "kind": "alpha", "args": ["Q", "N", [["1", "0"]]], "name": "X9"},
        # a rule on the wrong construction
        {"cmd": "verify", "id": "5.4", "args": ["P"]},
        {"cmd": "verify", "id": "lau-der", "args": ["P"]},
        # arity errors that end in a job error
        {"cmd": "z1", "args": []},
        {"cmd": "h1", "args": ["Q", "R", "R"]},
    ],
}


DUAL = [{"i": 0, "j": 0, "k": 0, "c": "1"}, {"i": 0, "j": 1, "k": 1, "c": "1"},
        {"i": 1, "j": 0, "k": 1, "c": "1"}]
MAP_SPACES = {
    # D = Q[e]/(e^2); on U1, 1 acts as the identity and e as 0; V2 is D over itself
    "algebras": [{"name": "Q", "dim": 1, "mult": ONE}, {"name": "D", "dim": 2, "mult": DUAL}],
    "modules": [{"name": "R", "over": "Q", "dim": 1, **IDENTITY},
                {"name": "Z", "over": "Q", "dim": 0},
                {"name": "U1", "over": "D", "dim": 1, **IDENTITY},
                {"name": "V2", "over": "D", "dim": 2, "mult": DUAL,
                 "left": [{"i": e["i"], "p": e["j"], "q": e["k"], "c": "1"} for e in DUAL],
                 "right": [{"p": e["i"], "i": e["j"], "q": e["k"], "c": "1"} for e in DUAL]}],
    "jobs": [
        *({"cmd": cmd, "args": args} for args in (["D"], ["D", "U1"], ["D", "V2"], ["Q", "Z"])
          for cmd in ("z1", "n1", "h1")),
        {"cmd": "hom", "args": ["D", "U1"]},
        {"cmd": "hom", "args": ["D", "V2"]},
        {"cmd": "hom", "args": ["D", "U1", "V2"]},
        {"cmd": "hom", "args": ["D", "V2", "U1"]},
        {"cmd": "hom", "args": ["Q", "Z"]},
        {"cmd": "hom", "args": ["Q", "R", "Z"]},
        {"cmd": "hom", "args": ["Q", "Z", "R"]},
    ],
}


# Z has dimension 0; M is Q over Z, E the zero module over Q
_ZERO_PRODUCTS = (("direct", ["Z", "Q"]), ("direct", ["Q", "Z"]), ("direct", ["Z", "Z"]),
                  ("semidirect", ["Z", "M"]), ("semidirect", ["Q", "E"]),
                  ("module-extension", ["Q", "E"]), ("theta-lau", ["Q", "Z", "one"]),
                  ("unitization", ["Z"]), ("alpha", ["Q", "Z", [[]]]))
ZERO_DIM = {
    "algebras": [{"name": "Q", "dim": 1, "mult": ONE}, {"name": "Z", "dim": 0}],
    "modules": [{"name": "M", "over": "Z", "dim": 1, "mult": ONE},
                {"name": "E", "over": "Q", "dim": 0}],
    "characters": [{"name": "one", "over": "Q", "values": ["1"]}],
    "jobs": [
        *({"cmd": "build", "kind": kind, "args": args, "name": f"P{k}"}
          for k, (kind, args) in enumerate(_ZERO_PRODUCTS)),
        *({"cmd": "verify", "id": rule, "args": [f"P{k}"]}
          for k in range(len(_ZERO_PRODUCTS)) for rule in RULES),
        *({"cmd": "spaces", "args": [f"P{k}"]} for k in range(len(_ZERO_PRODUCTS))),
        {"cmd": "spaces", "args": ["Z", "M"]},
        {"cmd": "spaces", "args": ["Q", "E"]},
    ],
}


# P = D x Q and R = Q x D; S = D x| D and T = T(D, D); L scales D by d0; W = T(D, U1)
# carries a derivation with tau1 != 0
FAILED_GATES = {
    "algebras": MAP_SPACES["algebras"],
    "modules": [module for module in MAP_SPACES["modules"] if module["name"] in ("U1", "V2")],
    "characters": [{"name": "d0", "over": "D", "values": ["1", "0"]}],
    "jobs": [
        {"cmd": "build", "kind": "direct", "args": ["D", "Q"], "name": "P"},
        {"cmd": "build", "kind": "direct", "args": ["Q", "D"], "name": "R"},
        {"cmd": "build", "kind": "semidirect", "args": ["D", "V2"], "name": "S"},
        {"cmd": "build", "kind": "module-extension", "args": ["D", "V2"], "name": "T"},
        {"cmd": "build", "kind": "theta-lau", "args": ["D", "D", "d0"], "name": "L"},
        {"cmd": "build", "kind": "module-extension", "args": ["D", "U1"], "name": "W"},
        *({"cmd": "verify", "id": rule, "args": [prod]} for prod, rules in (
            ("P", ("4.2", "4.4")), ("R", ("4.3",)), ("S", ("4.1", "4.2", "4.3", "4.4")),
            ("T", ("cte",)), ("L", ("a1", "prop10")), ("W", ("4.1",))) for rule in rules),
    ],
}


# T is the upper triangular 2x2 matrices; the map is x -> x e12 - e12 x
TEXT_LINES = {
    "algebras": [{"name": "Q", "dim": 1, "mult": ONE}, {"name": "D", "dim": 2, "mult": DUAL}],
    "modules": [MAP_SPACES["modules"][2],
                {"name": "C", "over": "Q", "right_over": "Q", "dim": 1, **IDENTITY}],
    "characters": [{"name": "d0", "over": "D", "values": ["1", "0"]}],
    "jobs": [
        {"cmd": "build", "kind": "triangular", "args": ["Q", "Q", "C"], "name": "T"},
        *({"cmd": "validate", "args": [name]} for name in ("D", "U1", "C", "d0", "T")),
        {"cmd": "decompose", "args": ["T"], "map": [["1", "0", "0"], ["0", "1", "0"],
                                                    ["0", "0", "1"]]},
        {"cmd": "inner-witness", "args": ["T"], "map": [["0", "0", "1"], ["0", "0", "-1"],
                                                        ["0", "0", "0"]]},
    ],
}


def _sheared_m3_plus_d():
    """M3 + D in the basis f = e P, P the identity with three shears and one scaling."""
    p = Matrix.identity(11).data
    p[0][9], p[4][10], p[2][7], p[3][3] = 1, -2, 1, 2
    return change_basis_algebra(direct_sum_algebra(matrix_algebra(3), dual_numbers()),
                                Matrix(p))


def _entries(a, keys):
    return [{keys[0]: i, keys[1]: j, keys[2]: k, "c": str(c)}
            for i, slab in enumerate(a.mult) for j, sl in enumerate(slab) for k, c in sl]


_SHEARED = _sheared_m3_plus_d()
SHEARED = {
    "algebras": [{"name": "A", "dim": 11, "mult": _entries(_SHEARED, "ijk")}],
    "modules": [{"name": "R", "over": "A", "dim": 11, "mult": _entries(_SHEARED, "ijk"),
                 "left": _entries(_SHEARED, "ipq"), "right": _entries(_SHEARED, "piq")}],
    "jobs": [{"cmd": "z1", "args": ["A"]}, {"cmd": "n1", "args": ["A"]},
             {"cmd": "hom", "args": ["A", "R"]}],
}


def _assert_pinned(name, doc, code, tmp_path, fmt="json"):
    path = tmp_path / f"{name}_in.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / f"{name}.{fmt}"
    assert main(["run", str(path), "--format", fmt, "--out", str(out)]) == code
    suffix = "json" if fmt == "json" else "txt"
    assert out.read_bytes() == (GOLDEN / "jobs" / f"{name}.{suffix}").read_bytes()


def test_job_errors_are_pinned(tmp_path):
    _assert_pinned("job_errors", JOB_ERRORS, 2, tmp_path)


def test_map_space_jobs_are_pinned(tmp_path):
    _assert_pinned("map_spaces", MAP_SPACES, 0, tmp_path)


def test_space_reports_of_a_sheared_mid_size_algebra_are_pinned(tmp_path):
    _assert_pinned("sheared_spaces", SHEARED, 0, tmp_path)


def test_every_rule_on_a_zero_dimensional_factor_is_pinned(tmp_path):
    # rules on another construction are job errors, so the run exits 2
    _assert_pinned("zero_dim", ZERO_DIM, 2, tmp_path)


def test_failed_gates_are_named_in_the_text_report(tmp_path):
    _assert_pinned("failed_gates", FAILED_GATES, 0, tmp_path, fmt="text")


@pytest.mark.parametrize("name, doc, code", [("job_errors", JOB_ERRORS, 2),
                                             ("map_spaces", MAP_SPACES, 0),
                                             ("text_lines", TEXT_LINES, 0)])
def test_every_text_line_shape_is_pinned(name, doc, code, tmp_path):
    _assert_pinned(name, doc, code, tmp_path, fmt="text")
