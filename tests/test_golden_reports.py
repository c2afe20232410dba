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
shows up as a diff.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from semih1.cli import main

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


def _assert_pinned(name, doc, code, tmp_path):
    path = tmp_path / f"{name}_in.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / f"{name}.json"
    assert main(["run", str(path), "--format", "json", "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / "jobs" / f"{name}.json").read_bytes()


def test_job_errors_are_pinned(tmp_path):
    _assert_pinned("job_errors", JOB_ERRORS, 2, tmp_path)


def test_map_space_jobs_are_pinned(tmp_path):
    _assert_pinned("map_spaces", MAP_SPACES, 0, tmp_path)
