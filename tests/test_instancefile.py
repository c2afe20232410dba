import json
import re
import sys
import tracemalloc
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semih1.algebra
import semih1.instancefile
import semih1.products
import semih1.verify
from semih1.errors import ParseError, Semih1Error, UnresolvedReference, ValidationFailed
from semih1.instancefile import (
    BUILD_KINDS,
    BUILDS,
    JOB_CMDS,
    JOBS,
    VERIFY_IDS,
    parse_instance,
    parse_instance_text,
    render_text,
    run_jobs,
)
from semih1.linalg import Matrix, Subspace

from _oracle import dense


def doc_text(doc):
    return json.dumps(doc)


MINIMAL = {
    "algebras": [{"name": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}],
    "jobs": [{"cmd": "h1", "args": ["Q"]}],
}


def test_minimal_file_parses_and_runs():
    inst = parse_instance_text(doc_text(MINIMAL))
    doc, code = run_jobs(inst)
    assert code == 0
    assert doc["jobs"][0]["result"] == {"h1_dim": 0, "z1_dim": 0, "n1_dim": 0}


def test_h1_job_checks_that_the_inner_maps_lie_in_z1(monkeypatch):
    # Z1(Q) = 0, so the full space on Q, standing in for N1, escapes it; Q is separable,
    # so its Z1 entry would be that N1 entry unless the Leibniz route is taken
    monkeypatch.setattr(semih1.verify, "inner_space",
                        lambda a, act: Subspace.from_vectors(1, Matrix.identity(1).data))
    monkeypatch.setattr(semih1.verify, "separable", lambda a: False)
    doc, code = run_jobs(parse_instance_text(doc_text(MINIMAL)))
    assert code == 2
    assert doc["jobs"][0]["status"] == "error"
    assert doc["jobs"][0]["error"]["type"] == "InternalInvariantViolation"


def test_invalid_json_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_instance_text("{not json", where="bad.json")
    assert "bad.json" in str(err.value)
    assert "line 1" in str(err.value)
    # arrays nested past the recursion limit: a parse error, not a RecursionError (an
    # interpreter whose limit lets 1,000 levels through reports the list under "jobs")
    for depth in (1000, 100_000):
        with pytest.raises(ParseError) as err:
            parse_instance_text('{"jobs": ' + "[" * depth + "]" * depth + "}", where="deep.json")
        assert err.value.where in ("deep.json", "jobs[0]")
    assert (str(err.value), err.value.where) == (
        "deep.json: invalid JSON: nested too deeply", "deep.json")


def test_nonassociative_tensor_reports_witness():
    doc = {"algebras": [{"name": "bad", "dim": 2, "mult": [
        {"i": 0, "j": 0, "k": 1, "c": "1"},
        {"i": 0, "j": 1, "k": 0, "c": "1"},
    ]}]}
    with pytest.raises(ValidationFailed) as err:
        parse_instance_text(doc_text(doc))
    assert "(0, 0, 0)" in str(err.value)


def test_rational_strings_are_exact():
    doc = {
        "algebras": [{"name": "S", "dim": 1, "mult": [
            {"i": 0, "j": 0, "k": 0, "c": "1/3"},
            {"i": 0, "j": 0, "k": 0, "c": "2/3"},
        ]}],
        "jobs": [{"cmd": "z1", "args": ["S"]}],
    }
    inst = parse_instance_text(doc_text(doc))
    assert dense(inst.algebras["S"].mult, 1)[0][0][0] == 1  # 1/3 + 2/3 accumulates exactly


def test_bad_rational_rejected():
    doc = {"algebras": [{"name": "S", "dim": 1,
                         "mult": [{"i": 0, "j": 0, "k": 0, "c": "1.5"}]}]}
    with pytest.raises(ParseError):
        parse_instance_text(doc_text(doc))
    doc["algebras"][0]["mult"][0]["c"] = "1/0"
    with pytest.raises(ParseError):
        parse_instance_text(doc_text(doc))


def sparse_mult(values, dim=1):
    """``_sparse_tensor`` of the entries ``values`` in turn, all on the triple (0, 0, 0)."""
    entries = [{"i": 0, "j": 0, "k": 0, "c": c} for c in values]
    return semih1.instancefile._sparse_tensor(entries, (dim, dim, dim), ("i", "j", "k"), "mult")


def test_the_parse_contract_of_a_sparse_tensor():
    # each rational string is parsed once per tensor; the entries it stands
    # for still add up one by one, and every bad value raises at its own place
    assert sparse_mult(["1/2", "1/2"]) == [[((0, Fraction(1)),)]]
    assert sparse_mult(["1", "-1"]) == [[()]]
    assert sparse_mult([1, "1"]) == [[((0, Fraction(2)),)]]
    for values, message in ((["1", "1", True], "expected a rational string, got bool"),
                            (["1", "1", "1/0"], "bad rational '1/0'")):
        with pytest.raises(ParseError) as err:
            sparse_mult(values, dim=2)
        assert err.value.where == "mult[2]"
        assert str(err.value) == f"mult[2]: {message}"


def digits_over_the_int_limit():
    """A decimal one digit longer than int() converts from a string, or a skip."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts decimal strings of any length here")
    return "1" + "0" * limit


@pytest.mark.parametrize("entry, value", [
    ("c", '"BIG"'), ("c", '"1/BIG"'), ("c", "BIG"), ("map", '[["BIG"]]')])
def test_a_rational_over_the_int_digit_limit_is_a_parse_error(entry, value):
    doc = json.loads(json.dumps(MINIMAL))
    if entry == "c":
        doc["algebras"][0]["mult"][0]["c"] = "VALUE"
    else:
        doc["jobs"] = [{"cmd": "inner-witness", "args": ["Q"], "map": "VALUE"}]
    text = doc_text(doc).replace('"VALUE"', value.replace("BIG", digits_over_the_int_limit()))
    with pytest.raises(ParseError) as err:
        parse_instance_text(text, where="big.json")
    assert "limit" in str(err.value)


@pytest.mark.parametrize("job, key", [
    ({"cmd": "h1", "args": ["Q"], "id": "bogus"}, "id"),
    ({"cmd": "h1", "args": ["Q"], "kind": "direct"}, "kind"),
    ({"cmd": "z1", "args": ["Q"], "map": [["x"]]}, "map"),
    ({"cmd": "verify", "id": "3.1", "args": ["Q"], "name": "P"}, "name"),
    ({"cmd": "build", "kind": "unitization", "args": ["Q"], "name": "P", "map": [["1"]]}, "map"),
    ({"cmd": "decompose", "args": ["Q"], "map": [["1"]], "id": "3.1"}, "id"),
    ({"cmd": "inner-witness", "args": ["Q"], "map": [["1"]], "kind": "direct"}, "kind"),
])
def test_a_key_its_command_does_not_take_is_a_parse_error(job, key):
    # build takes kind and name, verify id, decompose and inner-witness map; no job another
    with pytest.raises(ParseError) as err:
        parse_instance_text(doc_text(dict(MINIMAL, jobs=[job])))
    assert (str(err.value), err.value.where) == (f"jobs[0]: unknown key {key!r}", "jobs[0]")


@pytest.mark.parametrize("doc, message, where", [
    (dict(MINIMAL, bogus=1), "unknown top-level key 'bogus'", "t.json"),
    *((dict(MINIMAL, jobs=[{"cmd": "z1", "args": ["Q", matrix]}]), message, "jobs[0].args[1]")
      for matrix, message in (([["1"], ["1", "2"]], "ragged matrix"),
                              ([["1", "2"], ["1"]], "ragged matrix"),
                              ([], "empty matrix"))),
    (dict(MINIMAL, jobs=[{"cmd": "build", "kind": "bogus", "args": ["Q"], "name": "P"}]),
     "unknown build kind 'bogus'", "jobs[0]"),
    *((dict(MINIMAL, jobs=[{"cmd": "build", "kind": "unitization", "args": ["Q"], **named}]),
       "build jobs need a result name", "jobs[0]") for named in ({}, {"name": ""})),
    *((dict(MINIMAL, jobs=[{"cmd": "z1", "args": ["Q", arg]}]),
       "args must be names or matrices", "jobs[0].args[1]") for arg in (3, {})),
])
def test_each_structural_parse_error_names_its_place(doc, message, where):
    with pytest.raises(ParseError) as err:
        parse_instance_text(doc_text(doc), where="t.json")
    assert (str(err.value), err.value.where) == (f"{where}: {message}", where)


def test_out_of_range_index_rejected():
    doc = {"algebras": [{"name": "S", "dim": 1,
                         "mult": [{"i": 0, "j": 0, "k": 1, "c": "1"}]}]}
    with pytest.raises(ParseError) as err:
        parse_instance_text(doc_text(doc))
    assert "k=1" in str(err.value)


def test_index_and_rational_that_are_booleans_rejected():
    for entry in ({"i": True, "j": 0, "k": 0, "c": "1"}, {"i": 0, "j": 0, "k": 0, "c": True}):
        with pytest.raises(ParseError):
            parse_instance_text(doc_text({"algebras": [{"name": "S", "dim": 2, "mult": [entry]}]}))


@pytest.mark.parametrize("value", ["1\n", "1/1\n"])
@pytest.mark.parametrize("place", ["mult", "values", "map"])
def test_a_rational_with_a_trailing_newline_is_a_parse_error(place, value):
    # each value is a valid rational without its newline, in every place
    doc = json.loads(json.dumps(MINIMAL))
    if place == "mult":
        doc["algebras"][0]["mult"][0]["c"] = value
        where = "algebras[0].mult[0]"
    elif place == "values":
        doc["characters"] = [{"name": "one", "over": "Q", "values": [value]}]
        where = "characters[0].values[0]"
    else:
        doc["jobs"] = [{"cmd": "inner-witness", "args": ["Q"], "map": [[value]]}]
        where = "jobs[0].map[0][0]"
    with pytest.raises(ParseError) as err:
        parse_instance_text(doc_text(doc))
    assert (str(err.value), err.value.where) == (f"{where}: bad rational {value!r}", where)


def test_a_large_sparse_algebra_parses_without_dense_cells():
    # one nonzero entry in dimension 80: parsing must not allocate the
    # 512000 cells of a dense tensor (about 9 MB of Fractions and lists)
    text = doc_text({"algebras": [{"name": "E", "dim": 80,
                                   "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}]})
    tracemalloc.start()
    try:
        inst = parse_instance_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.algebras["E"].dim == 80
    assert peak < 1_000_000


@pytest.mark.parametrize("defs", [
    {"characters": [{"name": "Q", "over": "Q", "values": ["1"]}]},
    {"characters": [{"name": "one", "over": "Q", "values": ["1"]}],
     "modules": [{"name": "one", "over": "Q", "dim": 0}]},
    {"algebras": [{"name": "B", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}],
     "characters": [{"name": "one", "over": "Q", "values": ["1"]}],
     "modules": [{"name": "one", "over": "Q", "right_over": "B", "dim": 0}]},
], ids=["character-algebra", "module-character", "corner-character"])
def test_a_name_shared_across_kinds_is_rejected(defs):
    doc = dict(defs, algebras=MINIMAL["algebras"] + defs.get("algebras", []))
    with pytest.raises(ParseError) as err:
        parse_instance_text(doc_text(doc))
    assert "duplicate name" in str(err.value)


ONE_MODULE = {"name": "M", "over": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}],
              "left": [{"i": 0, "p": 0, "q": 0, "c": "1"}],
              "right": [{"p": 0, "i": 0, "q": 0, "c": "1"}]}


@pytest.mark.parametrize("section, spec", [
    ("algebras", {"name": "B", "dim": 1, "mutl": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}),
    ("characters", {"name": "one", "over": "Q", "value": ["1"]}),
    ("modules", {**ONE_MODULE, "rigth": []}),
], ids=["algebra", "character", "module"])
def test_a_misspelled_definition_key_is_a_parse_error(section, spec, tmp_path):
    from semih1.cli import main

    doc = dict(MINIMAL, **{section: MINIMAL.get(section, []) + [spec]})
    misspelled = (set(spec) - {"name", "dim", "mult", "over", "values", "left", "right"}).pop()
    with pytest.raises(ParseError) as err:
        parse_instance_text(doc_text(doc))
    assert f"unknown key {misspelled!r}" in str(err.value)
    path = tmp_path / "misspelled.json"
    path.write_text(doc_text(doc))
    assert main(["validate", str(path)]) == 1


@pytest.mark.parametrize("section, spec, pos", [
    ("algebras", {"name": "", "dim": 1}, 1),
    ("characters", {"name": "", "over": "Q", "values": ["1"]}, 0),
    ("modules", {**ONE_MODULE, "name": ""}, 0),
], ids=["algebra", "character", "module"])
def test_an_empty_definition_name_is_a_parse_error(section, spec, pos, tmp_path):
    from semih1.cli import main

    doc = dict(MINIMAL, **{section: MINIMAL.get(section, []) + [spec]})
    with pytest.raises(ParseError) as err:
        parse_instance_text(doc_text(doc))
    where = f"{section}[{pos}].name"
    assert (str(err.value), err.value.where) == (f"{where}: name must not be empty", where)
    path = tmp_path / "empty_name.json"
    path.write_text(doc_text(doc))
    assert main(["validate", str(path)]) == 1


def test_a_mismatch_wins_over_a_job_error_at_the_front_door(monkeypatch, tmp_path, capsys):
    import semih1.verify as verify
    from semih1.cli import main

    construction, gates, _ = verify.RULES["4.4"]
    monkeypatch.setitem(verify.RULES, "4.4", (construction, gates,
                                              lambda p: (1, 2, "MISMATCH", {"forced": True})))
    doc = {"algebras": [MINIMAL["algebras"][0], {"name": "N", "dim": 1}],
           "characters": [{"name": "one", "over": "Q", "values": ["1"]}],
           "jobs": [{"cmd": "build", "kind": "theta-lau", "args": ["Q", "N", "one"], "name": "P"},
                    {"cmd": "verify", "id": "4.4", "args": ["P"]}]}
    out, code = run_jobs(parse_instance_text(doc_text(doc)))
    assert (code, out["mismatches"], out["errors"]) == (3, 1, 0)
    assert out["jobs"][1]["result"]["verdict"] == "MISMATCH"
    assert [line for line in render_text(out).splitlines() if "MISMATCH" in line] == [
        "[1] verify 4.4 P: MISMATCH lhs=1 rhs=2"]
    # a job error in the same file: 3 still wins over 2
    doc["jobs"].append({"cmd": "verify", "id": "5.4", "args": ["P"]})
    out, code = run_jobs(parse_instance_text(doc_text(doc)))
    assert (code, out["mismatches"], out["errors"]) == (3, 1, 1)
    path = tmp_path / "mismatch.json"
    path.write_text(doc_text(doc))
    assert main(["run", str(path)]) == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_a_duplicate_character_is_rejected_before_it_is_validated():
    # the second "t" is not multiplicative; its name clashes first
    doc = dict(MINIMAL, characters=[{"name": "t", "over": "Q", "values": ["1"]},
                                    {"name": "t", "over": "Q", "values": ["2"]}])
    with pytest.raises(ParseError) as err:
        parse_instance_text(doc_text(doc))
    assert "duplicate name 't'" in str(err.value)


def test_unresolved_references_rejected():
    doc = dict(MINIMAL, jobs=[{"cmd": "h1", "args": ["nope"]}])
    with pytest.raises(UnresolvedReference):
        parse_instance_text(doc_text(doc))
    doc = {"modules": [{"name": "M", "over": "missing", "dim": 1}]}
    with pytest.raises(UnresolvedReference):
        parse_instance_text(doc_text(doc))


def test_build_name_tracking():
    doc = {
        "algebras": [
            {"name": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]},
            {"name": "U", "dim": 1},
        ],
        "jobs": [
            {"cmd": "build", "kind": "direct", "args": ["Q", "U"], "name": "P"},
            {"cmd": "h1", "args": ["P"]},
            {"cmd": "verify", "id": "5.3", "args": ["P"]},
        ],
    }
    inst = parse_instance_text(doc_text(doc))
    out, code = run_jobs(inst)
    assert code == 0
    assert out["jobs"][2]["result"]["verdict"] in ("verified", "hypotheses-not-met")


def test_build_requires_fresh_name():
    doc = dict(MINIMAL)
    doc = json.loads(doc_text(MINIMAL))
    doc["jobs"] = [{"cmd": "build", "kind": "unitization", "args": ["Q"], "name": "Q"}]
    with pytest.raises(ParseError):
        parse_instance_text(doc_text(doc))


def test_unknown_cmd_and_verify_id_rejected():
    doc = json.loads(doc_text(MINIMAL))
    doc["jobs"] = [{"cmd": "frobnicate", "args": ["Q"]}]
    with pytest.raises(ParseError):
        parse_instance_text(doc_text(doc))
    doc["jobs"] = [{"cmd": "verify", "id": "17.3", "args": ["Q"]}]
    with pytest.raises(ParseError):
        parse_instance_text(doc_text(doc))


def test_character_validation_in_file():
    doc = {
        "algebras": [{"name": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}],
        "characters": [{"name": "t", "over": "Q", "values": ["2"]}],
    }
    with pytest.raises(ValidationFailed):
        parse_instance_text(doc_text(doc))


def test_job_errors_collected_not_fatal():
    doc = {
        "algebras": [
            {"name": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]},
            {"name": "N", "dim": 1},
        ],
        "jobs": [
            # theta-lau build with an algebra where a character is expected
            {"cmd": "build", "kind": "theta-lau", "args": ["Q", "N", "N"], "name": "P"},
            {"cmd": "h1", "args": ["Q"]},
        ],
    }
    inst = parse_instance_text(doc_text(doc))
    out, code = run_jobs(inst)
    assert code == 2
    assert out["jobs"][0]["status"] == "error"
    assert out["jobs"][1]["status"] == "ok"


def test_decompose_and_inner_witness_jobs():
    doc = {
        "algebras": [{"name": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}],
        "modules": [{"name": "R", "over": "Q", "dim": 1,
                     "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}],
                     "left": [{"i": 0, "p": 0, "q": 0, "c": "1"}],
                     "right": [{"p": 0, "i": 0, "q": 0, "c": "1"}]}],
        "jobs": [
            {"cmd": "build", "kind": "module-extension", "args": ["Q", "R"], "name": "T"},
            {"cmd": "decompose", "args": ["T"], "map": [["0", "0"], ["0", "1"]]},
            {"cmd": "inner-witness", "args": ["T"], "map": [["0", "0"], ["0", "1"]]},
        ],
    }
    out, code = run_jobs(parse_instance_text(doc_text(doc)))
    assert code == 0
    decomp = out["jobs"][1]["result"]
    assert decomp["is_derivation"] is True
    assert decomp["blocks"]["tau2"] == [["1"]]
    witness = out["jobs"][2]["result"]
    assert witness["inner"] is False  # h1 of the dual numbers is 1


def test_machine_report_is_deterministic(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(doc_text(MINIMAL))
    doc1, _ = run_jobs(parse_instance(path))
    doc2, _ = run_jobs(parse_instance(path))
    assert json.dumps(doc1, indent=2) == json.dumps(doc2, indent=2)


def test_render_text_mentions_every_job():
    inst = parse_instance_text(doc_text(MINIMAL))
    doc, _ = run_jobs(inst)
    text = render_text(doc)
    assert "h1 Q" in text
    assert "ok=true" in text


def test_corner_module_requires_no_mult():
    doc = {
        "algebras": [
            {"name": "A", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]},
            {"name": "B", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]},
        ],
        "modules": [{"name": "M", "over": "A", "right_over": "B", "dim": 1,
                     "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}],
                     "left": [], "right": []}],
    }
    with pytest.raises(ParseError):
        parse_instance_text(doc_text(doc))


def test_spaces_job_on_product_and_pair():
    doc = {
        "algebras": [{"name": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]},
                     {"name": "N", "dim": 1}],
        "characters": [{"name": "one", "over": "Q", "values": ["1"]}],
        "modules": [{"name": "R", "over": "Q", "dim": 1,
                     "left": [{"i": 0, "p": 0, "q": 0, "c": "1"}],
                     "right": [{"p": 0, "i": 0, "q": 0, "c": "1"}]}],
        "jobs": [
            {"cmd": "build", "kind": "theta-lau", "args": ["Q", "N", "one"], "name": "P"},
            {"cmd": "spaces", "args": ["P"]},
            {"cmd": "spaces", "args": ["Q", "R"]},
            {"cmd": "hom", "args": ["Q", "R"]},
            {"cmd": "z1", "args": ["Q", "R"]},
            {"cmd": "n1", "args": ["Q", "R"]},
        ],
    }
    out, code = run_jobs(parse_instance_text(doc_text(doc)))
    assert code == 0
    spaces = out["jobs"][1]["result"]
    assert spaces == {"r_dim": 0, "c_dim": 0, "i_dim": 0,
                      "hom_dim": 1, "hom_cap_z1_dim": 1}
    assert out["jobs"][3]["result"]["dim"] == 1


def test_malformed_map_shape_is_a_job_error():
    doc = {
        "algebras": [{"name": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]},
                     {"name": "N", "dim": 1}],
        "jobs": [
            {"cmd": "build", "kind": "direct", "args": ["Q", "N"], "name": "P"},
            {"cmd": "decompose", "args": ["P"], "map": [["1"]]},
        ],
    }
    out, code = run_jobs(parse_instance_text(doc_text(doc)))
    assert code == 2
    assert out["jobs"][1]["status"] == "error"


def test_verify_id_catalog_matches_dispatch():
    import re
    from pathlib import Path

    from semih1.instancefile import VERIFY_IDS
    from semih1.verify import RULES

    needs = {"3.1": None, "4.1": None, "4.2": None, "4.3": None, "4.4": None,
             "5.1": "direct", "5.3": "direct",
             "ttd": "extension", "cte": "extension", "embed": "extension",
             "lau-der": "scaled", "a1": "scaled", "prop10": "scaled",
             "5.4": "alpha"}
    assert {rid: rule[0] for rid, rule in RULES.items()} == needs
    assert VERIFY_IDS == tuple(RULES)
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Verification rules", 1)[1].split("\n## ", 1)[0]
    assert tuple(re.findall(r"^\| `([^`]+)` \|", section, re.M)) == tuple(RULES)


def test_job_signature_table_matches_readme():
    import re
    from pathlib import Path

    assert JOB_CMDS == ("build", *JOBS) and BUILD_KINDS == tuple(BUILDS)
    rows = {cmd: sigs for cmd, (sigs, _, _) in JOBS.items()}
    rows.update({f"build {kind}": sigs for kind, (sigs, _) in BUILDS.items()})
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Instance file format", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `([^`]+)` \| (.+) \|$", section, re.M)
    assert [cmd for cmd, _ in table] == list(rows)
    for cmd, cell in table:
        assert cell == " or ".join(f"`[{', '.join(sig)}]`" for sig in rows[cmd])


# A definition of every kind, one product, and for each command and build
# kind its shortest and its longest arguments that fit.
SHAPES_DOC = {
    "algebras": [{"name": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]},
                 {"name": "N", "dim": 1}],
    "modules": [{"name": "R", "over": "Q", "dim": 1,
                 "left": [{"i": 0, "p": 0, "q": 0, "c": "1"}],
                 "right": [{"p": 0, "i": 0, "q": 0, "c": "1"}]},
                {"name": "C", "over": "Q", "right_over": "N", "dim": 1}],
    "characters": [{"name": "one", "over": "Q", "values": ["1"]}],
}
PRODUCT = {"cmd": "build", "kind": "direct", "args": ["Q", "N"], "name": "P"}
FITTING_ARGS = {
    "validate": (["Q"], ["Q"]),
    "z1": (["Q"], ["Q", "R"]),
    "n1": (["Q"], ["Q", "R"]),
    "h1": (["Q"], ["Q", "R"]),
    "hom": (["Q", "R"], ["Q", "R", "R"]),
    "spaces": (["P"], ["Q", "R"]),
    "decompose": (["P"], ["P"]),
    "inner-witness": (["P"], ["Q", "R"]),
    "verify": (["P"], ["P"]),
    "semidirect": (["Q", "R"],) * 2,
    "direct": (["Q", "N"],) * 2,
    "module-extension": (["Q", "R"],) * 2,
    "triangular": (["Q", "N", "C"],) * 2,
    "theta-lau": (["Q", "N", "one"],) * 2,
    "unitization": (["N"],) * 2,
    "alpha": (["Q", "N", [["0"]]],) * 2,
}


def shaped_job(head, args, name="Z"):
    if head in BUILD_KINDS:
        return {"cmd": "build", "kind": head, "args": args, "name": name}
    job = {"cmd": head, "args": args}
    if head in ("decompose", "inner-witness"):
        job["map"] = [["0"]] if args == ["Q", "R"] else [["0", "0"], ["0", "1"]]
    if head == "verify":
        job["id"] = "3.1"
    return job


def misfits(head):
    """Too few arguments, one surplus argument, a matrix in a name slot."""
    shortest, longest = FITTING_ARGS[head]
    yield "too-few", shortest[:-1]
    yield "surplus", longest + [longest[-1]]
    yield "matrix-for-name", [[["1"]]] + shortest[1:]


MISFITS = [(head, case, args) for head in FITTING_ARGS for case, args in misfits(head)]
MISFITS.append(("alpha", "name-for-matrix", ["Q", "N", "Q"]))


def test_every_fitting_shape_runs():
    shapes = [(head, args) for head, pair in FITTING_ARGS.items() for args in pair]
    jobs = [PRODUCT] + [shaped_job(head, args, name=f"Z{i}")
                        for i, (head, args) in enumerate(shapes)]
    out, code = run_jobs(parse_instance_text(doc_text(dict(SHAPES_DOC, jobs=jobs))))
    assert code == 0, [e["error"] for e in out["jobs"] if e["status"] == "error"]


@pytest.mark.parametrize("head,case,args", MISFITS, ids=[f"{h}-{c}" for h, c, _ in MISFITS])
def test_a_job_that_fits_no_signature_is_a_job_error(head, case, args):
    doc = dict(SHAPES_DOC, jobs=[PRODUCT, shaped_job(head, args)])
    out, code = run_jobs(parse_instance_text(doc_text(doc)))
    assert code == 2
    error = out["jobs"][1]["error"]
    where = head if head in JOBS else f"build {head}"
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"{where}: expected [")


def test_run_exits_2_without_a_traceback_on_misfit_jobs(tmp_path):
    import subprocess
    import sys

    doc = dict(SHAPES_DOC, jobs=[PRODUCT] + [shaped_job(head, args, name=f"Z{i}")
                                             for i, (head, _, args) in enumerate(MISFITS)])
    path = tmp_path / "misfits.json"
    path.write_text(doc_text(doc))
    proc = subprocess.run([sys.executable, "-m", "semih1", "run", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"errors={len(MISFITS)} " in proc.stdout


# defined names, names built by earlier jobs, and one undefined name
FUZZ_NAMES = ("Q", "N", "R", "C", "one", "P", "L", "Z0", "nope")
FUZZ_MATRICES = ([["1"]], [["0", "1"]], [["1", "0"], ["0", "1"]], [[]])
FUZZ_ARG = st.sampled_from(FUZZ_NAMES) | st.sampled_from(FUZZ_MATRICES)


@st.composite
def fuzz_jobs(draw):
    jobs = [PRODUCT, {"cmd": "build", "kind": "theta-lau", "args": ["Q", "N", "one"],
                      "name": "L"}]
    for i in range(draw(st.integers(1, 4))):
        job = {"cmd": draw(st.sampled_from(JOB_CMDS + ("nope",))),
               "args": draw(st.lists(FUZZ_ARG, max_size=4))}
        if job["cmd"] == "build":
            job["kind"] = draw(st.sampled_from(BUILD_KINDS + ("nope",)))
            job["name"] = f"Z{i}"
        if job["cmd"] == "verify":
            job["id"] = draw(st.sampled_from(VERIFY_IDS + ("nope",)))
        if draw(st.booleans()):
            job["map"] = draw(st.sampled_from(FUZZ_MATRICES))
        jobs.append(job)
    return jobs


@settings(max_examples=200, deadline=None)
@given(fuzz_jobs())
def test_the_front_door_raises_only_its_own_errors(jobs):
    try:
        inst = parse_instance_text(doc_text(dict(SHAPES_DOC, jobs=jobs)))
    except Semih1Error:
        return
    doc, code = run_jobs(inst)
    assert code in (0, 2, 3)
    assert render_text(doc).endswith("\n")


# Sparse structure constants at dim <= 3: entries that are malformed, and
# entries that cancel.  Each valid base lists the entries of an associative
# algebra.
VALID_BASES = {
    "Q": (1, [(0, 0, 0, "1")]),
    "D": (2, [(0, 0, 0, "1"), (0, 1, 1, "1"), (1, 0, 1, "1")]),
    "T2": (3, [(0, 0, 0, "1"), (0, 1, 1, "1"), (1, 2, 1, "1"), (2, 2, 2, "1")]),
    "N3": (3, []),
}
RATIONAL = st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 3))


def entry(i, j, k, c):
    return {"i": i, "j": j, "k": k, "c": c}


ENTRY_DEFECTS = ("range", "type", "key", "missing", "rational", "notdict")
SPARSE_KEYS = ("i", "j", "k")


@st.composite
def malformed_entries(draw):
    """(dim, entries, malformed): entries over keys i, j, k, c, some with one or two defects.

    The keys of an entry come in any order, so an unknown key may precede
    the others and the precedence below is tested within one entry too.
    """
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    entries, malformed = [], False
    for _ in range(draw(st.integers(1, 4))):
        e = entry(draw(index), draw(index), draw(index), draw(RATIONAL))
        defects = draw(st.lists(st.sampled_from(ENTRY_DEFECTS), max_size=2))
        for defect in defects:
            key = draw(st.sampled_from("ijk"))
            if defect == "range":
                e[key] = draw(st.integers(-2, -1) | st.integers(dim, dim + 2))
            elif defect == "type":
                e[key] = draw(st.sampled_from((None, "0", 0.5, True, [0])))
            elif defect == "key":
                e[draw(st.sampled_from(("p", "q", "x", "value")))] = 0
            elif defect == "missing":
                e.pop(draw(st.sampled_from("ijkc")), None)
            elif defect == "rational":
                e["c"] = draw(st.sampled_from(("1.5", "1/0", "x", "", "+1", "1/-2", "0x1", "1\n",
                                               "1/2\n", 1.5, None, False, ["1"])))
        if draw(st.booleans()):
            e = dict(draw(st.permutations(list(e.items()))))
        if "notdict" in defects:
            e = draw(st.sampled_from(([0, 0, 0, "1"], "1", 0, None)))
        malformed = malformed or bool(defects)
        entries.append(e)
    return dim, entries, malformed


def first_entry_error(dim, entries, where):
    """(message, where) of the first malformed entry, or None.

    Within an entry: not a dict; an unknown key, in entry order; a missing
    key, in the order i, j, k, c; an index out of range, in key order; a bad
    rational.
    """
    for pos, e in enumerate(entries):
        here = f"{where}[{pos}]"
        if not isinstance(e, dict):
            return f"expected dict, got {type(e).__name__}", here
        unknown = [k for k in e if k not in (*SPARSE_KEYS, "c")]
        if unknown:
            return f"unknown key {unknown[0]!r}", here
        missing = [k for k in (*SPARSE_KEYS, "c") if k not in e]
        if missing:
            return f"missing key {missing[0]!r}", here
        out = [k for k in SPARSE_KEYS if type(e[k]) is not int or not 0 <= e[k] < dim]
        if out:
            return f"index {out[0]}={e[out[0]]!r} out of range [0,{dim})", here
        c = e["c"]
        if type(c) is int:
            continue
        if type(c) is not str:
            return f"expected a rational string, got {type(c).__name__}", here
        if not re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", c):
            return f"bad rational {c!r}", here
    return None


@settings(max_examples=300, deadline=None)
@given(malformed_entries())
def test_malformed_sparse_entries_are_parse_errors(case):
    dim, entries, malformed = case
    text = doc_text({"algebras": [{"name": "A", "dim": dim, "mult": entries}]})
    expected = first_entry_error(dim, entries, "algebras[0].mult")
    assert (expected is not None) == malformed
    if malformed:
        message, where = expected
        with pytest.raises(ParseError) as err:
            parse_instance_text(text)
        assert (str(err.value), err.value.where) == (f"{where}: {message}", where)
        return
    try:
        inst = parse_instance_text(text)
    except ValidationFailed:
        return
    assert inst.algebras["A"].dim == dim


@st.composite
def cancelling_entries(draw):
    """(dim, base entries, base with entries that sum to zero inserted)."""
    dim, base = VALID_BASES[draw(st.sampled_from(sorted(VALID_BASES)))]
    base = [entry(*e) for e in base]
    noisy = list(base)
    index = st.integers(0, dim - 1)
    for _ in range(draw(st.integers(1, 3))):
        i, j, k, c = draw(index), draw(index), draw(index), draw(RATIONAL)
        for e in (entry(i, j, k, c), entry(i, j, k, "-" + c if c[0] != "-" else c[1:])):
            noisy.insert(draw(st.integers(0, len(noisy))), e)
    return dim, base, noisy


@settings(max_examples=150, deadline=None)
@given(cancelling_entries())
def test_entries_that_cancel_parse_to_the_algebra_without_them(case):
    dim, base, noisy = case
    algebra = [parse_instance_text(doc_text({"algebras": [{"name": "A", "dim": dim,
                                                            "mult": entries}]})).algebras["A"]
               for entries in (base, noisy)]
    assert algebra[0].mult == algebra[1].mult
    assert dense(algebra[0].mult, dim) == dense(algebra[1].mult, dim)


# Modules, corners and characters over the VALID_BASES algebras, each clean
# or with one defect.  A clean entry parses; every defect but a missing or
# null right_over (which makes a corner a module, maybe a valid one) fails.
BASE_DOC = [{"name": name, "dim": dim, "mult": [entry(*e) for e in mult]}
            for name, (dim, mult) in sorted(VALID_BASES.items())]
# multiplicative values: an idempotent of each algebra goes to 1
CHARACTER_VALUES = {"Q": ["1"], "D": ["1", "0"], "T2": ["1", "0", "0"]}
DEFINITION_DEFECTS = ("none", "none", "over", "dim", "key", "entry")


def regular(name, keys):
    """The product entries of a base algebra under the tensor keys of an action."""
    return [dict(zip(keys, e[:3]), c=e[3]) for e in VALID_BASES[name][1]]


@st.composite
def malformed_definitions(draw):
    """(section, entry, defect): one module, corner or character, maybe with a defect."""
    kind = draw(st.sampled_from(("module", "corner", "character")))
    defects = DEFINITION_DEFECTS + {"module": (), "corner": ("right_over", "mult"),
                                    "character": ("length", "multiplicative")}[kind]
    defect = draw(st.sampled_from(defects))
    if kind == "character":
        over = draw(st.sampled_from(sorted(CHARACTER_VALUES)))
        spec = {"name": "t", "over": over, "values": list(CHARACTER_VALUES[over])}
    else:
        over = draw(st.sampled_from(sorted(VALID_BASES)))
        spec = {"name": "M", "over": over, "dim": draw(st.integers(0, 3))}
        if kind == "module" and draw(st.booleans()):
            spec.update(dim=VALID_BASES[over][0], mult=regular(over, "ijk"),
                        left=regular(over, "ipq"), right=regular(over, "piq"))
        if kind == "corner":
            spec["right_over"] = right = draw(st.sampled_from(sorted(VALID_BASES)))
            side = draw(st.sampled_from(("zero", "left", "right")))
            if side == "left":
                spec.update(dim=VALID_BASES[over][0], left=regular(over, "ipq"))
            elif side == "right":
                spec.update(dim=VALID_BASES[right][0], right=regular(right, "piq"))
    if defect in ("over", "right_over"):
        spec[defect] = draw(st.sampled_from((None, "nope", 1, "", ...)))
        if spec[defect] is ...:
            del spec[defect]
    elif defect == "dim" and kind != "character":
        spec["dim"] = draw(st.sampled_from((-1, None, "2", 1.0, True)))
    elif defect == "dim":
        spec["dim"] = 1
    elif defect == "key":
        spec[draw(st.sampled_from(("mutl", "rigth", "lfet", "valeus", "ovr", "dims")))] = []
    elif defect == "entry" and kind == "character":
        spec["values"][0] = draw(st.sampled_from(("1.0", "x", None, True, "1/0")))
    elif defect == "entry":
        field = draw(st.sampled_from(("left", "right") + ("mult",) * (kind == "module")))
        keys = {"mult": "ijk", "left": "ipq", "right": "piq"}[field]
        bad = dict.fromkeys(keys, 0)
        bad.update(draw(st.sampled_from(({}, {"c": "1/0"}, {"c": 1.5}, {"c": "1", "x": 0},
                                          {"c": "1", keys[2]: 4}, {"c": "1", keys[0]: None}))))
        spec[field] = [*spec.get(field, []), bad] if draw(st.booleans()) else "entries"
    elif defect == "mult":
        spec["mult"] = [{"i": 0, "j": 0, "k": 0, "c": "1"}]
    elif defect == "length":
        spec["values"] = spec["values"] + ["0"] if draw(st.booleans()) else spec["values"][1:]
    elif defect == "multiplicative":
        spec["values"] = draw(st.sampled_from((["2"], ["0"]))) + spec["values"][1:]
    return kind.replace("corner", "module") + "s", spec, defect


@settings(max_examples=300, deadline=None)
@given(malformed_definitions())
def test_malformed_definitions_raise_only_front_door_errors(case):
    section, spec, defect = case
    text = doc_text({"algebras": BASE_DOC, section: [spec]})
    try:
        parse_instance_text(text)
    except (ParseError, UnresolvedReference, ValidationFailed):
        assert defect != "none"
        return
    assert defect == "none" or (defect == "right_over" and spec.get(defect) is None)


@pytest.mark.parametrize("fixture", ["extension_qq.json", "paired_tau.json", "tau1_witness.json",
                                     "triangular.json"])
def test_each_module_is_validated_once(fixture, monkeypatch):
    # parsing validates every module and corner; builds and spaces jobs on a
    # parsed one reuse that verdict instead of validating it again
    calls = []

    def counting(validate):
        def counted(u, *over):
            calls.append(id(u))
            return validate(u, *over)
        return counted

    for name in ("validate_module", "validate_corner"):
        for mod in (semih1.instancefile, semih1.products):
            monkeypatch.setattr(mod, name, counting(getattr(semih1.algebra, name)))
    text = (resources.files("semih1") / "fixtures" / fixture).read_text(encoding="utf-8")
    inst = parse_instance_text(text)
    parsed = sorted(id(u) for u, _ in (*inst.modules.values(), *inst.corners.values()))
    assert sorted(calls) == parsed
    doc, code = run_jobs(inst)
    assert code == 0
    assert sorted(calls) == parsed


SPAN_VALUES = st.sampled_from((0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 4)))


@st.composite
def sampled_subspaces(draw):
    """A span of sparse vectors in Q^0 to Q^6, the zero space among them."""
    ambient = draw(st.integers(0, 6))
    vectors = draw(st.lists(st.lists(SPAN_VALUES, min_size=ambient, max_size=ambient),
                            max_size=4))
    return Subspace.from_vectors(ambient, vectors)


@settings(max_examples=150, deadline=None)
@given(sampled_subspaces(), st.integers(0, 3))
@example(Subspace.from_vectors(0, []), 1)
@example(Subspace.from_vectors(3, []), 1)
@example(Subspace.from_vectors(3, Matrix.identity(3).data), 0)
def test_a_space_report_writes_the_dense_basis(space, source_dim):
    report = semih1.instancefile._space(space, source_dim, 7)
    assert report["basis"] == semih1.instancefile._matrix_rows(space.basis)
    assert (report["dim"], report["source_dim"], report["target_dim"]) == (space.dim,
                                                                          source_dim, 7)

