import json
import os

import pytest

from semih1.cli import main


GOOD = {
    "algebras": [{"name": "Q", "dim": 1, "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]},
                 {"name": "N", "dim": 1}],
    "characters": [{"name": "one", "over": "Q", "values": ["1"]}],
    "jobs": [
        {"cmd": "build", "kind": "theta-lau", "args": ["Q", "N", "one"], "name": "P"},
        {"cmd": "verify", "id": "4.4", "args": ["P"]},
        {"cmd": "h1", "args": ["P"]},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0
    assert "semih1" in capsys.readouterr().out


def test_usage_error_exits_1(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "semih1: error: the following arguments are required: command"
    assert main(["run"]) == 1
    assert main(["unknown-command"]) == 1


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "good.json", GOOD)
    assert main(["validate", path]) == 0
    assert "all valid" in capsys.readouterr().out
    # every definition kind, each with its own count
    doc = json.loads(json.dumps(GOOD))
    doc["modules"] = [{"name": "R", "over": "Q", "dim": 1},
                      *({"name": f"C{k}", "over": "Q", "right_over": "N", "dim": 1}
                        for k in range(3))]
    doc["characters"] += [{"name": f"one{k}", "over": "Q", "values": ["1"]} for k in range(3)]
    path = write(tmp_path, "kinds.json", doc)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == (f"{path}: 2 algebra(s), 1 module(s), 3 corner(s), "
                                       "4 character(s), 3 job(s) - all valid\n")


def test_validate_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_an_unreadable_file_is_one_parse_error_line(tmp_path, capsys, command):
    """A missing path, a directory and non-UTF-8 bytes: exit 1, one line naming the path once."""
    raw = tmp_path / "raw.json"
    raw.write_bytes(b'\xff\xfe{"algebras": []}')
    for path, reason in ((tmp_path / "missing.json", None), (tmp_path, None),
                         (raw, "not UTF-8 text")):
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert err.startswith(f"parse error: {path}: ") and err.count(str(path)) == 1, err
        assert reason is None or err == f"parse error: {path}: {reason}\n"


def test_run_reports_a_rational_over_the_int_digit_limit_as_a_parse_error(tmp_path, capsys):
    import sys

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts decimal strings of any length here")
    doc = json.loads(json.dumps(GOOD))
    doc["algebras"][0]["mult"][0]["c"] = "1" + "0" * limit
    assert main(["run", write(tmp_path, "big.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


def test_run_reports_deeply_nested_json_as_a_parse_error(tmp_path, capsys):
    # 100,000 levels are past the JSON decoder's recursion limit on every supported Python
    for depth in (1000, 100_000):
        path = tmp_path / "deep.json"
        path.write_text('{"jobs": ' + "[" * depth + "]" * depth + "}")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "Traceback" not in err


def test_validate_axiom_failure_exit_2(tmp_path, capsys):
    doc = {"algebras": [{"name": "bad", "dim": 2, "mult": [
        {"i": 0, "j": 0, "k": 1, "c": "1"},
        {"i": 0, "j": 1, "k": 0, "c": "1"},
    ]}]}
    path = write(tmp_path, "bad.json", doc)
    assert main(["validate", path]) == 2
    assert "validation failed" in capsys.readouterr().err


def test_run_text_report(tmp_path, capsys):
    path = write(tmp_path, "good.json", GOOD)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "verify 4.4 P: verified lhs=1 rhs=1" in out
    assert "ok=true" in out


def test_run_json_report_deterministic(tmp_path, capsys):
    path = write(tmp_path, "good.json", GOOD)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", path, "--format", "json", "--out", str(out1)]) == 0
    assert main(["run", path, "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["ok"] is True
    assert doc["jobs"][1]["result"]["verdict"] == "verified"
    basis = doc["jobs"][2]["result"]
    assert basis["h1_dim"] == 1


def test_run_out_to_an_unwritable_path_exits_1_without_a_traceback(tmp_path):
    import subprocess
    import sys

    path = write(tmp_path, "good.json", GOOD)
    for out in (tmp_path / "missing" / "dir" / "r.txt", tmp_path):
        proc = subprocess.run([sys.executable, "-m", "semih1", "run", path, "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: cannot write report to {out}: ")
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "missing").exists()


def test_a_closed_stdout_exits_1_with_an_error_line(tmp_path):
    import os
    import subprocess
    import sys

    path = write(tmp_path, "good.json", GOOD)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for args in (["run", path, "--format", "json"], ["validate", path],
                 ["selftest", "--cases", "1"]):
        # buffered, the failed write shows when the interpreter flushes at exit
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            read_end, write_end = os.pipe()
            os.close(read_end)  # nothing reads, so every write to stdout fails
            try:
                proc = subprocess.run([sys.executable, "-m", "semih1", *args], stdout=write_end,
                                      stderr=subprocess.PIPE, text=True, env={**env, **unbuffered})
            finally:
                os.close(write_end)
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error: cannot write to stdout: "), proc.stderr
            assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_stdout_exits_1_with_an_error_line(tmp_path):
    import subprocess
    import sys

    path = write(tmp_path, "good.json", GOOD)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for args in (["run", path], ["selftest", "--cases", "1"]):
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            with open("/dev/full", "w") as full:  # every write to it fails with ENOSPC
                proc = subprocess.run([sys.executable, "-m", "semih1", *args], stdout=full,
                                      stderr=subprocess.PIPE, text=True, env={**env, **unbuffered})
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error: cannot write to stdout: "), proc.stderr
            assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_run_job_error_exit_2(tmp_path):
    doc = json.loads(json.dumps(GOOD))
    doc["jobs"].append({"cmd": "build", "kind": "theta-lau",
                        "args": ["N", "Q", "one"], "name": "P2"})
    path = write(tmp_path, "joberr.json", doc)
    assert main(["run", path]) == 2


def test_selftest_small_run(capsys):
    assert main(["selftest", "--cases", "5", "--max-dim", "2", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "fixtures: 12 checked, 0 failing" in out


def test_selftest_rejects_bad_arguments(capsys):
    assert main(["selftest", "--cases", "0"]) == 1
    assert main(["selftest", "--max-dim", "0"]) == 1


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    path = write(tmp_path, "good.json", GOOD)
    proc = subprocess.run([sys.executable, "-m", "semih1", "run", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verified" in proc.stdout


def test_module_entry_point_mismatch_free_selftest():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "semih1", "selftest", "--cases", "4",
         "--max-dim", "2", "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout
