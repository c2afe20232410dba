"""Byte-for-byte pin of the standard output of ``semih1 selftest --seed 1``.

``tests/golden/selftest_seed1.txt`` holds that output.  The battery draws
200 seeded products and runs every rule on each, so a change to any
verdict, any construction draw or the summary format shows up here.
"""

from pathlib import Path

from semih1.cli import main

GOLDEN = Path(__file__).parent / "golden" / "selftest_seed1.txt"


def test_selftest_seed_1_stdout_is_byte_identical(capsys):
    assert main(["selftest", "--seed", "1"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
