"""Byte-for-byte pins of the standard output of ``semih1 selftest --seed N``.

``tests/golden/selftest_seed{N}.txt`` holds that output for seeds 1-3.  The
battery draws 200 seeded products and runs every rule on each, so a change
to any verdict, any construction draw or the summary format shows up here.
"""

from pathlib import Path

import pytest

from semih1.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_selftest_seed_stdout_is_byte_identical(seed, capsys):
    assert main(["selftest", "--seed", str(seed)]) == 0
    expected = (GOLDEN / f"selftest_seed{seed}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
