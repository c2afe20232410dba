"""Byte-for-byte pins of the JSON report of every packaged fixture.

``tests/golden/<fixture>.json`` holds the output of
``semih1 run <fixture> --format json``.  Any change to a verdict, a
dimension, a canonical basis or a witness tuple shows up here as a diff.
"""

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
