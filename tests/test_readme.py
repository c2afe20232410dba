"""The "Library overview" example of README.md, run as written.

Every expression statement of the example carries a comment that opens
with its value.  The test runs the statements in order and checks each
value against its comment, so the example cannot drift from the code.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def overview_example():
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_overview_example_gives_the_values_its_comments_state():
    source = overview_example()
    lines = source.splitlines()
    namespace, stated = {}, []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        # the comment opens with the value: "# 0: every derivation ..." states 0
        comment = lines[stmt.end_lineno - 1].split("#", 1)[1]
        claim = ast.literal_eval(re.match(r"[^:,]+", comment).group().strip())
        value = eval(code, namespace)
        assert (type(value), value) == (type(claim), claim), code
        stated.append(claim)
    assert stated == [0, 1, "verified", True, None]
    # "'verified', lhs = rhs = 1"
    report = namespace["verify_theorem"]("4.4", namespace["p"])
    assert report.lhs_dim == report.rhs_dim == 1
