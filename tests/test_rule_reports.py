"""Pin of every verification rule's report on a fixed set of products.

``tests/golden/rules/rule_reports.json`` holds, for each product, the
``as_dict()`` of ``verify_any`` on every rule id and on an unknown id (or
``[error type, message]`` when the call raises), the same for
``verify_theorem`` and ``verify_special_case`` on one product of each
construction kind, and the sorted rule ids that ``selftest.run_case``
reports.  The file is compared as text, so the key order of every
``details`` dict is pinned too.  It sits in a subdirectory because
``tests/golden/*.json`` is reserved for the fixture reports.  Regenerate
it with ``PYTHONPATH=src python tests/test_rule_reports.py``.
"""

import json
import random
from pathlib import Path

from semih1.algebra import Character
from semih1.catalog import dual_numbers, field_q, upper_triangular_2
from semih1.errors import Semih1Error
from semih1.families import random_product
from semih1.products import fixture_nonzero_tau1, theta_lau
from semih1.selftest import run_case
from semih1.verify import verify_any, verify_special_case, verify_theorem

GOLDEN = Path(__file__).parent / "golden" / "rules" / "rule_reports.json"
IDS = ("3.1", "4.1", "4.2", "4.3", "4.4", "5.1", "5.3", "5.4",
       "ttd", "cte", "lau-der", "a1", "prop10", "embed", "nope")
KINDS = ("semidirect", "direct", "module-extension", "triangular",
         "theta-lau", "unitization", "alpha")
DRAWS = 24


def _outcome(fn, rid, p):
    try:
        return fn(rid, p).as_dict()
    except Semih1Error as exc:  # the error type and message are the outcome
        return [type(exc).__name__, str(exc)]


def products():
    """(label, product, a_sample or None) for every pinned product."""
    out = []
    for i in range(DRAWS):
        p, a_sample = random_product(random.Random(f"rules:{i}"), 3)
        out.append((f"rules:{i}", p, a_sample))
    t2 = upper_triangular_2()
    out.append(("fixture_nonzero_tau1(Q)", fixture_nonzero_tau1(field_q())[0], None))
    out.append(("theta_lau(T2,D)", theta_lau(t2, dual_numbers(), Character(t2, [1, 0, 0])),
                None))
    return out


def snapshot():
    entries = []
    first_of_kind = set()
    for label, p, a_sample in products():
        entry = {"product": label, "kind": p.kind,
                 "verify_any": {rid: _outcome(verify_any, rid, p) for rid in IDS}}
        if p.kind not in first_of_kind:
            first_of_kind.add(p.kind)
            entry["verify_theorem"] = {rid: _outcome(verify_theorem, rid, p) for rid in IDS}
            entry["verify_special_case"] = {rid: _outcome(verify_special_case, rid, p)
                                            for rid in IDS}
        if a_sample is not None:
            reports = run_case(p, a_sample, random.Random(f"{label}:case"))
            entry["run_case"] = sorted(reports)
        entries.append(entry)
    assert first_of_kind == set(KINDS)
    return entries


def render():
    return json.dumps(snapshot(), indent=1) + "\n"


def test_rule_reports_match_the_pin():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
