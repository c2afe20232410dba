"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench -q``.  The
``shrink`` fixture cuts ``battery`` to a twentieth of its cases and
``batch`` to 20 generated files; ``ladder`` keeps every rung, ``T(M3)`` too.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import instances  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
COUNT_UNITS = ("count", "bytes")


@pytest.fixture
def sampler():
    with SpeedSampler() as s:
        yield s


@pytest.fixture
def shrink(monkeypatch):
    """Fewer battery cases (same dimension mix); batch files with 4 defects."""
    quota = {d: max(1, q // 20) for d, q in workloads.BATTERY_QUOTA.items()}
    monkeypatch.setattr(workloads, "BATTERY_QUOTA", quota)
    monkeypatch.setattr(workloads, "BATCH_FILES", 20)


def _prepare(workload, sampler, seed=1):
    prog, ops, _ = run.setup(workload, seed, sampler)
    return prog, ops


def _snapshot(prog):
    owners = list(prog.modules) + [prog.linalg.Subspace, workloads]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def _changed(snapshot):
    changed = []
    for owner, before in snapshot.values():
        now = vars(owner)
        changed += [f"{getattr(owner, '__name__', owner)}.{k}" for k, v in before.items()
                    if now.get(k) is not v]
    return changed


def _traced_pass(prog, ops, sampler):
    tracer = spans.Tracer(prog)
    recorder = spans.Recorder()
    tracer.wrap(recorder)
    try:
        return run.run_pass(ops, sampler, recorder)
    finally:
        tracer.unwrap()


def _counts(recorder):
    metrics = spans.layer_metrics(recorder)
    return {k: v for k, v in metrics.items() if run.PER_LAYER[k] in COUNT_UNITS}


def test_traced_run_restores_every_binding(sampler):
    prog, ops = _prepare("ladder", sampler)
    before = _snapshot(prog)
    tracer = spans.Tracer(prog)
    tracer.wrap(spans.Recorder())
    try:
        wrapped = _changed(before)
    finally:
        tracer.unwrap()
    assert "semih1.linalg.kernel" in wrapped and "semih1.spaces.kernel" in wrapped
    assert "semih1.linalg._rref_rows" in wrapped and "semih1.verify._memo" in wrapped
    assert "workloads.render_report" in wrapped
    assert _changed(before) == []
    # and after whole traced runs, including one whose op raises
    ops = ops[:3] + [workloads.Op("raises", lambda: 1 // 0, lambda answer: "raised",
                                  {"dim": 0})]
    run.measure(prog, ops, 0, True, sampler)
    assert _changed(before) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_passes_agree(workload, sampler, shrink):
    prog, ops = _prepare(workload, sampler)
    plain = run.run_pass(ops, sampler)
    traced = _traced_pass(prog, ops, sampler)
    assert traced.answers == plain.answers
    assert run.check_answers(ops, [plain, traced]) == (0, [])
    assert _counts(traced.recorder) == _counts(_traced_pass(prog, ops, sampler).recorder)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(workload, sampler, shrink):
    first = _counts(_traced_pass(*_prepare(workload, sampler), sampler).recorder)
    second = _counts(_traced_pass(*_prepare(workload, sampler), sampler).recorder)
    assert first == second
    assert all(first[f"{layer}.calls"] > 0 for layer in spans.LAYERS)
    assert first["verify.rules_verified"] > 0 and first["linalg.rows_in"] > 0


def test_oracle_flags_wrong_answers(sampler, monkeypatch):
    prog, ops = _prepare("ladder", sampler)
    monkeypatch.setattr(prog.spaces, "h1_dim", lambda a, m=None: -1)
    failed, _ = run.check_answers(ops, [run.run_pass(ops, sampler)])
    assert failed == sum(op.info["kind"] == "h1_dim" for op in ops)


def test_batch_rejects_are_the_designed_ones(sampler, shrink):
    _, ops = _prepare("batch", sampler)
    answers = run.run_pass(ops, sampler).answers
    kinds = {(op.info["kind"], answer[1]) for op, answer in zip(ops, answers)}
    assert ("reject", "ParseError") in kinds and ("reject", "ValidationFailed") in kinds
    assert all(err is None for kind, err in kinds if kind in ("accept", "fixture"))


def _is_associative(fam):
    basis = [{i: instances.ONE} for i in range(fam.dim)]
    mul = instances._multiply
    return all(mul(fam.table, mul(fam.table, x, y), z) == mul(fam.table, x, mul(fam.table, y, z))
               for x in basis for y in basis for z in basis)


@pytest.mark.parametrize("fam", [instances.matrix_algebra(2), instances.cyclic(5),
                                 instances.truncated(4), instances.kronecker(3),
                                 instances.upper_triangular(3)], ids=lambda f: f.name)
def test_generated_tables_keep_or_break_associativity_by_design(fam):
    shears = [(1, 0, 2), (0, fam.dim - 1, -1)]
    assert _is_associative(fam) and _is_associative(instances.sheared(fam, shears))
    assert not _is_associative(instances.sheared(instances.perturbed(fam), shears))


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "ladder", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS
