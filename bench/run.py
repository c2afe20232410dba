"""semih1 benchmark: end-to-end timings and a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

It imports semih1 from ``src/`` next to this directory, builds the
workload's inputs from the seed, repeats passes over them for about
``--seconds`` seconds and checks every answer against the oracle in
``workloads.py``.  Human-readable rows come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of traced passes (alternated with untraced passes, which
give the tracing overhead) and writes the spans of the first traced pass to
``.bench_out/``.  See README.md in this directory.
"""

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402

SETUP_REPEATS = 7
MODULES = ("linalg", "algebra", "products", "spaces", "verify", "instancefile", "selftest",
           "families", "catalog", "errors")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_geomean": "ms",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {}
for _layer in spans.LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.self_s": "s",
                      f"{_layer}.share": "ratio"})
PER_LAYER.update({
    "linalg.rows_in": "count", "linalg.cells_in": "count", "linalg.nnz_in": "count",
    "linalg.rank_out": "count", "linalg.rank_ratio": "ratio", "linalg.max_rows": "count",
    "spaces.systems": "count", "spaces.rows_built": "count",
    "verify.systems": "count", "verify.rows_built": "count",
    "verify.memo_lookups": "count", "verify.memo_hit_ratio": "ratio",
    "verify.rules_verified": "count", "verify.rules_gated": "count",
    "algebra.validate_s": "s",
    "instancefile.parse_s": "s", "instancefile.run_s": "s", "instancefile.render_s": "s",
    "instancefile.bytes_in": "bytes",
    "trace.overhead_ratio": "ratio", "trace.unattributed_share": "ratio",
})


class MissingProgram(Exception):
    """The checkout has no semih1 sources to benchmark."""


class Program:
    """semih1's modules, freshly imported from this checkout's ``src/``."""

    def __init__(self):
        if not (SRC / "semih1" / "__init__.py").is_file():
            raise MissingProgram(f"no semih1 package under {SRC}")
        for name in [n for n in sys.modules if n == "semih1" or n.startswith("semih1.")]:
            del sys.modules[name]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"semih1.{name}"))
        package = sys.modules["semih1"]
        if Path(package.__file__).resolve().parent != SRC / "semih1":
            raise MissingProgram(f"imported semih1 from {package.__file__}, not {SRC}")
        self.fixture_dir = SRC / "semih1" / "fixtures"
        self.modules = [m for n, m in sys.modules.items()
                        if n == "semih1" or n.startswith("semih1.")]


class Pass:
    """One pass over the ops: times at reference speed, the raw wall, answers."""

    __slots__ = ("wall", "raw_wall", "times", "answers", "recorder")

    def __init__(self, wall, raw_wall, times, answers, recorder):
        self.wall = wall
        self.raw_wall = raw_wall
        self.times = times
        self.answers = answers
        self.recorder = recorder


def run_pass(ops, sampler, recorder=None):
    gc.collect()
    bounds, answers = [], []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            answer = op.run() if recorder is None else recorder.run_op(i, op.run)
        except Exception as exc:  # a raising op counts as failed; the run goes on
            answer = ("raised", type(exc).__name__, str(exc))
        bounds.append((t0, clock()))
        answers.append(answer)
    raw_wall = clock() - start
    # each op scaled by the speed samples in and around it, so a change of
    # machine speed within the pass is followed op by op
    times = [sampler.scaled(t0, t1) for t0, t1 in bounds]
    return Pass(sum(times), raw_wall, times, answers, recorder)


def setup(workload, seed, sampler):
    """Import semih1 and build the inputs SETUP_REPEATS times; keeps the last."""
    durations = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        prog = Program()
        ops = workloads.WORKLOADS[workload](prog, seed)
        durations.append(sampler.scaled(t0, time.perf_counter()))
    return prog, ops, statistics.median(durations)


def measure(prog, ops, seconds, traced, sampler):
    """Passes for about ``seconds``; with ``traced``, untraced and traced alternate."""
    tracer = spans.Tracer(prog)
    passes = []
    start = time.perf_counter()
    while True:
        recorder = None
        if traced and len(passes) % 2 == 1:
            recorder = spans.Recorder(keep_spans=len(passes) == 1)
        try:
            if recorder is not None:
                tracer.wrap(recorder)
            passes.append(run_pass(ops, sampler, recorder))
        finally:
            tracer.unwrap()
        elapsed = time.perf_counter() - start
        if traced and len(passes) < 2:
            continue
        if elapsed + max(p.raw_wall for p in passes) > seconds:
            return passes


def op_stats(passes):
    """Per-op medians over the passes, then their distribution in ms."""
    per_op = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
    ms = [1000 * t for t in per_op]
    p95 = statistics.quantiles(ms, n=20)[18] if len(ms) > 1 else ms[0]
    geo = math.exp(statistics.fmean(math.log(max(x, 1e-9)) for x in ms))
    return per_op, {"op_ms_geomean": geo, "op_ms_p50": statistics.median(ms), "op_ms_p95": p95}


def check_answers(ops, passes):
    """(failed op runs, first failures) over every pass, against the oracle."""
    failed, notes = 0, []
    reference = passes[0].answers
    for p in passes:
        for op, answer, first in zip(ops, p.answers, reference):
            reason = op.check(answer)
            if reason is None and answer != first:
                reason = f"answer differs between passes: {answer!r} vs {first!r}"
            if reason is not None:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"{op.name}: {reason}")
    return failed, notes


def layer_metrics(passes):
    traced = [p for p in passes if p.recorder is not None]
    plain = [p for p in passes if p.recorder is None]
    each = [spans.layer_metrics(p.recorder) for p in traced]
    # counts are the same in every traced pass; times take the median
    out = {name: (value if PER_LAYER[name] in ("count", "bytes")
                  else statistics.median(m[name] for m in each))
           for name, value in each[0].items()}
    out["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                   / statistics.median(p.wall for p in plain) - 1)
    return out


def report_rows(workload, ops, per_op, answers):
    """Human-readable rows for the workload."""
    rows = []
    if workload == "ladder":
        rows.append(f"{'rung':<14}{'dim':>5}{'time_s':>10}  answer")
        for op, t, answer in zip(ops, per_op, answers):
            rows.append(f"{op.name:<14}{op.info['dim']:>5}{t:>10.4f}  {_brief(answer)}")
        top = max(range(len(ops)), key=per_op.__getitem__)
        rows.append(f"top_rung_s {per_op[top]:.4f} ({ops[top].name})")
    elif workload == "battery":
        slow = sorted(range(len(ops)), key=per_op.__getitem__, reverse=True)
        rows.append("slowest ops:")
        for i in slow[:5]:
            rows.append(f"  {ops[i].name:<28} {ops[i].info['kind']:<17} dim {ops[i].info['dim']}"
                        f"  {1000 * per_op[i]:.2f} ms")
    else:
        kinds = {}
        for op, answer in zip(ops, answers):
            # run_file answers (exit code, error type or None, jobs)
            err = answer[1] if isinstance(answer[1], str) else None
            kinds[(op.info["kind"], err)] = kinds.get((op.info["kind"], err), 0) + 1
        rejected = sum(n for (_, err), n in kinds.items() if err is not None)
        rows.append(f"ops accepted {len(ops) - rejected}, rejected {rejected}")
        for (kind, err), n in sorted(kinds.items(), key=str):
            rows.append(f"  {kind:<18} {err or 'accepted':<18} {n}")
    return rows


def _brief(answer):
    if isinstance(answer, tuple) and len(answer) == 2 and isinstance(answer[1], tuple):
        verdicts = " ".join(f"{r[0]}:{'ok' if r[1] == 'verified' else 'gated'}"
                            for r in answer[1] if isinstance(r, tuple))
        return f"h1={answer[0]} {verdicts}"
    if isinstance(answer, tuple) and answer and answer[0] == 0:
        return "exit 0"
    return f"h1={answer}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    """Run the benchmark; returns the exit code."""
    args = parse_args(argv)
    with SpeedSampler() as sampler:
        try:
            prog, ops, setup_s = setup(args.workload, args.seed, sampler)
        except MissingProgram as exc:
            print(f"cannot benchmark: {exc}", file=sys.stderr)
            return 2
        passes = measure(prog, ops, args.seconds, bool(args.trace), sampler)
    failed, notes = check_answers(ops, passes)
    attempted = len(ops) * len(passes)
    plain = [p for p in passes if p.recorder is None]
    per_op, stats = op_stats(plain)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(plain)} untraced and {len(passes) - len(plain)} traced passes")
    print("pass wall s at reference speed: "
          + " ".join(f"{p.wall:.3f}" for p in passes)
          + "; raw: " + " ".join(f"{p.raw_wall:.3f}" for p in passes))
    for row in report_rows(args.workload, ops, per_op, passes[0].answers):
        print(row)
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for note in notes:
        print(f"  FAILED {note}")
    if args.trace:
        values = layer_metrics(passes)
        units = PER_LAYER
        first = next(p for p in passes if p.recorder is not None)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        spans.write_spans(first.recorder, span_file)
        print(f"spans of the first traced pass: {span_file.relative_to(ROOT)}")
    else:
        values = dict(stats, setup_s=setup_s,
                      wall_s=statistics.median(p.wall for p in plain),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
