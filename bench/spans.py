"""Outside-in span recorder for the traced benchmark run.

The recorder wraps the public functions of each semih1 layer from the
benchmark's side: every ``semih1.*`` module that imported a wrapped name gets
the wrapper bound in its place, and ``unwrap`` puts every original back.
Nothing inside semih1 knows about tracing.

Each wrapped call is a span (name, start, end, parent, op id).  Self time is
a span's duration minus the time of its child spans.  Two private functions
are hooked as counters only, without a span: ``linalg._rref_rows`` (every
exact elimination: rows, cells and nonzeros fed in, rank out) and
``verify._memo`` (lookups of the per-product space cache).  Counting the
nonzeros scans every cell in Python; that time is charged to no layer and
left out of the op time that shares are taken of, so it shows only in
``trace.overhead_ratio``.  The speed sampler's ticks (about 1% of the time)
count to the span they interrupt.
"""

import functools
import inspect
import time

import workloads

LAYERS = ("linalg", "algebra", "products", "spaces", "verify", "instancefile", "selftest")

# Per-entry arithmetic helpers: a span around each call would cost more than
# the call, so their time counts to the layer that calls them.
LEAF_HELPERS = frozenset({"frac", "zero_vector", "add_into", "vectors_equal", "map_index"})

# linalg entries that solve one linear system, with the row count they take.
SYSTEM_ROWS = {
    "kernel": lambda m: m.rows,
    "rref": lambda m: m.rows,
    "row_space": lambda m: m.rows,
    "image": lambda m: m.cols,
    "solve_right": lambda m, rhs: m.rows,
    "Subspace.from_vectors": lambda cls, ambient, vectors: len(vectors),
}

# layers whose calls into the linalg solvers count as systems they built
ROW_LAYERS = ("spaces", "verify")

# The benchmark's own rendering of a `semih1 run` report (json.dumps and
# render_text) stands for the instancefile layer.
RENDER = (workloads, "render_report", "instancefile")


class LayerCounts:
    """Counters for one traced pass; every field repeats exactly per seed."""

    def __init__(self):
        self.rows_in = 0
        self.cells_in = 0
        self.nnz_in = 0
        self.rank_out = 0
        self.max_rows = 0
        self.systems = {layer: 0 for layer in ROW_LAYERS}
        self.rows_built = {layer: 0 for layer in ROW_LAYERS}
        self.memo_lookups = 0
        self.memo_keys = 0
        self.rules = {}
        self.bytes_in = 0


class Recorder:
    """Span stack, per-function totals and counters of one traced pass."""

    def __init__(self, keep_spans=False):
        self.names = []              # function id -> qualified name
        self.layer_of = []           # function id -> layer
        self.calls = []              # function id -> call count
        self.incl = []               # function id -> inclusive seconds
        self.self_time = []          # function id -> self seconds
        self.counts = LayerCounts()
        self.spans = [] if keep_spans else None
        self.op_time = 0.0
        self.op_child = 0.0
        self.count_time = 0.0        # nonzero counting, charged to no layer
        # frame: [function id, child seconds, layer, span id]
        self._stack = [[-1, 0.0, None, -1]]
        self._next_id = 0
        self._op_id = -1
        self._memo_products = {}

    def fid(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def run_op(self, op_id, fn):
        """Run ``fn()`` as the root span of one op; returns its result."""
        frame = [-1, 0.0, None, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        self._op_id = op_id
        self._memo_products = {}
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.op_time += t1 - t0
            self.op_child += frame[1]
            self.counts.memo_keys += sum(len(p._memo) for p in self._memo_products.values())
            self._memo_products = {}
            if self.spans is not None:
                self.spans.append((frame[3], -1, op_id, "op", t0, t1))
            self._op_id = -1

    def span_wrapper(self, fn, name, layer):
        fid = self.fid(name, layer)
        stack = self._stack
        clock = time.perf_counter
        calls, incl, self_time = self.calls, self.incl, self.self_time
        counts = self.counts
        rows_of = SYSTEM_ROWS.get(name.split(".", 1)[1]) if layer == "linalg" else None
        rule_tally = layer == "verify"
        bytes_arg = name == "instancefile.parse_instance_text"
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if rows_of is not None and parent[2] in ROW_LAYERS:
                counts.systems[parent[2]] += 1
                counts.rows_built[parent[2]] += rows_of(*args, **kwargs)
            if bytes_arg:
                counts.bytes_in += len(args[0].encode("utf-8"))
            frame = [fid, 0.0, layer, rec._next_id]
            rec._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                calls[fid] += 1
                incl[fid] += dur
                self_time[fid] += dur - frame[1]
                if rec.spans is not None:
                    rec.spans.append((frame[3], parent[3], rec._op_id, name, t0, t1))
            if rule_tally and parent[2] != "verify" and hasattr(result, "verdict"):
                counts.rules[result.verdict] = counts.rules.get(result.verdict, 0) + 1
            return result
        return wrapper

    def rref_counter(self, fn):
        counts = self.counts
        stack = self._stack
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def counted(rows, cols):
            t0 = clock()
            nrows = len(rows)
            counts.rows_in += nrows
            counts.cells_in += nrows * cols
            counts.nnz_in += sum(1 for row in rows for x in row if x)
            if nrows > counts.max_rows:
                counts.max_rows = nrows
            # as child time of the enclosing span, so not in its self time
            dt = clock() - t0
            stack[-1][1] += dt
            rec.count_time += dt
            reduced, pivots = fn(rows, cols)
            counts.rank_out += len(pivots)
            return reduced, pivots
        return counted

    def memo_counter(self, fn):
        counts = self.counts
        rec = self

        @functools.wraps(fn)
        def counted(p, key, thunk):
            counts.memo_lookups += 1
            rec._memo_products[id(p)] = p
            return fn(p, key, thunk)
        return counted


class Tracer:
    """Binds a recorder's wrappers into the program and takes them out again."""

    def __init__(self, prog):
        """``prog`` holds the loaded modules, one attribute per layer, and
        ``prog.modules`` lists every loaded ``semih1.*`` module."""
        self.prog = prog
        self._bindings = []   # (owner, attribute, original)

    def entries(self):
        """Every (owner module, attribute, qualified name, layer) to wrap."""
        out = []
        for layer in LAYERS:
            mod = getattr(self.prog, layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in LEAF_HELPERS):
                    out.append((mod, attr, f"{layer}.{attr}", layer))
        return out

    def wrap(self, recorder):
        if self._bindings:
            raise RuntimeError("tracer is already bound")
        replace = {}
        for mod, attr, name, layer in self.entries():
            fn = getattr(mod, attr)
            replace[fn] = recorder.span_wrapper(fn, name, layer)
        linalg, verify = self.prog.linalg, self.prog.verify
        replace[linalg._rref_rows] = recorder.rref_counter(linalg._rref_rows)
        replace[verify._memo] = recorder.memo_counter(verify._memo)
        for mod in self.prog.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._bind(mod, attr, replace[obj])
        subspace = linalg.Subspace
        original = subspace.__dict__["from_vectors"]
        wrapped = recorder.span_wrapper(original.__func__, "linalg.Subspace.from_vectors",
                                        "linalg")
        self._bind(subspace, "from_vectors", classmethod(wrapped), original)
        owner, attr, layer = RENDER
        fn = getattr(owner, attr)
        self._bind(owner, attr, recorder.span_wrapper(fn, f"{layer}.{attr}", layer))

    def _bind(self, owner, attr, value, original=None):
        if original is None:
            original = getattr(owner, attr)
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, value)

    def unwrap(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings = []


def layer_metrics(recorder):
    """Per-layer figures of one traced pass, named as in BENCHMARK.json."""
    total = recorder.op_time - recorder.count_time
    out = {}
    for layer in LAYERS:
        ids = [i for i, l in enumerate(recorder.layer_of) if l == layer]
        self_s = sum(recorder.self_time[i] for i in ids)
        out[f"{layer}.calls"] = sum(recorder.calls[i] for i in ids)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / total
    c = recorder.counts

    def incl(*names):
        return sum(recorder.incl[i] for i, n in enumerate(recorder.names) if n in names)

    out["linalg.rows_in"] = c.rows_in
    out["linalg.cells_in"] = c.cells_in
    out["linalg.nnz_in"] = c.nnz_in
    out["linalg.rank_out"] = c.rank_out
    out["linalg.rank_ratio"] = c.rank_out / c.rows_in
    out["linalg.max_rows"] = c.max_rows
    for layer in ROW_LAYERS:
        out[f"{layer}.systems"] = c.systems[layer]
        out[f"{layer}.rows_built"] = c.rows_built[layer]
    out["verify.memo_lookups"] = c.memo_lookups
    out["verify.memo_hit_ratio"] = 1 - c.memo_keys / c.memo_lookups
    out["verify.rules_verified"] = c.rules.get("verified", 0)
    out["verify.rules_gated"] = c.rules.get("hypotheses-not-met", 0)
    out["algebra.validate_s"] = incl("algebra.validate_algebra", "algebra.validate_module",
                                     "algebra.validate_corner", "algebra.validate_character")
    out["instancefile.parse_s"] = incl("instancefile.parse_instance_text")
    out["instancefile.run_s"] = incl("instancefile.run_jobs")
    out["instancefile.render_s"] = incl("instancefile.render_report")
    out["instancefile.bytes_in"] = c.bytes_in
    out["trace.unattributed_share"] = (recorder.op_time - recorder.op_child) / total
    return out


def write_spans(recorder, path):
    """Write the kept spans as tab-separated lines: id, parent, op, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\top\tname\tstart\tend\n")
        for span in recorder.spans:
            fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)
