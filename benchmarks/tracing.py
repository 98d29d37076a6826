"""Span tracing of the bvlsc layers from outside the package.

Nothing in `src/` is changed.  `Tracer.install()` replaces every public
function of each layer module, wherever a module of the package has bound it
(for example `bvlsc.quasiconvex.minimize_field`), with a wrapper that records
a span; `uninstall()` puts the originals back.  Spans carry an operation id,
their own id, their parent's id, a name `layer.function`, start and end.
They are kept in memory and written out once, at the end of a run.

Methods called once per solver iteration (integrand evaluations,
`CompactSet.dist`, the solver's objective) would produce hundreds of
thousands of spans per pass.  They are recorded as counted, timed leaves
instead: their time is charged to the enclosing span as child time, so a
span's self time is its duration minus its child spans and its leaves.
"""

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("meshing", "bv", "regions", "integrands", "functional", "minimize",
          "quasiconvex", "boundary", "sequences", "decompose", "verdict")

# private functions traced as well, because the decomposition time sits there
EXTRA_FUNCTIONS = {"meshing": ("_refine_all",)}

# (metric, unit, better, end-to-end metric and workload it should move)
PER_LAYER = [
    ("op.busy_s", "s", "lower", "operation time per pass; the base of every share"),
    ("minimize.solves", "count", "lower", "none; counts solves per pass"),
    ("minimize.busy_s", "s", "lower", "op_s_p50 and ops_per_s on analyze_bundled and halfball_2d; none on decompose_1d"),
    ("minimize.self_s", "s", "lower", "op_s_p50 and ops_per_s on analyze_bundled and halfball_2d; none on decompose_1d"),
    ("minimize.share", "ratio", "lower", "bounds the saving of a solver change on each workload"),
    ("minimize.iterations", "count", "lower", "op_s_p50 on analyze_bundled and halfball_2d"),
    ("minimize.restarts", "count", "lower", "op_s_p50 on analyze_bundled and halfball_2d"),
    ("minimize.budget_used", "ratio", "lower", "op_s_tail on halfball_2d (full-budget linear solves)"),
    ("minimize.objective_evals", "count", "lower", "ops_per_s on analyze_bundled and halfball_2d"),
    ("minimize.vg_us", "us", "lower", "op_s_p50 and ops_per_s on analyze_bundled and halfball_2d"),
    ("minimize.vg_us.qc128", "us", "lower", "op_s_p50 on analyze_bundled"),
    ("minimize.vg_us.hb1275", "us", "lower", "op_s_p50 and op_s_tail on halfball_2d"),
    ("minimize.low_confidence", "count", "lower", "none; a verdict guard"),
    ("integrands.eval_points", "count", "lower", "op_s_p50 on analyze_bundled and halfball_2d (3x fewer in 2D with x frozen per cell)"),
    ("integrands.busy_s", "s", "lower", "op_s_p50 on analyze_bundled and halfball_2d"),
    ("integrands.self_s", "s", "lower", "op_s_p50 on analyze_bundled and halfball_2d"),
    ("meshing.calls", "count", "lower", "setup_s and op_s_p50 on halfball_2d"),
    ("meshing.busy_s", "s", "lower", "op_s_p50 on halfball_2d; ops_per_s on decompose_1d (refinement)"),
    ("meshing.self_s", "s", "lower", "ops_per_s on decompose_1d"),
    ("meshing.cells_built", "count", "lower", "ops_per_s and peak_rss_mb on decompose_1d (refinement cache)"),
    ("meshing.halfball_mesh_ms", "ms", "lower", "op_s_p50 on halfball_2d and setup_s if moved to set-up"),
    ("bv.tv_on_neighborhood.calls", "count", "lower", "ops_per_s on decompose_1d; none on analyze_bundled"),
    ("bv.tv_on_neighborhood.busy_s", "s", "lower", "ops_per_s and op_s_p50 on decompose_1d; none on analyze_bundled"),
    ("bv.tv_on_neighborhood.share", "ratio", "lower", "bounds the saving of a refinement change on decompose_1d"),
    ("bv.tv_on_neighborhood_us", "us", "lower", "ops_per_s on decompose_1d"),
    ("bv.does_not_charge.busy_s", "s", "lower", "ops_per_s on decompose_1d"),
    ("bv.derivative.calls", "count", "lower", "ops_per_s on decompose_1d"),
    ("bv.self_s", "s", "lower", "ops_per_s on decompose_1d"),
    ("regions.dist.calls", "count", "lower", "ops_per_s on decompose_1d (one dist per measure)"),
    ("regions.self_s", "s", "lower", "ops_per_s on decompose_1d"),
    ("quasiconvex.qc_deficit.calls", "count", "lower", "none; counts qc jobs on analyze_bundled"),
    ("quasiconvex.qc_deficit.busy_s", "s", "lower", "op_s_p50 on analyze_bundled"),
    ("quasiconvex.qc_deficit.self_s", "s", "lower", "op_s_p50 on analyze_bundled"),
    ("boundary.halfball_deficit.calls", "count", "lower", "none; counts qslb jobs"),
    ("boundary.halfball_deficit.busy_s", "s", "lower", "op_s_p50 on analyze_bundled and halfball_2d"),
    ("boundary.halfball_deficit.self_s", "s", "lower", "op_s_p50 on halfball_2d"),
    ("decompose.local_decompose.calls", "count", "lower", "none; one per decompose_1d operation"),
    ("decompose.local_decompose.busy_s", "s", "lower", "ops_per_s on decompose_1d"),
    ("decompose.local_decompose.self_s", "s", "lower", "ops_per_s on decompose_1d"),
    ("decompose.verify_properties.calls", "count", "lower", "none; one per decompose_1d operation"),
    ("decompose.verify_properties.busy_s", "s", "lower", "ops_per_s on decompose_1d"),
    ("decompose.verify_properties.self_s", "s", "lower", "ops_per_s on decompose_1d"),
    ("sequences.empirical_liminf.busy_s", "s", "lower", "op_s_p50 on analyze_bundled"),
    ("sequences.necessity_witness.busy_s", "s", "lower", "op_s_p50 on analyze_bundled"),
    ("sequences.generate.calls", "count", "lower", "op_s_p50 on analyze_bundled"),
    ("functional.eval_F.calls", "count", "lower", "op_s_p50 on analyze_bundled"),
    ("functional.eval_F.busy_s", "s", "lower", "op_s_p50 on analyze_bundled"),
    ("verdict.analyze.busy_s", "s", "lower", "op_s_p50 on analyze_bundled only"),
    ("verdict.io_s", "s", "lower", "op_s_p50 on analyze_bundled only"),
    ("verdict.report_bytes", "bytes", "lower", "op_s_p50 on analyze_bundled only"),
    ("trace.ops_per_s", "1/s", "higher", "ops_per_s of the same workload, traced"),
    ("trace.overhead_pct", "%", "lower", "none; tracing cost against untraced passes of the same run"),
]


class Tracer:
    """Records spans and leaf counters while installed; see module docstring."""

    def __init__(self):
        self.spans = []  # (op, id, parent, name, start, end, leaf_s)
        self.counts = Counter()
        self.leaf_s = defaultdict(float)  # leaf time per layer
        self.leaf_nested_s = defaultdict(float)  # part of it inside the layer's own spans
        self._stack = []  # open spans: [id, name, start, leaf_s, layer]
        self._next_id = 0
        self._leaf_depth = 0
        self._patches = []
        self.op_id = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        rec = [self._next_id, name, time.perf_counter(), 0.0, name.split(".")[0]]
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((self.op_id, rec[0], parent, rec[1], rec[2], end, rec[3]))

    @contextlib.contextmanager
    def operation(self, op_id, name):
        """The root span of one operation."""
        self.op_id = op_id
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _span_wrapper(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_layer = tracer._stack[-1][4] if tracer._stack else None
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if on_result is not None:
                on_result(result, parent_layer)
            return result

        return wrapper

    def _leaf_wrapper(self, layer, fn, count_rows=False):
        """Counted, timed call charged to the enclosing span; nested calls of
        the same kind (a frozen integrand calling its base) count once.  With
        `count_rows`, the rows of the batch argument `xi` are counted too."""
        tracer = self
        counts, leaf_s, nested_s = self.counts, self.leaf_s, self.leaf_nested_s
        perf = time.perf_counter
        calls_key, rows_key = f"{layer}.leaf_calls", f"{layer}.eval_points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._leaf_depth:
                return fn(*args, **kwargs)
            tracer._leaf_depth = 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tracer._leaf_depth = 0
                counts[calls_key] += 1
                if count_rows:
                    xi = args[2] if len(args) > 2 else kwargs.get("xi")
                    counts[rows_key] += len(xi) if getattr(xi, "ndim", 0) == 3 else 1
                leaf_s[layer] += dt
                if tracer._stack:
                    top = tracer._stack[-1]
                    top[3] += dt
                    if top[4] == layer:  # already inside the layer's busy time
                        nested_s[layer] += dt

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [importlib.import_module(f"bvlsc.{m}") for m in LAYERS]
        package = importlib.import_module("bvlsc")
        call_sites = modules + [package, importlib.import_module("bvlsc.cli")]
        replacements = {}
        for layer, mod in zip(LAYERS, modules):
            for fname in list(mod.__all__) + list(EXTRA_FUNCTIONS.get(layer, ())):
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fname}"
                wrapped = self._span_wrapper(
                    name, fn, self._count_cells if layer == "meshing" else None)
                if name == "minimize.minimize_field":
                    wrapped = self._solver_wrapper(wrapped)
                replacements[id(fn)] = wrapped
        for site in call_sites:
            for attr, value in list(vars(site).items()):
                if id(value) in replacements:
                    self._patch(site, attr, replacements[id(value)])
        self._install_leaves()

    def _install_leaves(self):
        from bvlsc.integrands import Integrand, RecessionFn
        from bvlsc.regions import CompactSet

        for cls in (Integrand, RecessionFn):
            for meth in ("__call__", "grad_xi", "at"):
                if meth in vars(cls):
                    self._patch(cls, meth, self._leaf_wrapper(
                        "integrands", vars(cls)[meth], count_rows=True))
        tracer = self
        dist = self._leaf_wrapper("regions", vars(CompactSet)["dist"])

        @functools.wraps(dist)
        def counted_dist(*args, **kwargs):
            tracer.counts["regions.dist.calls"] += 1
            return dist(*args, **kwargs)

        self._patch(CompactSet, "dist", counted_dist)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-layer hooks -----------------------------------------------------

    def _count_cells(self, result, parent_layer):
        """Cells of a mesh, patch or refinement built on behalf of another layer."""
        if parent_layer == "meshing":
            return
        if isinstance(result, tuple):  # _refine_all: (vertices, cells)
            self.counts["meshing.cells_built"] += len(result[1])
        else:
            self.counts["meshing.cells_built"] += getattr(result, "mesh", result).n_cells

    def _solver_wrapper(self, traced_solve):
        tracer = self

        @functools.wraps(traced_solve)
        def solve(objective, mesh, clamped, options=None):
            res = traced_solve(_CountingObjective(objective, tracer), mesh,
                               clamped, options)
            max_iter = options.max_iter if options is not None else 500
            tracer.counts["minimize.iterations"] += res.iterations
            tracer.counts["minimize.restarts"] += res.restarts_used
            tracer.counts["minimize.budget_iterations"] += res.restarts_used * max_iter
            tracer.counts["minimize.low_confidence"] += int(res.low_confidence)
            return res

        return solve

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(["op", "id", "parent", "name", "start", "end",
                                 "leaf_s"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _CountingObjective:
    """Solver objective that counts evaluations and times value_and_grad."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self.M = inner.M

    def value(self, values, delta=0.0):
        self._tracer.counts["minimize.objective_evals"] += 1
        return self._inner.value(values, delta)

    def value_and_grad(self, values, delta=0.0):
        counts = self._tracer.counts
        counts["minimize.objective_evals"] += 1
        counts["minimize.vg_calls"] += 1
        t0 = time.perf_counter()
        out = self._inner.value_and_grad(values, delta)
        counts["minimize.vg_s"] += time.perf_counter() - t0
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


def layer_metrics(tracer, passes):
    """Per-pass per-layer figures from the spans and counters of `passes`
    traced passes.  Layer busy time counts entries into the layer from
    another layer (so nested calls are not counted twice); self time is
    duration minus child spans and leaves."""
    by_id = {}
    children = defaultdict(float)
    for rec in tracer.spans:
        by_id[rec[1]] = rec
        if rec[2] is not None:
            children[rec[2]] += rec[5] - rec[4]

    def ancestors(rec):
        while rec[2] is not None:
            rec = by_id[rec[2]]
            yield rec

    fn_calls, fn_busy, fn_self = Counter(), defaultdict(float), defaultdict(float)
    layer_busy, layer_self, layer_calls = defaultdict(float), defaultdict(float), Counter()
    for rec in tracer.spans:
        name = rec[3]
        layer = name.split(".")[0]
        dur = rec[5] - rec[4]
        own = dur - children[rec[1]] - rec[6]
        fn_calls[name] += 1
        fn_self[name] += own
        layer_self[layer] += own
        parent = by_id.get(rec[2])
        if parent is None or parent[3].split(".")[0] != layer:
            layer_busy[layer] += dur
            layer_calls[layer] += 1
        if all(a[3] != name for a in ancestors(rec)):
            fn_busy[name] += dur
    for leaf, seconds in tracer.leaf_s.items():
        layer_busy[leaf] += seconds - tracer.leaf_nested_s[leaf]
        layer_self[leaf] += seconds

    c = tracer.counts
    p = float(passes)
    op_busy = layer_busy["op"] / p
    out = {
        "op.busy_s": op_busy,
        "minimize.solves": fn_calls["minimize.minimize_field"] / p,
        "minimize.busy_s": layer_busy["minimize"] / p,
        "minimize.self_s": layer_self["minimize"] / p,
        "minimize.share": layer_busy["minimize"] / p / op_busy if op_busy else 0.0,
        "minimize.iterations": c["minimize.iterations"] / p,
        "minimize.restarts": c["minimize.restarts"] / p,
        "minimize.budget_used": (c["minimize.iterations"] / c["minimize.budget_iterations"]
                                 if c["minimize.budget_iterations"] else 0.0),
        "minimize.objective_evals": c["minimize.objective_evals"] / p,
        "minimize.vg_us": (1e6 * c["minimize.vg_s"] / c["minimize.vg_calls"]
                           if c["minimize.vg_calls"] else 0.0),
        "minimize.low_confidence": c["minimize.low_confidence"] / p,
        "integrands.eval_points": c["integrands.eval_points"] / p,
        "integrands.busy_s": layer_busy["integrands"] / p,
        "integrands.self_s": layer_self["integrands"] / p,
        "meshing.calls": layer_calls["meshing"] / p,
        "meshing.busy_s": layer_busy["meshing"] / p,
        "meshing.self_s": layer_self["meshing"] / p,
        "meshing.cells_built": c["meshing.cells_built"] / p,
        "bv.tv_on_neighborhood.calls": fn_calls["bv.tv_on_neighborhood"] / p,
        "bv.tv_on_neighborhood.busy_s": fn_busy["bv.tv_on_neighborhood"] / p,
        "bv.tv_on_neighborhood.share": (fn_busy["bv.tv_on_neighborhood"] / p / op_busy
                                        if op_busy else 0.0),
        "bv.does_not_charge.busy_s": fn_busy["bv.does_not_charge"] / p,
        "bv.derivative.calls": fn_calls["bv.derivative"] / p,
        "bv.self_s": layer_self["bv"] / p,
        "regions.dist.calls": c["regions.dist.calls"] / p,
        "regions.self_s": layer_self["regions"] / p,
        "sequences.empirical_liminf.busy_s": fn_busy["sequences.empirical_liminf"] / p,
        "sequences.necessity_witness.busy_s": fn_busy["sequences.necessity_witness"] / p,
        "sequences.generate.calls": fn_calls["sequences.generate"] / p,
        "functional.eval_F.calls": fn_calls["functional.eval_F"] / p,
        "functional.eval_F.busy_s": fn_busy["functional.eval_F"] / p,
        "verdict.analyze.busy_s": fn_busy["verdict.analyze"] / p,
        "verdict.io_s": (fn_busy["verdict.run_scenario"] - fn_busy["verdict.analyze"]) / p,
        "verdict.report_bytes": c["verdict.report_bytes"] / p,
    }
    for name in ("quasiconvex.qc_deficit", "boundary.halfball_deficit",
                 "decompose.local_decompose", "decompose.verify_properties"):
        out[f"{name}.calls"] = fn_calls[name] / p
        out[f"{name}.busy_s"] = fn_busy[name] / p
        out[f"{name}.self_s"] = fn_self[name] / p
    return out


def _median_us(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times))


def micro_timings():
    """Single-call timings of the hot kernels, taken with tracing off."""
    from bvlsc import regions
    from bvlsc.bv import derivative, tv_on_neighborhood
    from bvlsc.integrands import catalog_get, freeze_x
    from bvlsc.meshing import Domain, halfball_mesh, unit_square_mesh
    from bvlsc.minimize import BulkObjective
    from bvlsc.sequences import SequenceSpec, generate

    rng = np.random.default_rng(0)
    f = catalog_get("norm", {"M": 1, "N": 2})
    qc_mesh = unit_square_mesh(8)
    qc_obj = BulkObjective(qc_mesh, freeze_x(f, [0.5, 0.5]))
    qc_vals = rng.normal(size=(qc_mesh.n_vertices, 1))
    hb_mesh = halfball_mesh([1.0, 0.0], 0.05)
    hb_obj = BulkObjective(hb_mesh, freeze_x(f.recession.as_integrand(), [0.0, 0.0]))
    hb_vals = rng.normal(size=(hb_mesh.n_vertices, 1))
    spec = SequenceSpec("jump_migration", Domain.interval(0.0, 1.0), n_max=200)
    mu = derivative(generate(spec, 64))
    kset = regions.point([0.0])
    return {
        "minimize.vg_us.qc128": _median_us(lambda: qc_obj.value_and_grad(qc_vals, 1e-2), 300),
        "minimize.vg_us.hb1275": _median_us(lambda: hb_obj.value_and_grad(hb_vals, 1e-2), 100),
        "meshing.halfball_mesh_ms": _median_us(lambda: halfball_mesh([0.6, 0.8], 0.05), 7) / 1e3,
        "bv.tv_on_neighborhood_us": _median_us(lambda: tv_on_neighborhood(mu, kset, 0.1), 200),
    }
