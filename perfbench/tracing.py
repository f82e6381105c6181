"""Span tracing of phaselab from outside the library.

The tracer replaces names in phaselab's module namespaces with timing
wrappers, exactly as each calling module binds them: ``phaselab.experiments``
sees wrapped ``newton_refine`` and ``extract_nodal_set``, ``phaselab.solvers``
sees wrapped ``energy`` and a proxy for the ``spla`` / ``scipy.linalg`` names
it uses, and so on.  Nothing in ``src/`` is edited; ``uninstall`` puts every
original object back.

Each call becomes one span ``(name, start, end, parent, op)`` kept in memory;
counters (Newton iterations, flow steps, Krylov iterations, bytes written)
are read off the same calls.  ``summarize`` turns the spans of a set of
passes into per-layer metrics, including self time (a span's duration minus
the part its child spans cover).
"""

from __future__ import annotations

import gzip
import os
import time
from collections import defaultdict

# Span names start with the phaselab module (layer) the wrapped code lives in;
# the experiment drivers' self time is reported as experiments.self_s.
LAYERS = ("experiments", "solvers", "fields", "nodal", "io", "reports")


class ReferenceKernel:
    """A fixed piece of numpy/scipy work that gauges how fast the host runs now.

    The host is shared: identical work runs up to 1.8x slower for seconds to
    minutes at a time, in CPU time as much as in wall time, because other
    tenants take the processor.  The kernel does the kinds of work a
    relaxation does (a sparse LU factorization, triangular solves, small
    elementwise numpy operations, Python-level loops) on a fixed tridiagonal
    system and touches no phaselab code, so a change to phaselab cannot change
    its time.  On an undisturbed 2-vCPU Xeon VM it takes about
    ``NOMINAL_S``.
    """

    NOMINAL_S = 1.75e-3

    def __init__(self, n=512):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        self._np, self._splu = np, spla.splu
        off = np.full(n - 1, -1.0)
        self._a = sp.diags([off, np.full(n, 2.5), off], [-1, 0, 1], format="csc")
        self._x = np.linspace(0.0, 1.0, n)
        self()

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        np = self._np
        t0 = time.perf_counter()
        for _ in range(3):
            lu = self._splu(self._a)
            y = self._x.copy()
            for _ in range(20):
                y = lu.solve(np.tanh(y) + self._x)
                y -= y.mean()
        return time.perf_counter() - t0


class OpClock:
    """Operation boundaries, and the host's speed at each of them.

    Every census relaxation starts with one ``multi_interface_seed`` call in
    ``phaselab.experiments``, so ``install`` marks an operation there; one
    more mark after the census ends the last operation.  The construction
    pipeline marks its own operations.  Marks also tell the tracer which
    operation a span is in.

    With a ``reference`` kernel, each mark runs it once, between the end of
    the previous operation and the start of the next, so its time counts in
    neither; an operation's ``reference`` time is the mean of the kernel times
    at its two ends.
    """

    def __init__(self, tracer=None, reference=None):
        self.ends = []  # clock read at each mark, before the kernel
        self.starts = []  # clock read at each mark, after the kernel
        self.refs = []  # kernel time at each mark (0 without a kernel)
        self.tracer = tracer
        self.reference = reference

    def mark(self):
        self.ends.append(time.perf_counter())
        self.refs.append(self.reference() if self.reference is not None else 0.0)
        if self.tracer is not None:
            self.tracer.op = len(self.starts)
        self.starts.append(time.perf_counter())

    def install(self, experiments_module):
        original = experiments_module.multi_interface_seed

        def marked(*args, **kwargs):
            self.mark()
            return original(*args, **kwargs)

        experiments_module.multi_interface_seed = marked

    def span(self, start: int) -> list[tuple[float, float]]:
        """``(latency, reference time)`` of each operation between mark
        ``start`` and the last mark."""
        n = len(self.starts) - 1
        return [
            (self.ends[i + 1] - self.starts[i], 0.5 * (self.refs[i] + self.refs[i + 1]))
            for i in range(start, n)
        ]


class _Proxy:
    """Stand-in for a module: selected attributes wrapped, the rest forwarded."""

    def __init__(self, target, overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []
        self.op = -1
        self.counters = defaultdict(float)
        self._restore = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, after=None, on_error=None, kwargs_hook=None):
        spans, stack, counters = self.spans, self.stack, self.counters

        def traced(*args, **kwargs):
            if kwargs_hook is not None:
                kwargs = kwargs_hook(kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, counters)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(args, out, counters)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module, attr, replacement):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, pl):
        """Wrap the public names each phaselab module calls."""
        import phaselab.experiments as ex
        import phaselab.fields as fields
        import phaselab.nodal as nodal
        import phaselab.reports as reports
        import phaselab.solvers as solvers

        w = self.wrap

        def newton_done(args, res, c):
            c["newton.iters"] += res.iterations
            c["newton.converged"] += bool(res.converged)

        def newton_failed(exc, c):
            residuals = getattr(exc, "residuals", None)
            if residuals:
                c["newton.iters"] += len(residuals) - 1

        def flow_done(args, trace, c):
            c["flow.steps"] += trace.steps

        def saved(args, out, c):
            c["io.bytes"] += os.path.getsize(args[1])

        def loaded(args, out, c):
            c["io.bytes"] += os.path.getsize(args[0])

        def report_bytes(args, out, c):
            c["reports.bytes"] += len(out)

        def minres_done(args, out, c):
            if out[1] != 0:
                c["krylov.info_nonzero"] += 1

        counters = self.counters

        def count_krylov(kwargs):
            # the callback only counts; MINRES iterates are unchanged
            inner = kwargs.get("callback")

            def callback(xk):
                counters["krylov.iters"] += 1
                if inner is not None:
                    inner(xk)

            return {**kwargs, "callback": callback}

        solver_fns = {
            "newton_refine": w("solvers.newton", solvers.newton_refine, newton_done, newton_failed),
            "gradient_flow": w("solvers.flow", solvers.gradient_flow, flow_done),
            "solve_dirichlet_model": w("solvers.model", solvers.solve_dirichlet_model),
            "existence_threshold": w("solvers.threshold", solvers.existence_threshold),
            "reflect_extend": w("solvers.glue", solvers.reflect_extend),
        }
        nodal_fns = {
            "extract_nodal_set": w("nodal.extract", nodal.extract_nodal_set),
            **{
                name: w(f"nodal.{name}", getattr(nodal, name))
                for name in (
                    "check_alternation",
                    "check_congruent_intervals",
                    "check_rotation_symmetry",
                    "cluster_fiber_angles",
                    "fit_decay",
                )
            },
        }

        # the package namespace: what the benchmark itself calls
        for name in ("experiment_two_interface", "experiment_m_rigidity", "experiment_decay",
                     "experiment_comparison", "experiment_slide"):
            self._patch(pl, name, w(f"experiments.{name[len('experiment_'):]}", getattr(pl, name)))
        for name, fn in {**solver_fns, **nodal_fns}.items():
            self._patch(pl, name, fn)
        self._patch(pl, "save_snapshot", w("io.save", pl.save_snapshot, saved))
        self._patch(pl, "load_snapshot", w("io.load", pl.load_snapshot, loaded))
        self._patch(
            reports.ExperimentReport,
            "to_json_bytes",
            w("reports.to_json", reports.ExperimentReport.to_json_bytes, report_bytes),
        )

        # phaselab.experiments
        for name, fn in {**solver_fns, **nodal_fns}.items():
            if hasattr(ex, name):
                self._patch(ex, name, fn)

        # phaselab.solvers: field evaluations, its own cross-calls, linear algebra
        self._patch(solvers, "energy", w("fields.energy", fields.energy))
        self._patch(solvers, "gradient", w("fields.gradient", fields.gradient))
        self._patch(solvers, "laplacian", w("fields.laplacian", fields.laplacian))
        for name in ("newton_refine", "gradient_flow", "solve_dirichlet_model"):
            self._patch(solvers, name, solver_fns[name])
        spla = solvers.spla
        self._patch(solvers, "spla", _Proxy(spla, {
            "splu": w("solvers.linsolve.splu", spla.splu),
            "minres": w("solvers.linsolve.minres", spla.minres, minres_done,
                        kwargs_hook=count_krylov),
        }))
        scipy_mod = solvers.scipy
        self._patch(solvers, "scipy", _Proxy(scipy_mod, {
            "linalg": _Proxy(scipy_mod.linalg, {
                "solve_banded": w("solvers.linsolve.banded", scipy_mod.linalg.solve_banded),
            }),
        }))

        # phaselab.fields calls its own laplacian; phaselab.solvers imports
        # extract_nodal_set from phaselab.nodal at call time
        self._patch(fields, "laplacian", w("fields.laplacian", fields.laplacian))
        self._patch(nodal, "extract_nodal_set", nodal_fns["extract_nodal_set"])

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{op}\n")


def summarize(tracer: Tracer, passes: int, wall_total: float) -> dict:
    """Per-layer metrics from all recorded spans, per traced pass.

    Counts and times are totals divided by ``passes``; ratios are taken over
    the totals.  Linear solves count only inside ``newton_refine`` (Jacobian
    solves); the factorizations and banded solves of flow steps belong to the
    flow.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    def under_newton(i):
        parent = spans[i][3]
        while parent >= 0:
            name = spans[parent][0]
            if name == "solvers.newton":
                return True
            if name == "solvers.flow":
                return False
            parent = spans[parent][3]
        return False

    calls = defaultdict(int)
    incl = defaultdict(float)
    self_by_layer = defaultdict(float)
    linsolve = {"calls": 0, "s": 0.0, "splu": 0}
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        dur = t1 - t0
        calls[name] += 1
        incl[name] += dur
        self_by_layer[name.split(".", 1)[0]] += dur - child_time[i]
        if name.startswith("solvers.linsolve.") and under_newton(i):
            linsolve["calls"] += 1
            linsolve["s"] += dur
            linsolve["splu"] += name == "solvers.linsolve.splu"

    c = tracer.counters
    per = 1.0 / passes
    nodal_checks = sum(v for k, v in incl.items() if k.startswith("nodal.") and k != "nodal.extract")
    flow_steps = c["flow.steps"]
    minres_calls = calls["solvers.linsolve.minres"]
    m = {
        "solvers.linsolve.calls": linsolve["calls"] * per,
        "solvers.linsolve.s": linsolve["s"] * per,
        "solvers.linsolve.factorizations": linsolve["splu"] * per,
        "solvers.krylov.iters": c["krylov.iters"] * per,
        "solvers.krylov.iters_per_solve": c["krylov.iters"] / minres_calls if minres_calls else 0.0,
        "solvers.krylov.info_nonzero": c["krylov.info_nonzero"] * per,
        "solvers.newton.calls": calls["solvers.newton"] * per,
        "solvers.newton.iters": c["newton.iters"] * per,
        "solvers.newton.s": incl["solvers.newton"] * per,
        "solvers.newton.converged_ratio": (
            c["newton.converged"] / calls["solvers.newton"] if calls["solvers.newton"] else 0.0
        ),
        "solvers.flow.calls": calls["solvers.flow"] * per,
        "solvers.flow.steps": flow_steps * per,
        "solvers.flow.s": incl["solvers.flow"] * per,
        "solvers.flow.step_us": 1e6 * incl["solvers.flow"] / flow_steps if flow_steps else 0.0,
        "fields.energy.calls": calls["fields.energy"] * per,
        "fields.energy.s": incl["fields.energy"] * per,
        "fields.laplacian.calls": calls["fields.laplacian"] * per,
        "solvers.model.calls": calls["solvers.model"] * per,
        "solvers.model.s": incl["solvers.model"] * per,
        "solvers.threshold.s": incl["solvers.threshold"] * per,
        "nodal.extract.calls": calls["nodal.extract"] * per,
        "nodal.extract.s": incl["nodal.extract"] * per,
        "nodal.checks.s": nodal_checks * per,
        "io.save.s": incl["io.save"] * per,
        "io.load.s": incl["io.load"] * per,
        "io.bytes": c["io.bytes"] * per,
        "reports.to_json.s": incl["reports.to_json"] * per,
        "reports.bytes": c["reports.bytes"] * per,
        "experiments.self_s": self_by_layer["experiments"] * per,
    }
    for layer in LAYERS[1:]:
        m[f"self.{layer}.s"] = self_by_layer[layer] * per
    accounted = sum(self_by_layer.values())
    m["trace.accounted_frac"] = accounted / wall_total if wall_total > 0 else 0.0
    m["trace.spans"] = len(spans) * per
    return m
