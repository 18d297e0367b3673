"""Span tracing of heisadams from outside the package.

``install`` wraps public functions of each layer and rebinds every wrapper
in each ``heisadams.*`` module namespace (and class) that held the original,
so calls made inside the package are seen as well as calls made by the
benchmark.  Two kinds of wrapper exist:

* spans, for coarse calls: name, start, end and parent, kept in memory and
  written out when the run ends;
* counted calls, for calls made thousands of times per solve (one operator
  apply, one energy evaluation): a call count and busy time, attributed to
  the innermost open span instead of making spans of their own.

Busy time of a group (``grids.domain``, ``io.write`` ...) only counts the
outermost call of that group, so a group's time is never counted twice when
its members call each other.  ``layer_metrics`` turns a written trace into
the per-layer metrics of ``BENCHMARK.json``.  This module imports nothing of
heisadams at module level, so the parent process can read traces without it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.busy: Counter = Counter()
        self.counts: Counter = Counter()

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({"name": name, "start": clock(), "end": None,
                           "parent": self.stack[-1] if self.stack else None,
                           "counts": {}})
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = clock()
        self.stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        """Add to the global counter and to the innermost open span."""
        self.counts[key] += value
        if self.stack:
            c = self.spans[self.stack[-1]]["counts"]
            c[key] = c.get(key, 0) + value

    def wrap(self, fn, name: str, group: str | None = None, span: bool = True,
             after=None):
        """Wrapper recording calls of fn as name.

        A counted call (span=False) adds its count and busy time to the
        innermost open span; after(tracer, span_index, args, kwargs, result,
        outermost) runs once the call returned."""
        group = group or name
        tracer = self

        def wrapper(*args, **kwargs):
            outer = tracer.depth[group] == 0
            tracer.depth[group] += 1
            idx = tracer.open(name) if span else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.depth[group] -= 1
                if outer:
                    tracer.busy[group] += dt
                if idx is not None:
                    tracer.close(idx)
            tracer.add(name + ".calls")
            if not span:
                tracer.add(name + ".s", dt)
            if after is not None:
                after(tracer, idx, args, kwargs, result, outer)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def document(self, import_s: float) -> dict:
        return {"import_s": import_s, "spans": self.spans,
                "busy": dict(self.busy), "counts": dict(self.counts)}


def rebind(orig, new) -> int:
    """Replace every module-level binding of orig in the heisadams package."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "heisadams" or modname.startswith("heisadams.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                n += 1
    return n


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def install(ha) -> Tracer:
    """Wrap the public functions of every layer of the imported package."""
    import heisadams.cli
    import heisadams.io
    from heisadams.extremals import probe_to_csv
    from heisadams.grids import GridDomain
    from heisadams.rearrange import RearrangementProfile

    tr = Tracer()
    weights = {}   # (domain id, a) -> (domain, last array returned)

    def function(fn, name, **kw):
        if rebind(fn, tr.wrap(fn, name, **kw)) == 0:
            raise RuntimeError(f"{name} is bound nowhere in heisadams")

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tr.wrap(getattr(cls, attr), name, **kw))

    def op_cells(t, idx, args, kwargs, result, outer):
        t.add("operators.cells", args[0].values.size)

    def weight_build(t, idx, args, kwargs, result, outer):
        key = (id(args[0]), round(float(_arg(args, kwargs, 1, "a")), 12))
        held = weights.get(key)
        if held is None or held[1] is not result:
            weights[key] = (args[0], result)
            t.add("grids.singular_weight_builds")

    def write_size(pos):
        def after(t, idx, args, kwargs, result, outer):
            if outer:
                t.add("io.bytes_written", os.path.getsize(_arg(args, kwargs, pos, "path")))
        return after

    def cg_iters(t, idx, args, kwargs, result, outer):
        t.add("extremals.cg_iterations", result.cg_iterations)

    def lambda_iters(t, idx, args, kwargs, result, outer):
        t.add("varsolve.lambda_outer_iterations", result.iterations)

    def solve_stats(t, idx, args, kwargs, result, outer):
        opts = _arg(args, kwargs, 3, "opts") or ha.SolveOptions()
        t.spans[idx]["max_deform_iters"] = opts.max_deform_iters
        t.add("varsolve.newton_iterations", result[1].newton_iterations)

    def kernel_evals(t, idx, args, kwargs, result, outer):
        src = args[0].domain
        tgt = _arg(args, kwargs, 2, "target") or src
        t.add("convolve.kernel_evals", int(src.mask.sum()) * int(tgt.mask.sum()))

    function(ha.sublaplacian, "operators.sublaplacian", span=False, after=op_cells)
    for fn, name in ((ha.ball_grid, "grids.ball_grid"), (ha.box_grid, "grids.box_grid"),
                     (ha.group_lattice_grid, "grids.group_lattice_grid")):
        function(fn, name, group="grids.domain")
    method(GridDomain, "free_mask", "grids.free_mask", group="grids.domain", span=False)
    method(GridDomain, "gauge", "grids.gauge", group="grids.domain", span=False)
    method(GridDomain, "singular_weight", "grids.singular_weight", span=False,
           after=weight_build)
    function(ha.energy, "varsolve.energy", span=False)
    function(ha.grad_energy, "varsolve.grad_energy", span=False)
    function(ha.compute_constants, "constants.compute_constants")
    function(ha.decreasing_rearrangement, "rearrange.decreasing_rearrangement")
    function(ha.oneil_slack, "rearrange.oneil_slack")
    function(ha.riesz_convolve, "convolve.riesz_convolve", after=kernel_evals)
    function(ha.capacity_profile, "extremals.capacity_profile", after=cg_iters)
    function(ha.sharpness_probe, "extremals.sharpness_probe")
    function(ha.lambda_estimate, "varsolve.lambda_estimate", after=lambda_iters)
    function(ha.validate_hypotheses, "varsolve.validate_hypotheses")
    function(ha.mountain_pass_solve, "varsolve.mountain_pass_solve", after=solve_stats)
    for fn, name, pos in ((heisadams.io.atomic_write_text, "io.atomic_write_text", 0),
                          (heisadams.io.atomic_write_bytes, "io.atomic_write_bytes", 0),
                          (ha.save_field, "io.save_field", 1),
                          (probe_to_csv, "io.probe_to_csv", 1)):
        function(fn, name, group="io.write", after=write_size(pos))
    method(RearrangementProfile, "to_csv", "io.profile_to_csv", group="io.write",
           after=write_size(1))
    function(heisadams.cli.main, "cli.main")
    return tr


# -- metrics --------------------------------------------------------------------

LAYER_METRICS = {
    "heisadams.import_s": "s",
    "grids.domain_s": "s",
    "grids.singular_weight_s": "s",
    "grids.singular_weight_builds": "count",
    "operators.sublaplacian_calls": "count",
    "operators.sublaplacian_s": "s",
    "operators.cells_per_s": "1/s",
    "extremals.capacity_profile_calls": "count",
    "extremals.capacity_profile_s": "s",
    "extremals.cg_iterations": "count",
    "extremals.probe_self_s": "s",
    "varsolve.lambda_estimate_s": "s",
    "varsolve.lambda_outer_iterations": "count",
    "varsolve.lambda_operator_applies": "count",
    "varsolve.validate_hypotheses_s": "s",
    "varsolve.mountain_pass_s": "s",
    "varsolve.mountain_pass_operator_applies": "count",
    "varsolve.energy_calls": "count",
    "varsolve.grad_energy_calls": "count",
    "varsolve.deform_iterations": "count",
    "varsolve.deform_capped_solves": "count",
    "varsolve.newton_iterations": "count",
    "constants.compute_constants_s": "s",
    "rearrange.decreasing_rearrangement_s": "s",
    "rearrange.oneil_slack_s": "s",
    "convolve.riesz_convolve_s": "s",
    "convolve.kernel_evals": "count",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "cli.self_s": "s",
}


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in LAYER_METRICS."""
    spans = doc["spans"]
    busy = Counter(doc["busy"])
    counts = Counter(doc["counts"])
    children = defaultdict(list)
    subtree = [Counter(s["counts"]) for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i]["parent"]
        if p is not None:
            children[p].append(i)
            subtree[p].update(subtree[i])

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def descendants(i, name):
        out = []
        for c in children[i]:
            if spans[c]["name"] == name:
                out.append(c)
            else:
                out.extend(descendants(c, name))
        return out

    probe_self = sum(dur(i) - sum(dur(c) for c in descendants(i, "extremals.capacity_profile"))
                     for i in named("extremals.sharpness_probe"))
    cli_self = sum(dur(i) - sum(dur(c) for c in children[i]) for i in named("cli.main"))
    solves = named("varsolve.mountain_pass_solve")
    deform = [subtree[i]["varsolve.grad_energy.calls"] for i in solves]
    op_s = counts["operators.sublaplacian.s"]
    m = {
        "heisadams.import_s": doc["import_s"],
        "grids.domain_s": busy["grids.domain"],
        "grids.singular_weight_s": busy["grids.singular_weight"],
        "grids.singular_weight_builds": counts["grids.singular_weight_builds"],
        "operators.sublaplacian_calls": counts["operators.sublaplacian.calls"],
        "operators.sublaplacian_s": op_s,
        "operators.cells_per_s": counts["operators.cells"] / op_s if op_s else 0.0,
        "extremals.capacity_profile_calls": counts["extremals.capacity_profile.calls"],
        "extremals.capacity_profile_s": busy["extremals.capacity_profile"],
        "extremals.cg_iterations": counts["extremals.cg_iterations"],
        "extremals.probe_self_s": probe_self,
        "varsolve.lambda_estimate_s": busy["varsolve.lambda_estimate"],
        "varsolve.lambda_outer_iterations": counts["varsolve.lambda_outer_iterations"],
        "varsolve.lambda_operator_applies": sum(
            subtree[i]["operators.sublaplacian.calls"] for i in named("varsolve.lambda_estimate")),
        "varsolve.validate_hypotheses_s": busy["varsolve.validate_hypotheses"],
        "varsolve.mountain_pass_s": busy["varsolve.mountain_pass_solve"],
        "varsolve.mountain_pass_operator_applies": sum(
            subtree[i]["operators.sublaplacian.calls"] for i in solves),
        "varsolve.energy_calls": counts["varsolve.energy.calls"],
        "varsolve.grad_energy_calls": counts["varsolve.grad_energy.calls"],
        "varsolve.deform_iterations": sum(deform),
        "varsolve.deform_capped_solves": sum(
            1 for i, d in zip(solves, deform) if d >= spans[i]["max_deform_iters"]),
        "varsolve.newton_iterations": counts["varsolve.newton_iterations"],
        "constants.compute_constants_s": busy["constants.compute_constants"],
        "rearrange.decreasing_rearrangement_s": busy["rearrange.decreasing_rearrangement"],
        "rearrange.oneil_slack_s": busy["rearrange.oneil_slack"],
        "convolve.riesz_convolve_s": busy["convolve.riesz_convolve"],
        "convolve.kernel_evals": counts["convolve.kernel_evals"],
        "io.write_s": busy["io.write"],
        "io.bytes_written": counts["io.bytes_written"],
        "cli.self_s": cli_self,
    }
    assert m.keys() == LAYER_METRICS.keys()
    return m
