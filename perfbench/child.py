"""One workload of the benchmark, run in a fresh interpreter by run.py.

    python3 child.py {setup|run|trace} INPUTS_JSON ROUND_DIR

The child drives heisadams only through ``heisadams.cli.main`` and the names
``heisadams/__init__.py`` exports.  It times the set-up (``import heisadams``
and the domains and weights the workload builds up front), then one round of
the workload, which writes its artifacts under ROUND_DIR.  Each round gets a
fresh interpreter, so no cache the program keeps in memory carries over from
one round to the next.  ``setup`` stops after the set-up; ``trace`` installs
the span tracer first and writes ``ROUND_DIR/trace.json``.  The last line of
standard output is a JSON object with the timings; checking the artifacts is
left to the parent.
"""

import json
import resource
import sys
import time
from pathlib import Path

BIG_A = 32.0 / 9.0


def _cli(cli, *args) -> int:
    return cli.main([str(a) for a in args])


# -- sharpness: constants, rearrangement, O'Neil/Riesz, sharpness probe -----------

PROBE_KS = [2, 4, 8, 16]
PROBE_AS = (0.0, 2.0)


def sharpness_setup(ha, inputs):
    dom = ha.ball_grid(33)
    dom.free_mask()
    for a in PROBE_AS:
        dom.singular_weight(a)
    return {"dom": dom, "lattice": ha.group_lattice_grid(inputs["lattice_n"])}


def sharpness_prepare(ha, ctx, inputs):
    import numpy as np

    from tracing import rebind

    fields = np.load(Path(inputs["dir"]) / "inputs.npz")["oneil_fields"]
    ctx["fields"] = [ha.GridField(ctx["lattice"], f) for f in fields]
    # keep each capacity profile the probe solves, for the minimality checks
    captured = ctx["captured"] = []
    solve = ha.extremals.capacity_profile

    def capture(*args, **kwargs):
        prof = solve(*args, **kwargs)
        captured.append(prof)
        return prof

    rebind(solve, capture)


def sharpness_round(ha, cli, ctx, inputs, rdir):
    seed = inputs["seed"]
    rc = {
        "constants": _cli(cli, "constants", "--out", rdir / "constants", "--seed", seed),
        "rearrange": _cli(cli, "rearrange-check", "--grid", 33, "--out", rdir / "rearrange",
                          "--seed", seed),
    }
    oneil = []
    for f in ctx["fields"]:
        U = ha.riesz_convolve(f, 2.0)
        oneil.append((U.values, ha.oneil_slack(f, 2.0, inputs["oneil_t"], convolution=U)))
    rows = []
    for a in PROBE_AS:
        thr = BIG_A * (1.0 - a / 4.0)
        rows += ha.sharpness_probe(a, [0.75 * thr, 1.25 * thr], PROBE_KS, grid=ctx["dom"], tol=1e-8)
    return rc, {"oneil": oneil, "rows": rows, "profiles": list(ctx["captured"])}


def sharpness_save(ha, ctx, kept, rdir):
    import numpy as np

    np.savez(rdir / "oneil.npz",
             U=np.array([U for U, _ in kept["oneil"]]),
             slack=np.array([s for _, s in kept["oneil"]]))
    profiles = kept["profiles"]
    # a probe that no longer calls capacity_profile for some k (say, one that
    # reuses profiles across a) is checked against a profile solved here
    solved = {round(1.0 / p.ell) for p in profiles}
    profiles += [ha.capacity_profile(1.0 / k, ctx["dom"], tol=1e-8)
                 for k in PROBE_KS if k not in solved]
    index, arrays = [], {}
    for i, p in enumerate(profiles):
        index.append({"key": f"p{i}", "k": round(1.0 / p.ell), "energy": p.energy})
        arrays[f"p{i}"] = p.field.values
    np.savez(rdir / "profiles.npz", **arrays)
    (rdir / "probe.json").write_text(json.dumps({
        "rows": [{"k": r.k, "beta": r.beta, "a": r.a, "value": r.value,
                  "normEstimate": r.normEstimate} for r in kept["rows"]],
        "profiles": index,
    }))


# -- critical_solve: the paper's application ---------------------------------------

def critical_round(ha, cli, ctx, inputs, rdir):
    rc = {}
    for a, lam in inputs["lam"].items():
        rc[a] = _cli(cli, "solve", "--nl", "critical", "--alpha0", 1, "--grid", 17,
                     "--a", a, "--lam", repr(lam), "--out", rdir / f"a{a}")
    return rc, None


# -- continuation: a_n = 4 - 1/n ----------------------------------------------------

def continuation_round(ha, cli, ctx, inputs, rdir):
    rc = {"continuation": _cli(cli, "continuation", "--nl", "cubic", "--grid", 13, "--nmax", 6,
                               "--out", rdir / "continuation")}
    return rc, None


def _nothing(*args):
    return {}


WORKLOADS = {
    # name: (setup, prepare, round, save)
    "sharpness": (sharpness_setup, sharpness_prepare, sharpness_round, sharpness_save),
    "critical_solve": (_nothing, _nothing, critical_round, _nothing),
    "continuation": (_nothing, _nothing, continuation_round, _nothing),
}


def main(argv) -> int:
    mode, out = argv[1], Path(argv[3])
    inputs = json.loads(Path(argv[2]).read_text())
    setup, prepare, one_round, save = WORKLOADS[inputs["workload"]]

    t0 = time.perf_counter()
    import heisadams as ha
    from heisadams import cli
    import_s = time.perf_counter() - t0
    src = Path(inputs["src"]).resolve()
    if src not in Path(ha.__file__).resolve().parents:
        print(f"imported heisadams from {ha.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.install(ha)
        span = tracer.open("setup")
    ctx = setup(ha, inputs)
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    prepare(ha, ctx, inputs)
    out.mkdir(parents=True)
    span = tracer.open("round") if tracer else None
    t = time.perf_counter()
    rc, kept = one_round(ha, cli, ctx, inputs, out)
    wall = time.perf_counter() - t
    if tracer:
        tracer.close(span)
        (out / "trace.json").write_text(json.dumps(tracer.document(import_s)))
    if kept is not None:
        save(ha, ctx, kept, out)
    (out / "rc.json").write_text(json.dumps(rc))
    print(json.dumps({
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
