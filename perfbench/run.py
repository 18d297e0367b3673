"""Benchmark of heisadams: three workloads, checked apart from the program.

    python3 perfbench/run.py --workload {sharpness,critical_solve,continuation}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in fresh child interpreters (child.py), one at a time,
with BLAS/OpenMP limited to one thread.

A run attempts whole rounds of the workload, each in its own child: at
least one, and another only if it fits in ``--seconds``.  With ``--trace 0``
the run starts one untimed warm-up child, then SETUP_PROBES set-up-only
children, half before and half after the rounds, and reports the end-to-end
metrics: ``wall_s`` and ``peak_rss_mb`` are medians over the rounds,
``setup_s`` the median over the probes and the rounds' own set-ups.  With
``--trace 1`` it runs one traced round and reports the per-layer metrics.

Every artifact is then checked with checker.py, which never imports
heisadams.  Each check is one operation; a failed check counts in
``failed``, and ``correct`` stays true only if every failed check is one of
KNOWN_FAULTS.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0
when correct, 1 when not, 2 when the program cannot be run at all.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checker as C  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 175.0
SETUP_PROBES = 8

# Checks that fail today because of a fault in the program, on inputs that do
# not depend on the seed.  solve.json's "level" is the deformation path's
# maximum (MountainPassState.levelEstimate), not the critical value, and at
# a = 3 it exceeds the ceiling although the energy J(u) does not.
KNOWN_FAULTS = {"critical_solve a=3: reported level <= level_bound"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBE_KS = (2, 4, 8, 16)
LATTICE_N = 9


def _child(mode: str, inputs_path: Path, out: Path, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode, str(inputs_path), str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- inputs -------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, out: Path) -> dict:
    """Everything the program is given, made from the seed."""
    inputs = {"workload": workload, "seed": seed}
    if workload == "sharpness":
        lattice = C.Grid.group_lattice(LATTICE_N)
        rng = np.random.default_rng(seed)
        np.savez(out / "inputs.npz", oneil_fields=rng.uniform(0.0, 1.0, (4,) + lattice.shape))
        inputs.update(lattice_n=LATTICE_N, oneil_t=0.5 * lattice.mask.sum() * lattice.vol)
    elif workload == "critical_solve":
        # the solver's inputs do not depend on the seed; lam is 0.9 lambda_1(a)
        box = C.Grid.box(17)
        inputs["lambda_1"] = {a: box.lambda_1(float(a)) for a in ("1", "3")}
        inputs["lam"] = {a: 0.9 * v for a, v in inputs["lambda_1"].items()}
    return inputs


# -- checks -------------------------------------------------------------------------

def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_sharpness(rdir: Path, inputs: dict, out: Path, rng) -> list[tuple[str, tuple[bool, str]]]:
    rc = _json(rdir / "rc.json")
    ops = []
    consts = _json(rdir / "constants" / "constants.json")
    ok, detail = C.check_constants(consts)
    ops.append(("constants: exit 0, closed forms", (ok and rc["constants"] == 0, detail)))
    ops.append(("constants: Monte Carlo within 5 sigma", C.check_constants_mc(consts)))

    ball = C.Grid.unit_ball(33)
    prof = C.read_csv(rdir / "rearrange" / "profile.csv")
    summ = _json(rdir / "rearrange" / "rearrange_summary.json")
    ok, detail = C.check_rearrangement_values(prof, ball)
    ops.append(("rearrange-check: exit 0, profile is sorted rho^-2", (ok and rc["rearrange"] == 0, detail)))
    ops.append(("rearrange-check: f* = g*, f** = 2 g*", C.check_rearrangement_closed_form(prof)))
    ok = summ["hardy_littlewood_min_slack"] >= 0.0 and summ["one_d_defect_rel"] < 0.01
    ops.append(("rearrange-check: Hardy-Littlewood slack >= 0, 1-d defect < 1%",
                (ok, f"slack {summ['hardy_littlewood_min_slack']:.3g}, "
                     f"defect {summ['one_d_defect_rel']:.2e}")))

    lattice = C.Grid.group_lattice(inputs["lattice_n"])
    fields = np.load(out / "inputs.npz")["oneil_fields"]
    oneil = np.load(rdir / "oneil.npz")
    for i, f in enumerate(fields):
        ops.append((f"riesz_convolve/oneil_slack field {i}",
                    C.check_riesz(lattice, f, oneil["U"][i], inputs["oneil_t"], tuple(oneil["slack"][i]))))

    probe = _json(rdir / "probe.json")
    profiles = np.load(rdir / "profiles.npz")
    first = {}
    for k in PROBE_KS:
        mine = [(profiles[p["key"]], p["energy"]) for p in probe["profiles"] if p["k"] == k]
        results = [C.check_capacity(ball, 1.0 / k, U, E, rng) for U, E in mine]
        ok = bool(mine) and all(r[0] for r in results)
        ops.append((f"capacity_profile ell=1/{k}",
                    (ok, f"{len(mine)} solve(s); " + "; ".join(d for _, d in results))))
        if mine:
            first[k] = mine[0]
    for a in (0.0, 2.0):
        rows = [r for r in probe["rows"] if r["a"] == a]
        ok = len(rows) == 2 * len(PROBE_KS) and len(first) == len(PROBE_KS)
        ops.append((f"sharpness_probe a={a:g}: values rebuilt from the profiles",
                    C.check_probe_values(ball, rows, first, a) if ok else (False, f"{len(rows)} rows")))
        ops.append((f"sharpness_probe a={a:g}: growth split", C.check_probe_split(rows, a)))
    return ops


def check_critical(rdir: Path, inputs: dict, out: Path, rng) -> list[tuple[str, tuple[bool, str]]]:
    rc = _json(rdir / "rc.json")
    box = C.Grid.box(17)
    ops = []
    for a_key, lam in inputs["lam"].items():
        a = float(a_key)
        name = f"critical_solve a={a_key}"
        sdir = rdir / f"a{a_key}"
        solve = _json(sdir / "solve.json")
        hyp = _json(sdir / "hypotheses.json")
        dims, geom, u = C.read_field(sdir / "solution.bin")
        ok = (rc[a_key] == 0 and solve["converged"] and dims == box.shape
              and list(geom[:3]) == list(box.extents))
        ops.append((f"{name}: exit 0, converged, box field", (ok, f"exit {rc[a_key]}, dims {dims}")))
        lam1 = inputs["lambda_1"][a_key]
        d = C.rel(hyp["lambda"], lam1)
        ops.append((f"{name}: lambda_1 matches eigsh", (d <= 1e-8, f"{hyp['lambda']:.12g} vs {lam1:.12g}")))
        rep = C.analyse_solution(box, u, C.Nonlinearity("critical", lam=lam, alpha0=1.0), a, rng)
        ops.append((f"{name}: residual of L^2 u = w f(u)", C.check_residual(rep)))
        ops.append((f"{name}: Nehari identity", C.check_nehari(rep.dirichlet, rep.weighted_uf)))
        ops.append((f"{name}: Rayleigh quotient >= lambda_1",
                    (rep.rayleigh >= lam1 * (1 - 1e-8), f"{rep.rayleigh:.6g} vs {lam1:.6g}")))
        ceiling = C.level_ceiling(a, 1.0)
        ok = 0.0 < rep.J < ceiling and C.rel(solve["energy"], rep.J) <= 1e-9
        ops.append((f"{name}: 0 < J(u) < (4-a)A/(8 alpha0)",
                    (ok, f"J {rep.J:.6g} (reported {solve['energy']:.6g}), ceiling {ceiling:.6g}")))
        ok = solve["level"] <= solve["level_bound"] and C.rel(solve["level_bound"], ceiling) <= 1e-12
        ops.append((f"{name}: reported level <= level_bound",
                    (ok, f"level {solve['level']:.6g}, level_bound {solve['level_bound']:.6g}")))
    return ops


def check_continuation(rdir: Path, inputs: dict, out: Path, rng) -> list[tuple[str, tuple[bool, str]]]:
    rc = _json(rdir / "rc.json")
    cdir = rdir / "continuation"
    summary = _json(cdir / "continuation.json")
    rows = C.read_csv(cdir / "continuation.csv")
    ops = []
    sched = [r["a"] for r in rows] == [4.0 - 1.0 / n for n in range(1, 7)]
    ok = rc["continuation"] == 0 and summary["stages"] == 6 and summary["all_converged"] and sched
    ops.append(("continuation: exit 0, 6 converged stages at a_n = 4 - 1/n",
                (ok, f"exit {rc['continuation']}, {summary['stages']} stages")))
    for r in rows:
        ops.append((f"continuation n={int(r['n'])}: Nehari identity from the csv",
                    C.check_nehari(r["norm"] ** 2, r["weighted_uf"])))
    box = C.Grid.box(13)
    dims, geom, u = C.read_field(cdir / "final_solution.bin")
    a = rows[-1]["a"] if rows else 4.0 - 1.0 / 6
    rep = C.analyse_solution(box, u, C.Nonlinearity("cubic"), a, rng)
    ops.append(("continuation final stage: residual of L^2 u = w u^3", C.check_residual(rep)))
    ok, detail = C.check_nehari(rep.dirichlet, rep.weighted_uf)
    agree = C.rel(math.sqrt(rep.dirichlet), rows[-1]["norm"]) if rows else math.inf
    ops.append(("continuation final stage: Nehari identity, norm matches the csv",
                (ok and agree <= 1e-9, f"{detail}; norm rel dev {agree:.1e}")))
    diffs = [r["diff"] for r in rows[1:]]
    ok = len(diffs) >= 3 and diffs[-3] > diffs[-2] > diffs[-1]
    ops.append(("continuation: last three drifts decrease",
                (ok, "drifts " + ", ".join(f"{d:.4g}" for d in diffs))))
    return ops


CHECKS = {
    "sharpness": check_sharpness,
    "critical_solve": check_critical,
    "continuation": check_continuation,
}


# -- driver ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    # one directory per workload and mode, so repeated runs take bounded disk
    out = HERE / "out" / f"{workload}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs = make_inputs(workload, seed, out)
    inputs.update(src=str(SRC), dir=str(out))
    inputs_path = out / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))

    def child(mode, rdir=out):
        return _child(mode, inputs_path, rdir, RUN_LIMIT_S - (time.perf_counter() - start))

    def setup_probes(n):
        return [child("setup")["setup_s"] for _ in range(n)]

    setups = []
    if not trace:
        child("setup")  # warm-up: file cache, bytecode
        setups = setup_probes(SETUP_PROBES // 2)
    rounds = []
    begin = time.perf_counter()
    while True:
        rounds.append(child("trace" if trace else "run", out / f"round{len(rounds) + 1}"))
        # whole rounds only: start another only if it fits in the run length
        elapsed = time.perf_counter() - begin
        if trace or elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    if not trace:
        # probes on both sides of the rounds, so one busy moment of the host
        # cannot shift them all
        setups += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    setups += [r["setup_s"] for r in rounds]

    rng = np.random.default_rng(seed)
    ops = []
    for i in range(len(rounds)):
        ops += CHECKS[workload](out / f"round{i + 1}", inputs, out, rng)
    failed = [name for name, (ok, _) in ops if not ok]
    for name, (ok, detail) in ops:
        tag = "PASS" if ok else ("KNOWN-FAULT" if name in KNOWN_FAULTS else "FAIL")
        print(f"{tag:<11} {name}: {detail}")

    if trace:
        values = tracing.layer_metrics(json.loads((out / "round1" / "trace.json").read_text()))
        units = tracing.LAYER_METRICS
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = END_TO_END
    print(f"rounds {len(rounds)}, setup samples {[round(x, 4) for x in setups]}, "
          f"run {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return {
        "correct": all(name in KNOWN_FAULTS for name in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "heisadams" / "__init__.py").is_file():
        print(f"no heisadams package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
