"""Self-tests of the benchmark.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They check that the independent checker agrees with heisadams where it
should (the assembled operator, grids and weights), that it rejects wrong
answers (a solution scaled by 1.01, a capacity profile with one free cell
perturbed), and that the command prints exactly the metrics BENCHMARK.json
declares.  The last test runs every workload traced and untraced, so the
whole file takes about four minutes.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import checker as C  # noqa: E402
import heisadams as ha  # noqa: E402


def _pairs():
    return [(C.Grid.box(17), ha.box_grid(17)), (C.Grid.unit_ball(17), ha.ball_grid(17)),
            (C.Grid.group_lattice(7), ha.group_lattice_grid(7))]


def test_assembled_operator_matches_sublaplacian():
    rng = np.random.default_rng(5)
    for grid, dom in _pairs():
        assert np.array_equal(grid.mask, dom.mask)
        assert np.array_equal(grid.free, dom.free_mask())
        assert abs(grid.L - grid.L.T).max() == 0.0
        for _ in range(3):
            u = rng.standard_normal(grid.shape)
            want = ha.sublaplacian(ha.GridField(dom, u)).values
            got = grid.apply_L(u)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        for a in (0.0, 1.0, 2.0, 3.0):
            want = dom.singular_weight(a)
            assert np.allclose(grid.weight(a), want, rtol=1e-14, atol=0.0)


def test_checker_rejects_scaled_solution():
    rng = np.random.default_rng(6)
    dom = ha.box_grid(9)
    u, state = ha.mountain_pass_solve(ha.cubic_model(), 1.0, dom, ha.SolveOptions(tol=1e-6))
    assert state.converged
    grid = C.Grid.box(9)
    nl = C.Nonlinearity("cubic")
    good = C.analyse_solution(grid, u.values, nl, 1.0, rng)
    assert C.check_residual(good)[0]
    assert C.check_nehari(good.dirichlet, good.weighted_uf)[0]
    bad = C.analyse_solution(grid, 1.01 * u.values, nl, 1.0, rng)
    assert not C.check_residual(bad)[0]
    assert not C.check_nehari(bad.dirichlet, bad.weighted_uf)[0]


def test_checker_rejects_perturbed_capacity_profile():
    rng = np.random.default_rng(7)
    ell = 0.25
    prof = ha.capacity_profile(ell, ha.ball_grid(17), tol=1e-8)
    grid = C.Grid.unit_ball(17)
    U = prof.field.values
    assert C.check_capacity(grid, ell, U, prof.energy, rng)[0]
    dofs = np.argwhere(grid.free & ~C.plateau(grid, ell))
    bad = U.copy()
    bad[tuple(dofs[len(dofs) // 3])] += 1e-3 * U.max()
    assert not C.check_capacity(grid, ell, bad, prof.energy, rng)[0]
    off = U.copy()
    off[tuple(np.argwhere(~grid.free)[0])] = 1e-3
    assert not C.check_capacity(grid, ell, off, prof.energy, rng)[0]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_command_prints_exactly_the_declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            proc = _run(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "1",
                        "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, (w["name"], trace)


def test_command_fails_without_the_program():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(Path(tmp), "--workload", "continuation", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}")
