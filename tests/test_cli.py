import json
from pathlib import Path

import numpy as np
import pytest

import heisadams as ha
from heisadams import cli


def run_cli(args):
    return cli.main(args)


def read(path):
    return Path(path).read_bytes()


def test_constants_command(tmp_path):
    out = tmp_path / "c"
    rc = run_cli(["constants", "--out", str(out), "--mc-samples", "20000"])
    assert rc == 0
    doc = json.loads((out / "constants.json").read_text())
    assert doc["c0"] == pytest.approx(2 * np.pi ** 2, rel=1e-5)
    assert doc["gamma1"] == pytest.approx(3 / (4 * np.pi), rel=1e-5)
    assert doc["bigA"] == pytest.approx(32 / 9, rel=1e-5)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["mc_samples"] == 20000
    assert manifest["resolved"]["tail_radius"] == 50.0  # defaults are echoed


def test_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = run_cli(["constants", "--out", str(out), "--mc-samples", "5000",
                      "--seed", "42"])
        assert rc == 0
        outs.append(out)
    for fname in ("constants.json",):
        a = read(outs[0] / fname)
        b = read(outs[1] / fname)
        assert a == b
    # manifests differ only in the out path; normalize and compare
    m1 = json.loads((outs[0] / "manifest.json").read_text())
    m2 = json.loads((outs[1] / "manifest.json").read_text())
    m1["resolved"].pop("out")
    m2["resolved"].pop("out")
    assert m1 == m2


def test_constants_seed_zero_is_its_own_seed(tmp_path):
    gammas = []
    for seed in ("0", "20240801"):
        out = tmp_path / f"s{seed}"
        rc = run_cli(["constants", "--out", str(out), "--mc-samples", "5000",
                      "--seed", seed])
        assert rc == 0
        doc = json.loads((out / "constants.json").read_text())
        gammas.append(doc["errorEstimates"]["mc_gamma1"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved"]["seed"] == int(seed)
    assert gammas[0] != gammas[1]


def test_sharpness_determinism(tmp_path):
    files = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        rc = run_cli(["sharpness", "--a", "0", "--grid", "9", "--betas",
                      "0.75*,1.25*", "--ks", "2,4", "--out", str(out)])
        assert rc == 0
        files.append(read(out / "sharpness.csv"))
    assert files[0] == files[1]
    header = files[0].decode().splitlines()[0]
    assert header == "k,beta,a,value,normEstimate"


def test_sharpness_manifest_records_plateaus_and_warns(tmp_path, capsys):
    """At 17^3, ell = 1/32 is below one cell: the manifest records each k's
    plateau and the under-resolved one is named on stderr."""
    out = tmp_path / "s"
    rc = run_cli(["sharpness", "--a", "0", "--grid", "17", "--betas", "1*",
                  "--ks", "2,32", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    plateaus = {p["k"]: p for p in manifest["derived"]["plateaus"]}
    assert sorted(plateaus) == [2, 32]
    assert plateaus[2]["resolved_rings"] == 4 and plateaus[2]["plateau_cells"] > 1
    assert plateaus[32] == {"k": 32, "plateau_cells": 1, "resolved_rings": 0}
    err = capsys.readouterr().err
    assert "k = 32" in err and "k = 2:" not in err
    assert (out / "sharpness.csv").read_text().splitlines()[0] == "k,beta,a,value,normEstimate"


# each subcommand's keys besides out; the spec the parser is built from
COMMAND_KEYS = {
    "constants": {"tail_radius", "mc_samples", "seed"},
    "rearrange-check": {"grid", "seed"},
    "sharpness": {"grid", "a", "betas", "ks"},
    "capacity": {"grid", "ell"},
    "solve": {"grid", "extent", "domain", "a", "nl", "lam", "alpha0", "tol"},
    "continuation": {"grid", "extent", "nl", "lam", "alpha0", "tol", "nmax"},
    "lambda": {"grid", "extent", "a"},
}


@pytest.mark.parametrize("command, key, value", [
    ("constants", "grid", "9"),
    ("rearrange-check", "tol", "1e-6"),
    ("rearrange-check", "extent", "1.0"),
    ("sharpness", "seed", "1"),
    ("sharpness", "extent", "1.0"),
    ("sharpness", "tol", "1e-6"),
    ("capacity", "nl", "critical"),
    ("capacity", "extent", "1.0"),
    ("capacity", "ks", "2"),
    ("capacity", "tol", "1e-6"),
    ("solve", "seed", "1"),
    ("continuation", "a", "1"),       # not an abbreviation of --alpha0
    ("lambda", "nl", "critical"),
    ("lambda", "tol", "1e-10"),
])
def test_commands_reject_keys_they_do_not_read(tmp_path, capsys, command, key, value):
    """A key outside the command's entry exits 2, as a flag and from a
    config file, before the output directory is created."""
    assert key not in COMMAND_KEYS[command]
    out = tmp_path / "out"
    assert run_cli([command, "--" + key, value, "--out", str(out)]) == 2
    assert "--" + key in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    assert run_cli([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_manifests_resolve_exactly_the_keys_each_command_reads(tmp_path):
    runs = {
        "constants": ["--mc-samples", "2000"],
        "rearrange-check": ["--grid", "9"],
        "sharpness": ["--grid", "9", "--betas", "1*", "--ks", "2"],
        "capacity": ["--grid", "9"],
        "solve": ["--grid", "7"],
        "continuation": ["--grid", "7", "--nmax", "1"],
        "lambda": ["--grid", "7"],
    }
    for command, args in runs.items():
        out = tmp_path / command
        assert run_cli([command, *args, "--out", str(out)]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved"]
        assert set(resolved) == COMMAND_KEYS[command] | {"command", "out"}, command


def test_config_holds_only_the_command_keys():
    args = cli._build_parser().parse_args(["capacity", "--grid", "9"])
    cfg = cli.resolve_config(args)
    assert (cfg.grid, cfg.ell, cfg.out) == (9, 0.5, "out")
    with pytest.raises(AttributeError):
        cfg.extent


def test_config_file_and_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("grid = 9\na = 1.0   # weight exponent\nextent = 1.5\n")
    out = tmp_path / "o"
    rc = run_cli(["lambda", "--config", str(cfgfile), "--out", str(out),
                  "--grid", "7"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["grid"] == 7      # flag overrides file
    assert manifest["resolved"]["a"] == 1.0       # file overrides default
    assert manifest["resolved"]["extent"] == 1.5
    doc = json.loads((out / "lambda.json").read_text())
    assert doc["value"] > 0 and doc["converged"]


def test_unknown_config_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("gridd = 9\n")
    assert run_cli(["lambda", "--config", str(cfgfile), "--out", str(tmp_path / "x")]) == 2


def test_invalid_ranges_exit_2(tmp_path):
    assert run_cli(["solve", "--a", "4.5", "--out", str(tmp_path / "x")]) == 2
    assert run_cli(["solve", "--a", "-1", "--out", str(tmp_path / "y")]) == 2
    assert run_cli(["capacity", "--ell", "1.5", "--out", str(tmp_path / "z")]) == 2
    assert run_cli(["solve", "--nl", "quintic", "--out", str(tmp_path / "w")]) == 2
    # the ball is the unit gauge ball: it takes no extent
    assert run_cli(["solve", "--domain", "disk", "--out", str(tmp_path / "v")]) == 2
    assert run_cli(["solve", "--domain", "ball", "--extent", "2",
                    "--out", str(tmp_path / "v")]) == 2
    assert not (tmp_path / "v").exists()
    # numeric keys out of range exit 2 before the output directory exists
    for args in (["solve", "--nl", "critical", "--lam", "-1"],
                 ["solve", "--nl", "critical", "--alpha0", "0"],
                 ["continuation", "--nmax", "0"],
                 ["lambda", "--extent", "0"],
                 ["lambda", "--extent", "inf"],
                 ["constants", "--mc-samples", "0"],
                 ["constants", "--mc-samples", "1"],
                 ["constants", "--tail-radius", "-1"],
                 ["solve", "--tol", "nan"],
                 ["continuation", "--tol", "-1"],
                 ["continuation", "--tol", "inf"],
                 ["solve", "--tol", "0"]):
        out = tmp_path / "range"
        assert run_cli(args + ["--out", str(out)]) == 2, args
        assert not out.exists(), args


def test_unknown_command_exit_2(tmp_path, capsys):
    assert run_cli(["frobnicate", "--out", str(tmp_path)]) == 2


def test_solve_writes_artifacts_and_trace(tmp_path):
    out = tmp_path / "solve"
    rc = run_cli(["solve", "--nl", "cubic", "--a", "1", "--grid", "9",
                  "--tol", "1e-6", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["converged"]
    assert "level_below_bound" not in doc      # the cubic model has no ceiling
    assert doc["energy"] > 0
    assert doc["gradResidual"] <= 1e-6 * max(1.0, doc["norm"])
    assert doc["rayleigh_bound_ok"]
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,level,gradResidual,norm"
    levels = [float(r.split(",")[1]) for r in trace[1:]]
    assert all(levels[i + 1] <= levels[i] * (1 + 1e-12) for i in range(len(levels) - 1))
    assert (out / "solution.bin").exists()
    hyp = json.loads((out / "hypotheses.json").read_text())
    assert all(c["passed"] for c in hyp["checks"])
    assert hyp["lambda_converged"] is True
    assert 0 < hyp["lambda_iterations"] <= 200
    assert 0 < hyp["lambda_residual"] <= 1e-5


def test_solve_norm_matches_the_stencil_oracle(tmp_path):
    """solve.json's norm, read off the orbit form, is ||L u|| of the field
    written to solution.bin."""
    out = tmp_path / "solve"
    assert run_cli(["solve", "--nl", "critical", "--a", "1", "--lam", "20", "--grid", "9",
                    "--out", str(out)]) == 0
    doc = json.loads((out / "solve.json").read_text())
    u = ha.load_field(out / "solution.bin")
    assert doc["norm"] > 0
    assert doc["norm"] == pytest.approx(np.sqrt(ha.dirichlet_energy(u)), rel=1e-13)


@pytest.mark.parametrize("frac,below", [(0.9, True), (0.5, False)])
def test_solve_records_whether_the_level_is_below_its_bound(tmp_path, frac, below):
    """At lam = 0.5 lambda_1 the box-9 level (5.91) sits above
    (4-a)A/(8 alpha0) = 4/3; solve.json says so, and the exit code stays 0.
    hypotheses.json records the free cells and the orbit unknowns."""
    lam = ha.lambda_estimate(ha.box_grid(9), 1.0).value
    out = tmp_path / "lb"
    rc = run_cli(["solve", "--nl", "critical", "--a", "1", "--grid", "9",
                  "--lam", repr(frac * lam), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["converged"] and doc["level_below_bound"] is below
    assert (doc["level"] < doc["level_bound"]) is below
    hyp = json.loads((out / "hypotheses.json").read_text())
    assert hyp["free_cells"] == 7 ** 3 and hyp["unknowns"] == 49


def test_solve_on_the_gauge_ball(tmp_path):
    out = tmp_path / "ball"
    rc = run_cli(["solve", "--nl", "critical", "--domain", "ball", "--grid", "9", "--a", "1",
                  "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["domain"] == "ball"
    doc = json.loads((out / "solve.json").read_text())
    assert doc["converged"] and doc["level"] == pytest.approx(doc["energy"], rel=1e-8)
    u = ha.load_field(out / "solution.bin")
    assert np.array_equal(u.domain.mask, ha.ball_grid(9).mask)
    assert not u.domain.mask.all()


@pytest.mark.parametrize("flag", [
    "--ks=0..4", "--ks=-2..4", "--ks=1..4", "--ks=0,2", "--ks=2,-4", "--ks=", "--ks=2..x",
    "--betas=-1", "--betas=1*,-0.5A", "--betas=", "--betas=abc",
])
def test_sharpness_rejects_bad_k_and_beta_lists(tmp_path, capsys, flag):
    """k below 2, a negative beta, an empty list or a malformed token exits 2
    before the output directory is created."""
    out = tmp_path / "out"
    assert run_cli(["sharpness", "--grid", "9", flag, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_solve_hypothesis_failure_exit_4(tmp_path):
    # critical model with lam far above the Rayleigh floor breaks the origin gap
    out = tmp_path / "hf"
    rc = run_cli(["solve", "--nl", "critical", "--lam", "1e9", "--alpha0", "1.0",
                  "--a", "1", "--grid", "7", "--out", str(out)])
    assert rc == 4
    hyp = json.loads((out / "hypotheses.json").read_text())
    assert any(not c["passed"] for c in hyp["checks"])


def test_solve_unconverged_lambda_exit_3(tmp_path, monkeypatch):
    """A Rayleigh iteration stopped by its iteration cap ends the solve
    before the saddle search, with exit 3."""
    import functools

    def no_saddle(*args, **kwargs):
        raise AssertionError("saddle search started")

    monkeypatch.setattr(cli, "lambda_estimate",
                        functools.partial(cli.lambda_estimate, max_outer=1))
    monkeypatch.setattr(cli, "mountain_pass_solve", no_saddle)
    out = tmp_path / "lam"
    rc = run_cli(["solve", "--nl", "cubic", "--a", "1", "--grid", "9", "--out", str(out)])
    assert rc == 3
    hyp = json.loads((out / "hypotheses.json").read_text())
    assert hyp["lambda_converged"] is False
    assert np.isfinite(hyp["lambda"])
    assert not (out / "solve.json").exists()


def test_import_leaves_scipy_integrate_unloaded():
    import subprocess
    import sys
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import heisadams, heisadams.cli; "
            "print('scipy.integrate' in sys.modules)" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_capacity_command(tmp_path):
    out = tmp_path / "cap"
    rc = run_cli(["capacity", "--ell", "0.5", "--grid", "13", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "capacity.json").read_text())
    assert doc["energy"] > 0
    assert doc["slack"] == pytest.approx(doc["energy"] / doc["bound"] - 1, rel=1e-12)
    assert doc["converged"] is True
    assert (out / "capacity_field.bin").exists()
    adams = ha.adams_function(0.5, 1.0, ha.ball_grid(13), tol=1e-8)
    assert (doc["plateau"], doc["normEstimate"]) == (adams.plateau, adams.normEstimate)


@pytest.mark.parametrize("command", ["capacity", "sharpness"])
def test_unconverged_capacity_exit_3(tmp_path, monkeypatch, command):
    """A capacity CG that ends above its tolerance gives exit 3; the
    artifacts are still written, capacity.json with converged = false."""
    import functools
    import heisadams.extremals as ext
    short = functools.partial(ext.capacity_profile, max_iter=1)
    monkeypatch.setattr(cli, "capacity_profile", short)
    monkeypatch.setattr(ext, "capacity_profile", short)
    out = tmp_path / command
    ks = ["--ks", "2"] if command == "sharpness" else []
    rc = run_cli([command, "--grid", "9", *ks, "--out", str(out)])
    assert rc == 3
    if command == "capacity":
        doc = json.loads((out / "capacity.json").read_text())
        assert doc["converged"] is False and doc["cg_iterations"] == 1
    else:
        lines = (out / "sharpness.csv").read_text().splitlines()
        assert lines[0] == "k,beta,a,value,normEstimate"
        assert len(lines) == 4


@pytest.mark.parametrize("args", [["sharpness", "--grid", "6"],
                                  ["capacity", "--grid", "6", "--ell", "0.9"],
                                  ["capacity", "--grid", "17", "--ell", "0.9"]])
def test_unresolvable_ell_exits_2(tmp_path, capsys, args):
    """An ell whose plateau holds no cell (ball 6 at the default ks reaches
    ell = 1/4), or reaches the clamped ring, is a configuration error: exit
    2, with no artifact written."""
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_continuation_falling_ray_exits_3(tmp_path, capsys):
    """lam far above lambda_1 makes J fall from the origin along a ray of
    the saddle search: the stage is a geometry failure and the command
    exits 3."""
    out = tmp_path / "cont"
    rc = run_cli(["continuation", "--nl", "critical", "--lam", "1000", "--grid", "7",
                  "--nmax", "1", "--out", str(out)])
    assert rc == 3
    assert "continuation aborted early" in capsys.readouterr().err
    doc = json.loads((out / "continuation.json").read_text())
    assert doc == {"stages": 1, "all_converged": False, "final_stage": None,
                   "tail_differences_decreasing": False}


def test_continuation_writes_no_solution_when_no_stage_converged(tmp_path):
    """The first stage is a geometry failure, whose field is zero: no
    final_solution.bin, also none left from an earlier run in the directory."""
    out = tmp_path / "cont"
    out.mkdir()
    (out / "final_solution.bin").write_bytes(b"stale")
    rc = run_cli(["continuation", "--nl", "critical", "--lam", "1000", "--grid", "7",
                  "--nmax", "2", "--out", str(out)])
    assert rc == 3
    assert json.loads((out / "continuation.json").read_text())["final_stage"] is None
    assert not (out / "final_solution.bin").exists()


def test_continuation_writes_the_last_converged_stage(tmp_path, monkeypatch):
    """A stage that fails after a converged one leaves that one's solution in
    final_solution.bin, and continuation.json names its stage."""
    import heisadams.varsolve as vs
    solved = []
    solve = vs.mountain_pass_solve

    def second_stage_fails(*args, **kwargs):
        u, state = solve(*args, **kwargs)
        solved.append(u)
        if len(solved) == 2:
            state.converged = False
            state.message = "injected"
        return u, state

    monkeypatch.setattr(vs, "mountain_pass_solve", second_stage_fails)
    out = tmp_path / "cont"
    rc = run_cli(["continuation", "--nl", "cubic", "--grid", "7", "--nmax", "3",
                  "--out", str(out)])
    assert rc == 3
    doc = json.loads((out / "continuation.json").read_text())
    assert doc["stages"] == 2 and doc["final_stage"] == 1
    assert np.array_equal(ha.load_field(out / "final_solution.bin").values, solved[0].values)
    assert not np.array_equal(solved[0].values, solved[1].values)


def test_rearrange_check_command(tmp_path):
    out = tmp_path / "re"
    rc = run_cli(["rearrange-check", "--grid", "21", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "rearrange_summary.json").read_text())
    assert doc["hardy_littlewood_min_slack"] >= -1e-12
    assert doc["fstar_max_rel_err"] < 0.05
    prof = (out / "profile.csv").read_text().splitlines()
    assert prof[0] == "measure,value"


def test_continuation_command(tmp_path):
    out = tmp_path / "cont"
    rc = run_cli(["continuation", "--nl", "cubic", "--grid", "9", "--nmax", "3",
                  "--tol", "1e-6", "--out", str(out)])
    assert rc == 0
    rows = (out / "continuation.csv").read_text().splitlines()
    assert rows[0] == "n,a,norm,diff,weighted_uf,weighted_F,level,gradResidual"
    assert len(rows) == 4
    assert (out / "final_solution.bin").exists()


def test_readme_cli_examples_parse():
    """Every command line in README.md's sh blocks runs heisadams, pip or
    pytest; each heisadams line names only flags its command reads, with
    values in range; and the README's key table is the commands' keys."""
    import re
    import shlex
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [ln.strip() for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for ln in block.splitlines() if ln.strip()]
    for line in commands:
        assert line.startswith(("heisadams ", "pip ", "python -m pytest")), line
    lines = [ln for ln in commands if ln.startswith("heisadams ")]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line)[1:]
        cfg = cli.resolve_config(cli._build_parser().parse_args(argv))
        assert cfg.command == argv[0]
    table = {cmd: {k.replace("-", "_") for k in re.findall(r"`([\w-]+)`", keys)}
             for cmd, keys in re.findall(r"^\| `([\w-]+)` \| (.*) \|$", readme, re.M)}
    assert table == COMMAND_KEYS
