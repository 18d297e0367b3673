import json
from pathlib import Path

import numpy as np
import pytest

import heisadams as ha
from heisadams import cli

from oracles import dirichlet_energy


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


# a small run of each command that exits 0
SMALL_RUNS = {
    "constants": ["--mc-samples", "5000", "--seed", "42"],
    "rearrange-check": ["--grid", "9"],
    "sharpness": ["--grid", "9", "--betas", "0.75*,1.25*", "--ks", "2,4"],
    "capacity": ["--grid", "9"],
    "solve": ["--grid", "7"],
    "continuation": ["--grid", "7", "--nmax", "2"],
    "lambda": ["--grid", "7"],
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_determinism_byte_identical(tmp_path, command):
    """Two runs of one config write the same artifacts byte for byte; the
    manifests differ only in the out path."""
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert run_cli([command, *SMALL_RUNS[command], "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "manifest.json" in names and len(names) > 1
    for fname in names:
        if fname != "manifest.json":
            assert read(outs[0] / fname) == read(outs[1] / fname), fname
    m1, m2 = (json.loads((out / "manifest.json").read_text()) for out in outs)
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


def assert_resolves_command_keys(out, command):
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert set(resolved) == COMMAND_KEYS[command] | {"command", "out"}, command
    assert resolved["command"] == command


def test_manifests_resolve_exactly_the_keys_each_command_reads(tmp_path):
    for command, args in SMALL_RUNS.items():
        out = tmp_path / command
        assert run_cli([command, *args, "--out", str(out)]) == 0
        assert_resolves_command_keys(out, command)


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
    seed_cfg = tmp_path / "seed.cfg"
    seed_cfg.write_text("seed = -1\n")
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
                 ["solve", "--tol", "0"],
                 ["constants", "--seed", "-1"],
                 ["rearrange-check", "--seed", "-1"],
                 ["rearrange-check", "--config", str(seed_cfg)]):
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
    assert doc["descent_cg_iterations"] > 0 and doc["minres_iterations"] > 0
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
    assert doc["norm"] == pytest.approx(np.sqrt(dirichlet_energy(u)), rel=1e-13)


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
    "--betas=inf,1", "--betas=1e308A",
])
def test_sharpness_rejects_bad_k_and_beta_lists(tmp_path, capsys, flag):
    """k below 2, a negative or non-finite beta (1e308A overflows to inf), an
    empty list or a malformed token exits 2 before the output directory is
    created."""
    out = tmp_path / "out"
    assert run_cli(["sharpness", "--grid", "9", flag, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


SOLVE_RESULTS = ("solve.json", "trace.csv", "solution.bin")


def test_solve_hypothesis_failure_exit_4(tmp_path, capsys):
    """The critical model with lam far above the Rayleigh floor breaks the
    origin gap: exit 4 with one reason line and the manifest, and the
    results of an earlier solve in the same directory are removed."""
    out = tmp_path / "hf"
    assert run_cli(["solve", "--grid", "7", "--out", str(out)]) == 0
    assert all((out / name).exists() for name in SOLVE_RESULTS)
    capsys.readouterr()
    rc = run_cli(["solve", "--nl", "critical", "--lam", "1e9", "--alpha0", "1.0",
                  "--a", "1", "--grid", "7", "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err.splitlines() == [
        "hypothesis validation failed; see hypotheses.json"]
    hyp = json.loads((out / "hypotheses.json").read_text())
    assert any(not c["passed"] for c in hyp["checks"])
    assert set(hyp["checks"][0]) == {"name", "passed", "detail"}
    assert_resolves_command_keys(out, "solve")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["lam"] == 1e9 and "derived" not in manifest
    assert not any((out / name).exists() for name in SOLVE_RESULTS)


def test_solve_unconverged_lambda_exit_3(tmp_path, monkeypatch, capsys):
    """A Rayleigh iteration stopped by its iteration cap ends the solve
    before the saddle search, with exit 3, one reason line, the manifest and
    no result of an earlier solve in the directory; the lambda command
    exits 3 with its own reason line."""
    import heisadams.varsolve as vs

    def no_saddle(*args, **kwargs):
        raise AssertionError("saddle search started")

    out = tmp_path / "lam"
    args = ["--a", "1", "--grid", "9", "--out", str(out)]
    assert run_cli(["solve", "--nl", "cubic", *args]) == 0
    assert all((out / name).exists() for name in SOLVE_RESULTS)
    capsys.readouterr()
    monkeypatch.setattr(vs, "_LAMBDA_MAX_ITERS", 1)
    monkeypatch.setattr(cli, "mountain_pass_solve", no_saddle)
    rc = run_cli(["solve", "--nl", "cubic", *args])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "Rayleigh iteration did not converge; see hypotheses.json"]
    hyp = json.loads((out / "hypotheses.json").read_text())
    assert hyp["lambda_converged"] is False
    assert np.isfinite(hyp["lambda"])
    assert not any((out / name).exists() for name in SOLVE_RESULTS)
    assert_resolves_command_keys(out, "solve")

    assert run_cli(["lambda", *args]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "Rayleigh iteration did not converge; see lambda.json"]
    doc = json.loads((out / "lambda.json").read_text())
    assert set(doc) == {"a", "value", "residual", "iterations", "converged"}
    assert doc["converged"] is False and doc["iterations"] == 1
    assert_resolves_command_keys(out, "lambda")


def test_lambda_converges_on_a_small_extent(tmp_path, capsys):
    """At extent 0.01 lambda_1 is about 8.4e9: the residual is measured
    relative to lambda, so the estimate converges with no warning."""
    out = tmp_path / "lam"
    assert run_cli(["lambda", "--grid", "9", "--extent", "0.01", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "lambda.json").read_text())
    assert doc["converged"] is True and doc["value"] > 1e9


def test_solve_newton_stagnation_exit_3(tmp_path, capsys):
    """No Newton step reaches tol = 1e-300: the first full step that does not
    lower the residual ends Newton on its last iterate, and the solve exits
    3 with one reason line, converged = false and every artifact written."""
    out = tmp_path / "stag"
    assert run_cli(["solve", "--grid", "9", "--tol", "1e-300", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "Newton stagnated; returning its last iterate"]
    doc = json.loads((out / "solve.json").read_text())
    assert doc["converged"] is False and doc["newton_iterations"] > 0
    assert all((out / name).exists() for name in SOLVE_RESULTS)
    assert_resolves_command_keys(out, "solve")
    # the rejected step leaves the iterate: the last two trace rows repeat it
    last, rejected = (ln.split(",")[1:] for ln in
                      (out / "trace.csv").read_text().splitlines()[-2:])
    assert rejected == last


def test_import_leaves_scipy_integrate_unloaded():
    import subprocess
    import sys
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import heisadams, heisadams.cli; "
            "print('scipy.integrate' in sys.modules)" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_benchmark_tracing_binds_every_name_it_wraps():
    """perfbench/tracing.py wraps package functions by name and raises when
    one is bound nowhere: installing it in a fresh interpreter exits 0."""
    import subprocess
    import sys
    root = Path(cli.__file__).resolve().parents[2]
    code = ("import sys; sys.path[:0] = [%r, %r]; import heisadams, tracing; "
            "tracing.install(heisadams)" % (str(root / "perfbench"), str(root / "src")))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_constants_command_loads_no_scipy_integrate_or_optimize(tmp_path):
    """The quadratures are numpy Gauss-Legendre rules: a fresh interpreter
    that runs `heisadams constants` never imports scipy.integrate (nor
    scipy.optimize, which it pulls in)."""
    import subprocess
    import sys
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import heisadams.cli; "
            "rc = heisadams.cli.main(['constants', '--out', %r]); "
            "print(rc, 'scipy.integrate' in sys.modules, 'scipy.optimize' in sys.modules)"
            % (src, str(tmp_path / "c")))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split()[-3:] == ["0", "False", "False"]


def test_capacity_command(tmp_path):
    out = tmp_path / "cap"
    rc = run_cli(["capacity", "--ell", "0.5", "--grid", "13", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "capacity.json").read_text())
    assert doc["energy"] > 0
    assert doc["slack"] == pytest.approx(doc["energy"] / doc["bound"] - 1, rel=1e-12)
    assert doc["converged"] is True
    assert (out / "capacity_field.bin").exists()
    adams = ha.adams_function(ha.capacity_profile(0.5, ha.ball_grid(13), tol=1e-8))
    assert (doc["plateau"], doc["normEstimate"]) == (adams.plateau, adams.normEstimate)


def test_capacity_warns_on_an_under_resolved_plateau(tmp_path, capsys):
    """At 9^3, ell = 0.1 is below one cell: the profile is written and the
    run exits 0, but stderr names the plateau as under-resolved, as
    sharpness does for its rows; ell = 0.5 gives no warning."""
    out = tmp_path / "thin"
    assert run_cli(["capacity", "--grid", "9", "--ell", "0.1", "--out", str(out)]) == 0
    doc = json.loads((out / "capacity.json").read_text())
    assert (doc["plateau_cells"], doc["resolved_rings"]) == (1, 0)
    err = capsys.readouterr().err
    assert "ell = 0.1" in err and "under-resolved" in err
    assert run_cli(["capacity", "--grid", "9", "--ell", "0.5",
                    "--out", str(tmp_path / "wide")]) == 0
    assert "under-resolved" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["capacity", "sharpness"])
def test_unconverged_capacity_exit_3(tmp_path, monkeypatch, capsys, command):
    """A capacity CG that ends above its tolerance gives exit 3 with one
    reason line; the artifacts and the manifest are still written,
    capacity.json with converged = false."""
    import heisadams.extremals as ext
    monkeypatch.setattr(ext, "_CAPACITY_CG_MAX_ITER", 1)
    out = tmp_path / command
    ks = ["--ks", "2"] if command == "sharpness" else []
    rc = run_cli([command, "--grid", "9", *ks, "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        ("a " if command == "sharpness" else "") + "capacity solve ended above its tolerance"]
    assert_resolves_command_keys(out, command)
    if command == "capacity":
        doc = json.loads((out / "capacity.json").read_text())
        assert doc["converged"] is False and doc["cg_iterations"] == 1
    else:
        lines = (out / "sharpness.csv").read_text().splitlines()
        assert lines[0] == "k,beta,a,value,normEstimate"
        assert len(lines) == 4


@pytest.mark.parametrize("before, args", [
    (None, ["sharpness", "--grid", "6"]),
    (None, ["capacity", "--grid", "6", "--ell", "0.9"]),
    (None, ["capacity", "--grid", "17", "--ell", "0.9"]),
    (["capacity", "--grid", "9"], ["capacity", "--grid", "6", "--ell", "0.9"]),
    (["capacity", "--grid", "9"], ["capacity", "--grid", "9", "--ell", "2"]),
], ids=["args0", "args1", "args2", "reused_out", "reused_out_resolve"])
def test_unresolvable_ell_exits_2(tmp_path, capsys, before, args):
    """An ell whose plateau holds no cell (ball 6 at the default ks reaches
    ell = 1/4), or reaches the clamped ring, is a configuration error: exit
    2 from inside the command, with the output directory made but neither
    an artifact nor the manifest written; an ell outside (0, 1) exits 2
    while the configuration is resolved.  In a directory reused from a
    completed run, the earlier manifest is removed either way and its
    artifacts stay."""
    out = tmp_path / "out"
    left = []
    if before:
        assert run_cli(before + ["--out", str(out)]) == 0
        left = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert left
    assert run_cli(args + ["--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert out.is_dir() and sorted(p.name for p in out.iterdir()) == left


@pytest.mark.parametrize("args", [
    ["capacity", "--grid", "9", "--nmax", "3"],
    ["capacity", "--grid", "x"],
    ["capacity", "--gridd", "9"],
    ["frobnicate"],
], ids=["key_not_read", "bad_value", "unknown_flag", "unknown_command"])
def test_a_rejected_flag_removes_the_stale_manifest(tmp_path, capsys, args):
    """A flag the command does not read, a value that does not cast, an
    unknown flag or an unknown command exits 2, like the same fault in a
    config file, and removes the manifest of the completed run in the
    reused out; that run's artifacts stay."""
    out = tmp_path / "d"
    assert run_cli(["capacity", "--grid", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(args + ["--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "manifest.json").exists() and (out / "capacity.json").exists()


def test_plateau_over_every_free_cell_exits_2(tmp_path, capsys):
    """At 5^3 the free cells reach gauge 0.716 and the clamped ring starts at
    0.8, so the plateau of ell = 0.75 leaves no free cell to solve for: exit
    2 with that reason, no artifact, and a stale manifest removed."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}")
    assert run_cli(["capacity", "--grid", "5", "--ell", "0.75", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: no free cells between B_ell and the ball boundary"]
    assert list(out.iterdir()) == []


def test_resolve_error_reads_out_from_the_config_file(tmp_path):
    """A configuration error found while resolving removes the manifest from
    the out that a parsed config file names, and still exits 2 when out is
    a file."""
    out = tmp_path / "d"
    assert run_cli(["capacity", "--grid", "9", "--out", str(out)]) == 0
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"out = {out}\nell = 2\n")
    assert run_cli(["capacity", "--grid", "9", "--config", str(cfgfile)]) == 2
    assert not (out / "manifest.json").exists() and (out / "capacity.json").exists()
    assert run_cli(["capacity", "--ell", "2", "--out", str(cfgfile)]) == 2


def test_continuation_falling_ray_exits_3(tmp_path, capsys):
    """lam far above lambda_1 makes J fall from the origin along a ray of
    the saddle search: the stage is a geometry failure and the command
    exits 3."""
    out = tmp_path / "cont"
    rc = run_cli(["continuation", "--nl", "critical", "--lam", "1000", "--grid", "7",
                  "--nmax", "1", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "continuation aborted early; partial results written"]
    assert_resolves_command_keys(out, "continuation")
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
    assert rows[0] == ("n,a,norm,diff,weighted_uf,weighted_F,level,gradResidual,"
                       "newton_iterations,descent_cg_iterations,minres_iterations")
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
