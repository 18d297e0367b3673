"""Batch experiment driver.

Every experiment is a subcommand writing CSV/JSON artifacts.  Once it has
run, exiting 0, 3 or 4, main writes manifest.json, whose "resolved" block
holds the command, out and every key the command read, with the value it
ran at (flag, config-file value or default); an exit 2 writes none and
removes an earlier run's from the output directory the run would have
used, when that is known.
Identical config and seed produce byte-identical artifacts.  Exit codes:
0 success, 2 configuration error, 3 convergence failure, 4
hypothesis-validation failure; an exit 3 or 4 names its reason on stderr.

Each subcommand takes --out, --config and a flag for each key it reads
(_COMMANDS; 'heisadams <command> --help' lists them), and no other.
--config names a flat key=value file ('#' starts a comment) that may set
only those keys; flags override file values.  Any other key exits 2 before
the output directory is created.

Beta tokens for the sharpness probe: a bare float is an absolute exponent,
'xA' means x times the sharp constant A, and 'x*' means x times the singular
threshold A(1 - a/4); no beta may be negative.  k lists: 'a..b' doubles from
a up to b, otherwise a comma list; every k is >= 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .constants import BIG_A, QuadratureOptions, compute_constants
from .extremals import adams_function, capacity_profile, probe_to_csv, sharpness_probe
from .grids import GridField, ball_grid, box_grid, gauge_power_field, save_field
from .io import write_csv, write_json
from .operators import orbit_form
from .rearrange import (
    decreasing_rearrangement,
    double_star,
    hardy_littlewood_slack,
    kernel_star,
    one_d_reduction,
)
from .varsolve import (
    SolveOptions,
    critical_continuation,
    critical_model,
    cubic_model,
    energy,
    lambda_estimate,
    level_bound,
    mountain_pass_solve,
    tail_differences_decreasing,
    validate_hypotheses,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_HYPOTHESES = 4


class ConfigError(Exception):
    out: str | None = None      # the stopped run's output directory, if known


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _parse_betas(spec: str, a: float) -> list[float]:
    scale = {"A": BIG_A, "*": BIG_A * (1.0 - a / 4.0)}
    toks = [tok.strip() for tok in spec.split(",") if tok.strip()]
    try:
        out = [float(t[:-1]) * scale[t[-1]] if t[-1] in scale else float(t) for t in toks]
    except ValueError as exc:
        raise ConfigError(f"bad beta list {spec!r}") from exc
    if not all(0.0 <= beta < np.inf for beta in out):
        raise ConfigError(f"beta list {spec!r} has a negative or non-finite beta")
    return out


def _parse_ks(spec: str) -> list[int]:
    try:
        if ".." in spec:
            k, hi = (int(tok) for tok in spec.split("..", 1))
            ks = []
            while 0 < k <= hi:    # doubling a k <= 0 never passes hi
                ks.append(k)
                k *= 2
        else:
            ks = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad k list {spec!r}") from exc
    if ks and min(ks) < 2:
        raise ConfigError(f"k list {spec!r} has a k below 2")
    return ks


# Every config key, declared once: key -> (type, default, help).  Flags are
# the keys with '-' for '_'; each subcommand takes "out" and the keys
# _COMMANDS lists for it, and no other.
_KEYS = {
    "out": (str, "out", "output directory"),
    "grid": (int, 17, "cells per axis"),
    "extent": (float, 1.0, "box half-extent"),
    "domain": (str, "box", "domain: box | ball (the unit gauge ball)"),
    "a": (float, 0.0, "singular-weight exponent"),
    "nl": (str, "cubic", "nonlinearity: cubic | critical"),
    "lam": (float, 1.0, "critical-model coefficient"),
    "alpha0": (float, 1.0, "critical-model exponent scale"),
    "tol": (float, 1e-6, "saddle-search tolerance"),
    "seed": (int, 0, "seed of the randomized checks"),
    "betas": (str, "0.75*,1.0*,1.25*", "beta list, e.g. 0.75*,1.25* or 0.9A,1.1A"),
    "ks": (str, "2..32", "k list, e.g. 2..32 or 2,4,8"),
    "ell": (float, 0.5, "inner gauge radius ratio"),
    "nmax": (int, 6, "number of continuation stages"),
    "tail_radius": (float, 50.0, "gauge truncation radius"),
    "mc_samples": (int, 200000, "Monte Carlo sample count"),
}

# key -> (valid, message) for the keys with a restricted range
_RANGES = {
    "grid": (lambda v: v >= 5, "grid must have at least 5 cells per axis"),
    "a": (lambda v: 0.0 <= v < 4.0, "a = {} outside [0, 4)"),
    "domain": (lambda v: v in ("box", "ball"), "unknown domain {!r}"),
    "nl": (lambda v: v in ("cubic", "critical"), "unknown nonlinearity {!r}"),
    "ell": (lambda v: 0.0 < v < 1.0, "ell = {} outside (0, 1)"),
    **{key: (lambda v: 0.0 < v < np.inf, key + " = {} must be finite and positive")
       for key in ("lam", "alpha0", "extent", "tail_radius", "tol")},
    "seed": (lambda v: v >= 0, "seed = {} must be non-negative"),
    "nmax": (lambda v: v >= 1, "nmax = {} must be at least 1"),
    "mc_samples": (lambda v: v >= 2, "mc_samples = {} must be at least 2"),
    # the parsers raise ConfigError on a bad token; an empty list is invalid
    "betas": (lambda v: _parse_betas(v, 0.0), "no beta values in {!r}"),
    "ks": (_parse_ks, "no k values in {!r}"),
}


def _command_keys(command: str) -> tuple[str, ...]:
    return ("out",) + _COMMANDS[command][1]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heisadams", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        # no abbreviations: 'continuation --a 1' must not mean --alpha0
        sp = sub.add_parser(command, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="flat key=value config file")
        for key in _command_keys(command):
            typ, default, text = _KEYS[key]
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=typ,
                            help=f"{text} (default {default!r})")
    return ap


def resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """Merge defaults <- config file <- command line; validate ranges.

    The result holds command, out and exactly the command's keys, so reading
    any other key raises AttributeError.  A ConfigError carries the out the
    run would have used, unless a config file that might name it did not parse.
    """
    given = dict(vars(args))
    command = given.pop("command")
    cfg = {key: _KEYS[key][1] for key in _command_keys(command)}
    path = given.pop("config", None)
    file = None
    try:
        file = _read_config_file(path) if path else {}
        for key, val in file.items():
            nkey = key.replace("-", "_")
            if nkey not in cfg:
                raise ConfigError(f"{command} does not read config key {key!r}"
                                  if nkey in _KEYS else f"unknown config key {key!r}")
            try:
                cfg[nkey] = _KEYS[nkey][0](val)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {val!r}") from exc
        cfg.update(given)
        for key, (valid, message) in _RANGES.items():
            if key in cfg and not valid(cfg[key]):
                raise ConfigError(message.format(cfg[key]))
        if cfg.get("domain") == "ball" and cfg["extent"] != 1.0:
            raise ConfigError("the ball domain is the unit gauge ball; it takes no extent")
    except ConfigError as exc:
        if "out" in given:
            exc.out = given["out"]
        elif file is not None:
            exc.out = file.get("out", _KEYS["out"][1])
        raise
    return SimpleNamespace(command=command, **cfg)


def _fields(record, *omit: str) -> dict:
    """A result dataclass's fields by name, shallow, without those in omit."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
            if f.name not in omit}


def _warn_thin(record, who: str, ball: str, what: str) -> None:
    """Name on stderr a plateau thinner than one cell (no resolved ring)."""
    if record.resolved_rings == 0:
        print(f"{who}: the plateau {ball} is thinner than one cell "
              f"({record.plateau_cells} cell(s)); {what} is under-resolved", file=sys.stderr)


def _make_nl(cfg: SimpleNamespace):
    if cfg.nl == "cubic":
        return cubic_model()
    return critical_model(lam=cfg.lam, alpha0=cfg.alpha0)


# -- commands -------------------------------------------------------------------
# Each writes its artifacts, may fill the manifest's derived block, and
# returns (exit code, reason); the reason is "" on success.

def cmd_constants(cfg: SimpleNamespace, out: Path, derived: dict) -> tuple[int, str]:
    opts = QuadratureOptions(tail_radius=cfg.tail_radius, mc_samples=cfg.mc_samples,
                             mc_seed=cfg.seed)
    write_json(out / "constants.json", dataclasses.asdict(compute_constants(opts)))
    return EXIT_OK, ""


def cmd_rearrange_check(cfg: SimpleNamespace, out: Path, derived: dict) -> tuple[int, str]:
    n = cfg.grid
    dom = ball_grid(n)
    f = gauge_power_field(dom, 2.0)
    prof = decreasing_rearrangement(f)
    prof.to_csv(out / "profile.csv")

    total = prof.totalMeasure
    ts = np.linspace(0.1 * total, 0.9 * total, 97)
    fstar_err = float(np.max(np.abs(prof.f_star(ts) / kernel_star(ts) - 1.0)))
    dstar_err = float(np.max(np.abs(
        np.array([double_star(prof, t) for t in ts]) / (2.0 * prof.f_star(ts)) - 1.0)))
    _, _, defect = one_d_reduction(f)
    l2 = float(np.sum(f.masked() ** 2)) * dom.cell_volume

    rng = np.random.default_rng(cfg.seed)
    small = ball_grid(9)
    worst_slack = np.inf
    for _ in range(20):
        av = np.where(small.mask, rng.standard_normal(small.shape), 0.0)
        bv = np.where(small.mask, rng.standard_normal(small.shape), 0.0)
        s = hardy_littlewood_slack(GridField(small, av), GridField(small, bv))
        worst_slack = min(worst_slack, s)

    write_json(out / "rearrange_summary.json", {
        "grid": n,
        "fstar_max_rel_err": fstar_err,
        "dstar_ratio_max_rel_err": dstar_err,
        "one_d_defect": defect,
        "one_d_defect_rel": defect / l2,
        "hardy_littlewood_min_slack": worst_slack,
    })
    return EXIT_OK, ""


def cmd_sharpness(cfg: SimpleNamespace, out: Path, derived: dict) -> tuple[int, str]:
    a = cfg.a
    betas = _parse_betas(cfg.betas, a)
    ks = _parse_ks(cfg.ks)
    dom = ball_grid(cfg.grid)
    try:
        rows = sharpness_probe(a, betas, ks, grid=dom)
    except ValueError as exc:    # an ell the grid cannot resolve
        raise ConfigError(str(exc)) from exc
    probe_to_csv(rows, out / "sharpness.csv")
    per_k = {r.k: r for r in rows}.values()
    derived.update(threshold=BIG_A * (1.0 - a / 4.0), betas=betas, ks=ks, plateaus=[
        {"k": r.k, "plateau_cells": r.plateau_cells, "resolved_rings": r.resolved_rings}
        for r in per_k])
    for r in per_k:
        _warn_thin(r, f"k = {r.k}", f"B_(1/{r.k})", "its row")
    if not all(r.converged for r in rows):
        return EXIT_CONVERGENCE, "a capacity solve ended above its tolerance"
    return EXIT_OK, ""


def cmd_capacity(cfg: SimpleNamespace, out: Path, derived: dict) -> tuple[int, str]:
    dom = ball_grid(cfg.grid)
    try:
        prof = capacity_profile(cfg.ell, dom)
    except ValueError as exc:    # an ell the grid cannot resolve
        raise ConfigError(str(exc)) from exc
    adams = adams_function(prof)
    save_field(prof.field, out / "capacity_field.bin")
    write_json(out / "capacity.json", {**_fields(prof, "field"), "plateau": adams.plateau,
                                       "normEstimate": adams.normEstimate})
    _warn_thin(prof, f"ell = {cfg.ell}", "B_ell", "the profile")
    if not prof.converged:
        return EXIT_CONVERGENCE, "capacity solve ended above its tolerance"
    return EXIT_OK, ""


def cmd_solve(cfg: SimpleNamespace, out: Path, derived: dict) -> tuple[int, str]:
    dom = ball_grid(cfg.grid) if cfg.domain == "ball" else box_grid(cfg.grid, extent=cfg.extent)
    nl = _make_nl(cfg)
    a = cfg.a

    lam = lambda_estimate(dom, a)
    report = validate_hypotheses(nl, a, lam.value)
    form = orbit_form(dom)
    write_json(out / "hypotheses.json", {
        "free_cells": int(form.count.sum()),
        "unknowns": form.count.size,
        "lambda": lam.value,
        "lambda_converged": lam.converged,
        "lambda_iterations": lam.iterations,
        "lambda_residual": lam.residual,
        "sampled_range": list(report.sampled_range),
        "checks": [_fields(c) for c in report.checks],
    })
    if not (lam.converged and report.passed_geometry()):
        for name in ("solve.json", "trace.csv", "solution.bin"):    # an earlier run's
            (out / name).unlink(missing_ok=True)
        if not lam.converged:
            return EXIT_CONVERGENCE, "Rayleigh iteration did not converge; see hypotheses.json"
        return EXIT_HYPOTHESES, "hypothesis validation failed; see hypotheses.json"

    opts = SolveOptions(tol=cfg.tol)
    u, state = mountain_pass_solve(nl, a, dom, opts)
    save_field(u, out / "solution.bin")
    write_csv(out / "trace.csv", ["iteration", "level", "gradResidual", "norm"],
              [[h[k] for h in state.history] for k in range(4)])
    x = form.restrict(u)
    xAx = float(x @ form.A(x))
    summary = {
        **_fields(state, "history", "levelEstimate"),
        "level": state.levelEstimate,
        "norm": float(np.sqrt(form.volume * xAx)),
        "energy": energy(form, x, nl, a),
        # the Rayleigh quotient ||L u||^2 / int u^2 / rho^a on the unknowns
        "rayleigh_bound_ok": bool(
            xAx == 0.0 or xAx / float(form.weight(a) @ x ** 2) >= lam.value * (1 - 1e-6)),
    }
    if nl.alpha0 is not None:
        summary["level_bound"] = level_bound(a, nl.alpha0)
        summary["level_below_bound"] = bool(state.levelEstimate < summary["level_bound"])
    write_json(out / "solve.json", summary)
    derived["lambda"] = lam.value
    if state.geometry_failure or not state.converged:
        return EXIT_CONVERGENCE, state.message or "solver did not converge"
    return EXIT_OK, ""


def cmd_continuation(cfg: SimpleNamespace, out: Path, derived: dict) -> tuple[int, str]:
    dom = box_grid(cfg.grid, extent=cfg.extent)
    nl = _make_nl(cfg)
    opts = SolveOptions(tol=cfg.tol)
    steps = critical_continuation(nl, cfg.nmax, dom, opts)
    write_csv(out / "continuation.csv",
              ["n", "a", "norm", "diff", "weighted_uf", "weighted_F", "level", "gradResidual"],
              [[s.n for s in steps], [s.a for s in steps], [s.norm for s in steps],
               [s.diff_from_previous for s in steps], [s.weighted_uf for s in steps],
               [s.weighted_F for s in steps], [s.state.levelEstimate for s in steps],
               [s.state.gradResidual for s in steps]])
    # the last converged stage's solution; none when no stage converged
    converged = [s for s in steps if s.state.converged]
    final = out / "final_solution.bin"
    if converged:
        save_field(converged[-1].solution, final)
    else:
        final.unlink(missing_ok=True)
    write_json(out / "continuation.json", {
        "stages": len(steps),
        "final_stage": converged[-1].n if converged else None,
        "all_converged": bool(all(s.state.converged for s in steps)),
        "tail_differences_decreasing": tail_differences_decreasing(steps),
    })
    if len(steps) < cfg.nmax or not all(s.state.converged for s in steps):
        return EXIT_CONVERGENCE, "continuation aborted early; partial results written"
    return EXIT_OK, ""


def cmd_lambda(cfg: SimpleNamespace, out: Path, derived: dict) -> tuple[int, str]:
    res = lambda_estimate(box_grid(cfg.grid, extent=cfg.extent), cfg.a)
    write_json(out / "lambda.json", {"a": cfg.a, **_fields(res)})
    if not res.converged:
        return EXIT_CONVERGENCE, "Rayleigh iteration did not converge; see lambda.json"
    return EXIT_OK, ""


# subcommand -> (runner, the config keys it reads besides out)
_COMMANDS = {
    "constants": (cmd_constants, ("tail_radius", "mc_samples", "seed")),
    "rearrange-check": (cmd_rearrange_check, ("grid", "seed")),
    "sharpness": (cmd_sharpness, ("grid", "a", "betas", "ks")),
    "capacity": (cmd_capacity, ("grid", "ell")),
    "solve": (cmd_solve, ("grid", "extent", "domain", "a", "nl", "lam", "alpha0", "tol")),
    "continuation": (cmd_continuation, ("grid", "extent", "nl", "lam", "alpha0", "tol", "nmax")),
    "lambda": (cmd_lambda, ("grid", "extent", "a")),
}


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = resolve_config(_build_parser().parse_args(argv))
    except ConfigError as exc:
        # a directory without a manifest holds no completed run
        if exc.out is not None and Path(exc.out).is_dir():
            (Path(exc.out) / "manifest.json").unlink(missing_ok=True)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output dir {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    derived: dict = {}
    try:
        code, reason = _COMMANDS[cfg.command][0](cfg, out, derived)
    except ConfigError as exc:
        # a directory without a manifest holds no completed run
        (out / "manifest.json").unlink(missing_ok=True)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # the one manifest, once the command has run (write_json sorts the keys)
    write_json(out / "manifest.json", {"version": __version__, "resolved": vars(cfg),
                                       **({"derived": derived} if derived else {})})
    if reason:
        print(reason, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
