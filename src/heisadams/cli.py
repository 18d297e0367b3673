"""Batch experiment driver.

Every experiment is a subcommand writing CSV/JSON artifacts plus a manifest
whose "resolved" block holds the command, out and every key the command
read, with the value it ran at (flag, config-file value or default).
Identical config and seed produce byte-identical artifacts.  Exit codes:
0 success, 2 configuration error, 3 convergence failure, 4
hypothesis-validation failure.

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
    pass


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
    if not all(beta >= 0.0 for beta in out):
        raise ConfigError(f"beta list {spec!r} has a negative beta")
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
    any other key raises AttributeError.
    """
    given = dict(vars(args))
    command = given.pop("command")
    cfg = {key: _KEYS[key][1] for key in _command_keys(command)}
    path = given.pop("config", None)
    if path:
        for key, val in _read_config_file(path).items():
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
    return SimpleNamespace(command=command, **cfg)


def _manifest(cfg: SimpleNamespace, extra: dict | None = None) -> dict:
    resolved = vars(cfg)
    doc = {"version": __version__, "resolved": {k: resolved[k] for k in sorted(resolved)}}
    if extra:
        doc["derived"] = extra
    return doc


def _make_nl(cfg: SimpleNamespace):
    if cfg.nl == "cubic":
        return cubic_model()
    return critical_model(lam=cfg.lam, alpha0=cfg.alpha0)


# -- commands -------------------------------------------------------------------

def cmd_constants(cfg: SimpleNamespace, out: Path) -> int:
    opts = QuadratureOptions(tail_radius=cfg.tail_radius, mc_samples=cfg.mc_samples,
                             mc_seed=cfg.seed)
    write_json(out / "constants.json", dataclasses.asdict(compute_constants(opts)))
    write_json(out / "manifest.json", _manifest(cfg))
    return EXIT_OK


def cmd_rearrange_check(cfg: SimpleNamespace, out: Path) -> int:
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
    write_json(out / "manifest.json", _manifest(cfg))
    return EXIT_OK


def cmd_sharpness(cfg: SimpleNamespace, out: Path) -> int:
    a = cfg.a
    betas = _parse_betas(cfg.betas, a)
    ks = _parse_ks(cfg.ks)
    dom = ball_grid(cfg.grid)
    try:
        rows = sharpness_probe(a, betas, ks, grid=dom)
    except ValueError as exc:    # an ell the grid cannot resolve
        raise ConfigError(str(exc)) from exc
    probe_to_csv(rows, out / "sharpness.csv")
    plateaus = {r.k: {"plateau_cells": r.plateau_cells, "resolved_rings": r.resolved_rings}
                for r in rows}
    write_json(out / "manifest.json", _manifest(cfg, {
        "threshold": BIG_A * (1.0 - a / 4.0), "betas": betas, "ks": ks,
        "plateaus": [{"k": k, **p} for k, p in plateaus.items()],
    }))
    for k, p in plateaus.items():
        if p["resolved_rings"] == 0:
            print(f"k = {k}: the plateau B_(1/{k}) is thinner than one cell "
                  f"({p['plateau_cells']} cell(s)); its row is under-resolved",
                  file=sys.stderr)
    if not all(r.converged for r in rows):
        print("a capacity solve ended above its tolerance", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_capacity(cfg: SimpleNamespace, out: Path) -> int:
    dom = ball_grid(cfg.grid)
    try:
        prof = capacity_profile(cfg.ell, dom)
    except ValueError as exc:    # an ell the grid cannot resolve
        raise ConfigError(str(exc)) from exc
    adams = adams_function(cfg.ell, 1.0, dom, profile=prof)
    save_field(prof.field, out / "capacity_field.bin")
    write_json(out / "capacity.json", {
        "ell": prof.ell,
        "energy": prof.energy,
        "bound": prof.bound,
        "slack": prof.slack,
        "plateau": adams.plateau,
        "normEstimate": adams.normEstimate,
        "cg_iterations": prof.cg_iterations,
        "cg_residual": prof.cg_residual,
        "plateau_cells": prof.plateau_cells,
        "resolved_rings": prof.resolved_rings,
        "converged": prof.converged,
    })
    write_json(out / "manifest.json", _manifest(cfg))
    if not prof.converged:
        print("capacity solve ended above its tolerance", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_solve(cfg: SimpleNamespace, out: Path) -> int:
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
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
    })
    if not lam.converged:
        write_json(out / "manifest.json", _manifest(cfg))
        print("Rayleigh iteration did not converge; see hypotheses.json", file=sys.stderr)
        return EXIT_CONVERGENCE
    if not report.passed_geometry():
        write_json(out / "manifest.json", _manifest(cfg))
        print("hypothesis validation failed; see hypotheses.json", file=sys.stderr)
        return EXIT_HYPOTHESES

    opts = SolveOptions(tol=cfg.tol)
    u, state = mountain_pass_solve(nl, a, dom, opts)
    save_field(u, out / "solution.bin")
    write_csv(out / "trace.csv", ["iteration", "level", "gradResidual", "norm"],
              state.history)
    x = form.restrict(u)
    xAx = float(x @ form.A(x))
    summary = {
        "converged": state.converged,
        "geometry_failure": state.geometry_failure,
        "level": state.levelEstimate,
        "gradResidual": state.gradResidual,
        "norm": float(np.sqrt(form.volume * xAx)),
        "energy": energy(form, x, nl, a),
        # the Rayleigh quotient ||L u||^2 / int u^2 / rho^a on the unknowns
        "rayleigh_bound_ok": bool(
            xAx == 0.0 or xAx / float(form.weight(a) @ x ** 2) >= lam.value * (1 - 1e-6)),
        "newton_iterations": state.newton_iterations,
        "message": state.message,
    }
    if nl.alpha0 is not None:
        summary["level_bound"] = level_bound(a, nl.alpha0)
        summary["level_below_bound"] = bool(state.levelEstimate < summary["level_bound"])
    write_json(out / "solve.json", summary)
    write_json(out / "manifest.json", _manifest(cfg, {"lambda": lam.value}))
    if state.geometry_failure or not state.converged:
        print(state.message or "solver did not converge", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_continuation(cfg: SimpleNamespace, out: Path) -> int:
    dom = box_grid(cfg.grid, extent=cfg.extent)
    nl = _make_nl(cfg)
    opts = SolveOptions(tol=cfg.tol)
    steps = critical_continuation(nl, cfg.nmax, dom, opts)
    rows = [(s.n, s.a, s.norm, s.diff_from_previous, s.weighted_uf, s.weighted_F,
             s.state.levelEstimate, s.state.gradResidual) for s in steps]
    write_csv(out / "continuation.csv",
              ["n", "a", "norm", "diff", "weighted_uf", "weighted_F", "level", "gradResidual"],
              rows)
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
    write_json(out / "manifest.json", _manifest(cfg))
    if len(steps) < cfg.nmax or not all(s.state.converged for s in steps):
        print("continuation aborted early; partial results written", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_lambda(cfg: SimpleNamespace, out: Path) -> int:
    dom = box_grid(cfg.grid, extent=cfg.extent)
    res = lambda_estimate(dom, cfg.a)
    write_json(out / "lambda.json", {
        "a": cfg.a,
        "value": res.value,
        "residual": res.residual,
        "iterations": res.iterations,
        "converged": res.converged,
    })
    write_json(out / "manifest.json", _manifest(cfg))
    return EXIT_OK if res.converged else EXIT_CONVERGENCE


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
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        cfg = resolve_config(args)
    except ConfigError as exc:
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

    try:
        return _COMMANDS[cfg.command][0](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
