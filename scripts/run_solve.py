#!/usr/bin/env python3
"""Solve the singularly weighted biharmonic problem by the saddle search.

Prints the convergence history tail and the solution diagnostics, including
the weighted Poincare check and, for the critical model, the level ceiling.
"""
import argparse

import heisadams as ha

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--nl", choices=["cubic", "critical"], default="cubic")
parser.add_argument("--a", type=float, default=1.0)
parser.add_argument("--grid", type=int, default=17)
parser.add_argument("--lam", type=float, default=None,
                    help="critical-model coefficient (default 0.9 * Lambda)")
parser.add_argument("--alpha0", type=float, default=1.0)
parser.add_argument("--tol", type=float, default=1e-6)
parser.add_argument("--ball", action="store_true", help="solve on the unit gauge ball")
args = parser.parse_args()

dom = ha.ball_grid(args.grid) if args.ball else ha.box_grid(args.grid)
lam_res = ha.lambda_estimate(dom, args.a, tol=1e-10)
print(f"Lambda = {lam_res.value:.6f} (residual {lam_res.residual:.2e})")

if args.nl == "cubic":
    nl = ha.cubic_model()
    warm = None
else:
    coef = args.lam if args.lam is not None else 0.9 * lam_res.value
    nl = ha.critical_model(lam=coef, alpha0=args.alpha0)
    warm = ha.adams_function(0.25, 1.0, dom).field if args.ball else None

report = ha.validate_hypotheses(nl, args.a, lam_res.value, dom)
for c in report.checks:
    print(f"  [{'ok' if c.passed else 'XX'}] {c.name}: {c.detail}")
if not report.passed_geometry():
    raise SystemExit("hypothesis validation failed")

u, st = ha.mountain_pass_solve(nl, args.a, dom, ha.SolveOptions(tol=args.tol),
                               warm_start=warm)
for row in st.history[-5:]:
    print(f"  it={row[0]:5d} level={row[1]:.6g} res={row[2]:.3e} |u|={row[3]:.4g}")
J = ha.energy(u, nl, args.a)
print(f"converged={st.converged} residual={st.gradResidual:.3e} "
      f"|u|={ha.d022_norm(u):.6g} J(u)={J:.6g}")
print(f"quotient(u) = {ha.rayleigh_quotient(u, args.a):.6g} >= Lambda: "
      f"{ha.rayleigh_quotient(u, args.a) >= lam_res.value * (1 - 1e-8)}")
if nl.alpha0 is not None:
    print(f"level ceiling (4-a)A/(8 alpha0) = {ha.level_bound(args.a, args.alpha0):.6g}, "
          f"achieved J = {J:.6g}")
