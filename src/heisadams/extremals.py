"""Capacity-normalized plateau profiles and the Adams function family.

The conductor-capacity profile U_ell on the unit gauge ball B minimizes
||L u||_2^2 subject to u = 1 on B_ell and u = 0 on and outside the boundary
of B.  Discretely this is an equality-constrained least-squares problem; we
eliminate the constrained cells, leaving the normal operator B^T B
(B = L[:, free]; see operators) on the free cells off the plateau, where it
is symmetric positive definite.  The ball, the plateau and so the
right-hand side are invariant under the order-8 symmetry group of L (the
quarter turn in z and (x, y, t) -> (x, -y, -t)), so the minimizer is
invariant too, and the solve runs on the invariant fields only, in the
unknowns of the domain's one reduced form, operators.orbit_form: with y_p
the plateau's indicator unknowns and Cf = C[:, off] diag(count[off]^-1/2)
the scaled column block of the orbits off the plateau, scipy's cg solves
Cf^T Cf z = -Cf^T C y_p, about an eighth of the unknowns and nonzeros.
The scaling makes the orbit basis orthonormal, so residual norms mean what
they mean on all the free cells.  The CG stops on the unpreconditioned
residual.  Its preconditioner is the off-plateau block of the form's M,
G~^-1 (G~^-T r / count) with G~ the incomplete LU of the sublaplacian G on
the orbits, scaled by count[off]^1/2 on both sides: symmetric positive
definite, like M.  The free set changes with ell, so every plateau shares
the one factor of G on all the free orbits, the one that the variational
drivers on the same domain apply too.  Each profile reports the true
residual ||b - A x|| / ||b|| (one extra apply, in the reduced unknowns) and
whether it is within the tolerance.  A grid whose mask is not invariant, or
an ell whose plateau reaches the clamped ring, raises ValueError.

The energy ||L u||^2 of the minimizer is read off the form as
volume ||C y||^2, y its unknowns, with no stencil sweep.  The profile
depends on ell only through the plateau cells, so the CG result (unknowns,
iterations, residual, energy) is cached on the domain keyed by those
cells and tol, the way singular_weight is cached per a: a probe over
several a, or over several ell below the grid resolution, solves each
distinct plateau once.

The Adams function with inner radius r inside gauge radius R is

    A_r(xi) = sqrt(Q log(R/r) / A) * U_{r/R}(xi / R),   zero for |xi| >= R.

The norm is dilation invariant in Q = 4, so A_r depends on ell = r/R alone
and is read off the capacity profile U_ell on the unit-ball grid.  The
plateau amplitude is exact arithmetic; the norm estimate inherits the
discrete capacity energy, which approaches the log-capacity bound
A / (Q log(1/ell)) only as ell -> 0 (the measured slack at moderate ell is
reported, not hidden).  The sharp exponent A is constants.BIG_A.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg

from .constants import BIG_A
from .grids import GridDomain, GridField
from .group import Q
from .io import write_csv
from .operators import integrate_weighted, orbit_form


@dataclass
class CapacityProfile:
    ell: float
    field: GridField
    energy: float               # ||L u||_2^2 of the minimizer
    bound: float                # A / (Q log(1/ell))
    slack: float                # energy / bound - 1, reported not asserted
    cg_iterations: int
    cg_residual: float          # true residual ||b - A x|| / ||b|| of the solve
    plateau_cells: int
    resolved_rings: int         # plateau thickness in cells of gauge-radius
    converged: bool             # cg_residual <= tol


@dataclass
class AdamsFunction:
    field: GridField
    normEstimate: float
    plateau: float              # sqrt(Q log(1/ell) / A), exact arithmetic


_CAPACITY_CG_MAX_ITER = 20000


def capacity_profile(ell: float, grid: GridDomain, tol: float = 1e-8) -> CapacityProfile:
    """Discrete conductor-capacity minimizer of B_ell inside the unit ball.

    grid must be a unit-ball grid (mask = gauge <= 1).  The plateau region is
    every in-ball cell with gauge <= ell; if no cell lies inside B_ell the
    constraints are infeasible and ValueError is raised; so it is when a
    plateau cell lies on the clamped ring and when the mask is not
    invariant under the symmetry group of L.
    The CG result is cached on the grid per (plateau cells, tol), so every
    ell with the same plateau shares one solve; each call returns its own
    field.
    """
    if not (0.0 < ell < 1.0):
        raise ValueError(f"ell must lie in (0, 1), got {ell}")
    rho = grid.gauge()
    free = grid.free_mask()
    hmax = max(grid.spacing)
    form = orbit_form(grid)

    plateau = (rho <= ell) & grid.mask
    if not plateau.any():
        raise ValueError(
            f"ell = {ell} unresolved: smallest in-ball cell gauge is {rho[grid.mask].min():.3g}"
        )
    if (plateau & ~free).any():
        raise ValueError(f"ell = {ell} unresolved: the plateau reaches the clamped ring")
    rings = int(np.floor(ell / hmax))

    y = form.restrict(GridField(grid, plateau.astype(float)))
    off = y == 0.0
    if not off.any():
        raise ValueError("no free cells between B_ell and the ball boundary")

    cache = grid._cache
    key = ("capacity", np.flatnonzero(plateau).tobytes(), tol)
    if key not in cache:
        scale = form.count[off] ** -0.5
        Cf = csr_matrix(form.C[:, off].multiply(scale))
        CfT = Cf.T
        b = -(CfT @ (form.C @ y))
        shape = (Cf.shape[1],) * 2
        A = LinearOperator(shape, matvec=lambda z: CfT @ (Cf @ z), dtype=float)

        def precondition(r):
            x = np.zeros(form.count.size)
            x[off] = r.ravel() / scale
            return form.M(x)[off] / scale

        steps = []                       # cg calls back once per iteration
        z, _ = cg(A, b, rtol=tol, atol=0.0, maxiter=_CAPACITY_CG_MAX_ITER,
                  M=LinearOperator(shape, matvec=precondition, dtype=float),
                  callback=steps.append)
        y[off] = scale * z
        Cy = form.C @ y
        cache[key] = (y, len(steps), float(np.linalg.norm(b - A @ z) / np.linalg.norm(b)),
                      form.volume * float(Cy @ Cy))
    y, iters, res, energy = cache[key]
    u = form.expand(y)
    bound = BIG_A / (Q * np.log(1.0 / ell))
    return CapacityProfile(
        ell=ell,
        field=u,
        energy=energy,
        bound=bound,
        slack=energy / bound - 1.0,
        cg_iterations=iters,
        cg_residual=res,
        plateau_cells=int(plateau.sum()),
        resolved_rings=rings,
        converged=bool(res <= tol),
    )


def adams_function(profile: CapacityProfile) -> AdamsFunction:
    """Plateau function sqrt(Q log(1/ell)/A) * U_ell of a capacity profile.

    The field lives on the profile's unit-ball grid, understood as B_R after
    the dilation xi -> xi/R with ell = r/R (the norm is dilation invariant
    in Q = 4, so the energy needs no rescaling).
    """
    amplitude = float(np.sqrt(Q * np.log(1.0 / profile.ell) / BIG_A))
    field = GridField(profile.field.domain, amplitude * profile.field.values)
    norm = float(np.sqrt(amplitude ** 2 * profile.energy))
    return AdamsFunction(field=field, normEstimate=norm, plateau=amplitude)


def singular_mt_functional(u: GridField, beta: float, a: float) -> float:
    """int_Omega exp(beta u^2) / rho^a d xi via the weighted quadrature."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    expfield = GridField(u.domain, np.exp(beta * u.values ** 2))
    return integrate_weighted(expfield, a)


@dataclass
class ProbeRow:
    k: int
    beta: float
    a: float
    value: float
    normEstimate: float
    converged: bool             # the capacity solve for this k reached its tolerance
    plateau_cells: int          # of this k's capacity profile
    resolved_rings: int         # 0 when ell < h: the row is under-resolved


def sharpness_probe(a: float, betas, ks, grid: GridDomain,
                    tol: float = 1e-8) -> list[ProbeRow]:
    """Exponential-functional matrix over the Adams family.

    For each k the field is the Adams function with r = 1/k on the unit-ball
    grid, and for each beta the row records int exp(beta u^2)/rho^a together
    with the field's norm estimate.  Growth in k above the threshold exponent
    A(1 - a/4), against a plateau at or below it, is the numerical trace of
    sharpness; the supremum statement itself is not a finite computation.
    """
    rows: list[ProbeRow] = []
    for k in sorted(set(int(k) for k in ks)):
        prof = capacity_profile(1.0 / k, grid, tol=tol)
        af = adams_function(prof)
        for beta in betas:
            rows.append(
                ProbeRow(
                    k=k,
                    beta=float(beta),
                    a=float(a),
                    value=singular_mt_functional(af.field, float(beta), a),
                    normEstimate=af.normEstimate,
                    converged=prof.converged,
                    plateau_cells=prof.plateau_cells,
                    resolved_rings=prof.resolved_rings,
                )
            )
    return rows


def probe_to_csv(rows: list[ProbeRow], path: str | Path) -> None:
    header = ["k", "beta", "a", "value", "normEstimate"]
    write_csv(path, header, [[getattr(r, name) for r in rows] for name in header])
