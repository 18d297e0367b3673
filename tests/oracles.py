"""References and helpers that only the tests use.

The package computes the quadratic form ||L u||^2 one way, on the orbit
unknowns of operators.orbit_form.  The stencil-side references below compute
it from the stencil on whole fields instead, so the tests can check the form
against them.  The rest are small quantities the tests state their checks
in: the frame, distribution functions, L^p integrals of a rearrangement, the
origin cell, the verdict of a hypothesis report and a polar ball integral.
"""

import numpy as np
from scipy.sparse import csc_matrix

from heisadams.constants import SharpConstants
from heisadams.grids import GridDomain, GridField
from heisadams.operators import _probed_rows, integrate_weighted, sublaplacian
from heisadams.rearrange import RearrangementProfile
from heisadams.varsolve import ValidationReport


def free_columns(domain: GridDomain) -> csc_matrix:
    """B = L[:, free]: rows are all box cells, columns the free cells, both
    in the C order of the box.  The rows within one cell of the free cells,
    the only ones the stencil reaches, are probed by _probed_rows and
    scattered into the box.  Cached on the domain."""
    cache = domain._cache
    if "free_columns" not in cache:
        free = domain.free_mask()
        near = free.copy()          # free cells are off the box faces, so no roll wraps
        for axis in range(3):
            near |= np.roll(near, 1, axis) | np.roll(near, -1, axis)
        rows = np.flatnonzero(near)
        Bn = _probed_rows(domain, rows)
        cache["free_columns"] = csc_matrix((Bn.data, rows[Bn.indices], Bn.indptr),
                                           shape=(free.size, Bn.shape[1]))
    return cache["free_columns"]


def dirichlet_energy(u: GridField) -> float:
    """||L u||_2^2 summed over the whole box with cell volume."""
    Lu = sublaplacian(u).values
    return float(np.sum(Lu * Lu)) * u.domain.cell_volume


def inner(u: GridField, v: GridField) -> float:
    """L^2 pairing sum(u v) * cellVolume."""
    return float(np.sum(u.values * v.values)) * u.domain.cell_volume


def rayleigh_quotient(u: GridField, a: float) -> float:
    """||u||^2 / int u^2/rho^a; scale-invariant in u."""
    usq = GridField(u.domain, u.values ** 2)
    denom = integrate_weighted(usq, a)
    if denom == 0.0:
        raise ValueError("quotient undefined: field vanishes on the weighted domain")
    return dirichlet_energy(u) / denom


def apply_fields(u: GridField):
    """Centered first differences of the frame: returns (Xu, Yu, Tu)."""
    dom = u.domain
    hx, hy, ht = dom.spacing
    up = np.pad(u.values, 1)
    X, Y, _ = dom.coords()

    ux = (up[2:, 1:-1, 1:-1] - up[:-2, 1:-1, 1:-1]) / (2 * hx)
    uy = (up[1:-1, 2:, 1:-1] - up[1:-1, :-2, 1:-1]) / (2 * hy)
    ut = (up[1:-1, 1:-1, 2:] - up[1:-1, 1:-1, :-2]) / (2 * ht)

    return (
        GridField(dom, ux + 2.0 * Y * ut),
        GridField(dom, uy - 2.0 * X * ut),
        GridField(dom, ut),
    )


def distribution(f: GridField, s: float) -> float:
    """lambda_f(s) = measure of {f > s} inside the domain mask."""
    vals = f.masked()
    return float(np.count_nonzero(vals > s)) * f.domain.cell_volume


def lp_integral(prof: RearrangementProfile, p: float) -> float:
    """int_0^{|Omega|} |f*|^p dt, exact on the steps."""
    widths = np.diff(np.concatenate([[0.0], prof.measures]))
    return float(np.sum(np.abs(prof.values) ** p * widths))


def origin_cell(domain: GridDomain) -> tuple[int, int, int] | None:
    """Index of the cell centered exactly at 0, or None."""
    nx, ny, nt = domain.shape
    if nx % 2 and ny % 2 and nt % 2:
        return (nx // 2, ny // 2, nt // 2)
    return None


def all_passed(report: ValidationReport) -> bool:
    return all(c.passed for c in report.checks)


def weighted_ball_integral(constants: SharpConstants, a: float) -> float:
    """Polar value of int_{B(0,1)} rho^-a d xi = c0 / (Q-a)."""
    if a >= constants.q:
        raise ValueError(f"weight exponent a={a} must be < Q={constants.q}")
    return constants.c0 / (constants.q - a)


def gamma1_importance_weights(u: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The three-variable importance weights of I = int |z|^2 (|z|^4+t^2+1)^(-5/2).

    The z-radius r has density p_r = 4 r^3/(1+r^4)^2 (r^4 = u/(1-u) for
    uniform u), the z-angle is uniform, and t = b tan(theta) is a Cauchy draw
    of scale b = sqrt(1+r^4), density p_t = b/(pi (b^2+t^2)).  The weight is
    the integrand times 2 pi r (the z-angle folded into the plane measure)
    over p_r p_t.
    """
    w = u / (1.0 - u)              # r^4
    r = w ** 0.25
    b = np.sqrt(1.0 + w)
    t = b * np.tan(theta)
    fval = r ** 2 * (r ** 4 + t * t + 1.0) ** -2.5
    p_r = 4.0 * r ** 3 / (1.0 + w) ** 2
    p_t = b / (np.pi * (b * b + t * t))
    return fval * 2.0 * np.pi * r / (p_r * p_t)
