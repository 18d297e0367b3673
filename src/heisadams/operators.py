"""Finite differences for the left-invariant frame and the sublaplacian.

The frame is X = d/dx + 2y d/dt, Y = d/dy - 2x d/dt, T = d/dt, and

    L u = u_xx + u_yy + 4(x^2+y^2) u_tt + 4y u_xt - 4x u_yt

(the sum of squares X^2 + Y^2 expanded).  All derivatives are centered:
3-point second differences and 4-point mixed stencils, which makes L exact
on quadratics and keeps every stencil coefficient a function of coordinates
orthogonal to its differencing directions.  That last property makes the
assembled matrix exactly symmetric on zero-extended fields, so applying L
twice *is* the gradient of u -> ||L u||^2 with no boundary correction terms.

Ghost policies: "zero" (default; matches the zero-extension reading of the
clamped boundary) and "mirror" (even reflection of the interior about the
zeroed boundary ring, giving a vanishing centered normal difference).
"""

from __future__ import annotations

import numpy as np

from .grids import GridDomain, GridField

_C = (slice(1, -1),) * 3


def _pad(dom: GridDomain, values: np.ndarray, policy: str) -> np.ndarray:
    if policy == "zero":
        return np.pad(values, 1)
    if policy == "mirror":
        # clamp the boundary ring, then reflect interior values outward
        v = np.where(dom.free_mask(), values, 0.0)
        return np.pad(v, 1, mode="reflect")
    raise ValueError(f"unknown ghost policy {policy!r}")


def apply_fields(u: GridField, policy: str = "zero"):
    """Centered first differences of the frame: returns (Xu, Yu, Tu)."""
    dom = u.domain
    hx, hy, ht = dom.spacing
    up = _pad(dom, u.values, policy)
    X, Y, _ = dom.coords()

    ux = (up[2:, 1:-1, 1:-1] - up[:-2, 1:-1, 1:-1]) / (2 * hx)
    uy = (up[1:-1, 2:, 1:-1] - up[1:-1, :-2, 1:-1]) / (2 * hy)
    ut = (up[1:-1, 1:-1, 2:] - up[1:-1, 1:-1, :-2]) / (2 * ht)

    return (
        GridField(dom, ux + 2.0 * Y * ut),
        GridField(dom, uy - 2.0 * X * ut),
        GridField(dom, ut),
    )


def sublaplacian(u: GridField, policy: str = "zero") -> GridField:
    """Discrete L u at every cell of the box (boundary ring included)."""
    dom = u.domain
    hx, hy, ht = dom.spacing
    up = _pad(dom, u.values, policy)
    X, Y, _ = dom.coords()

    uxx = (up[2:, 1:-1, 1:-1] - 2 * up[_C] + up[:-2, 1:-1, 1:-1]) / hx**2
    uyy = (up[1:-1, 2:, 1:-1] - 2 * up[_C] + up[1:-1, :-2, 1:-1]) / hy**2
    utt = (up[1:-1, 1:-1, 2:] - 2 * up[_C] + up[1:-1, 1:-1, :-2]) / ht**2
    uxt = (
        up[2:, 1:-1, 2:] - up[2:, 1:-1, :-2] - up[:-2, 1:-1, 2:] + up[:-2, 1:-1, :-2]
    ) / (4 * hx * ht)
    uyt = (
        up[1:-1, 2:, 2:] - up[1:-1, 2:, :-2] - up[1:-1, :-2, 2:] + up[1:-1, :-2, :-2]
    ) / (4 * hy * ht)

    vals = uxx + uyy + 4.0 * (X**2 + Y**2) * utt + 4.0 * Y * uxt - 4.0 * X * uyt
    return GridField(dom, vals)


def bilaplacian(u: GridField, policy: str = "zero") -> GridField:
    """L(L u): the sublaplacian applied twice, zero ghosts in between.

    With the zero policy this equals the exact Euclidean gradient of the
    quadratic u -> 1/2 ||L u||^2 (cell-volume factor aside) restricted to
    free cells.
    """
    return sublaplacian(sublaplacian(u, policy=policy), policy=policy)


def restricted_bilaplacian(domain: GridDomain, cells: np.ndarray):
    """x -> L(L u)[cells] for the field u equal to x on cells, zero elsewhere.

    This is the quadratic form's operator on the degrees of freedom in cells
    (a boolean mask); it is symmetric, and positive definite whenever cells
    lie among the free cells.
    """
    def apply(x: np.ndarray) -> np.ndarray:
        u = np.zeros(domain.shape)
        u[cells] = x
        return bilaplacian(GridField(domain, u)).values[cells]
    return apply


def cg(apply_op, b: np.ndarray, tol: float, max_iter: int,
       x0: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
    """Conjugate gradients for a symmetric positive-definite apply_op.

    Starts from x0 (zero by default) and stops once ||r|| <= tol ||b||.
    Returns the iterate, the iteration count and ||r|| / ||b||.
    """
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = x0.copy()
        r = b - apply_op(x)
    p = r.copy()
    rs = float(r @ r)
    bnorm = max(np.sqrt(float(b @ b)), 1e-300)
    it = 0
    while np.sqrt(rs) > tol * bnorm and it < max_iter:
        it += 1
        Ap = apply_op(p)
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, it, np.sqrt(rs) / bnorm


def dirichlet_energy(u: GridField) -> float:
    """||L u||_2^2 summed over the whole box with cell volume."""
    Lu = sublaplacian(u).values
    return float(np.sum(Lu * Lu)) * u.domain.cell_volume


def d022_norm(u: GridField) -> float:
    """The norm (int |L u|^2)^(1/2) of the zero-extended field."""
    return float(np.sqrt(dirichlet_energy(u)))


def inner(u: GridField, v: GridField) -> float:
    """L^2 pairing sum(u v) * cellVolume."""
    return float(np.sum(u.values * v.values)) * u.domain.cell_volume


def integrate_weighted(f: GridField, a: float) -> float:
    """int_Omega f / rho^a by the cached singular weight (a = 0 allowed)."""
    dom = f.domain
    w = dom.singular_weight(a)
    return float(np.sum(f.values * w)) * dom.cell_volume


def integrate(f: GridField) -> float:
    dom = f.domain
    return float(np.sum(f.values[dom.mask])) * dom.cell_volume
