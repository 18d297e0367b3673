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
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

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


def free_sublaplacian(domain: GridDomain) -> csr_matrix:
    """L_ff: the zero-ghost sublaplacian from free cells to free cells.

    The stencil reaches one cell per axis, so the free cells of one residue
    class (i mod 3, j mod 3, k mod 3) never share a target: applying
    sublaplacian to the class's indicator field reads off one column per
    source cell.  27 applies give every entry, and the stencil stays written
    in sublaplacian alone.  Rows and columns follow the C order of
    domain.free_mask().
    """
    free = domain.free_mask()
    index = np.full(domain.shape, -1)
    index[free] = np.arange(int(free.sum()))
    tgt = np.nonzero(free)
    rows, cols, vals = [], [], []
    for colour in np.ndindex(3, 3, 3):
        src = np.zeros(domain.shape, dtype=bool)
        src[colour[0]::3, colour[1]::3, colour[2]::3] = True
        src &= free
        Lu = sublaplacian(GridField(domain, src.astype(float))).values[tgt]
        # the one cell of this class within one step of each target
        near = tuple(t + (c - t + 1) % 3 - 1 for t, c in zip(tgt, colour))
        hit = src[near] & (Lu != 0.0)
        rows.append(index[tgt][hit])
        cols.append(index[near][hit])
        vals.append(Lu[hit])
    n = len(tgt[0])
    return csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))


def free_preconditioner(domain: GridDomain):
    """r -> L_ff^-1 (L_ff^-1 r), the inverse of L_ff^2, cached on the domain.

    L_ff^2 differs from the free-cell bilaplacian only by the rows of L
    that land on the clamped ring, so it is a close SPD preconditioner for
    every free-cell Krylov solve.  L_ff is factored once by sparse LU with
    the minimum-degree ordering of L_ff + L_ff^T, which fills far less than
    the default column ordering on this stencil; symmetric mode, which
    prefers diagonal pivots, halves the factor and solve times.
    """
    cache = domain._coord_cache
    if "free_precond" not in cache:
        lu = splu(free_sublaplacian(domain).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
        cache["free_precond"] = lambda r: lu.solve(lu.solve(r))
    return cache["free_precond"]


def cg(apply_op, b: np.ndarray, tol: float, max_iter: int,
       x0: np.ndarray | None = None, M=None) -> tuple[np.ndarray, int, float]:
    """Conjugate gradients for a symmetric positive-definite apply_op.

    Starts from x0 (zero by default) and stops once ||r|| <= tol ||b||.  M,
    if given, applies an SPD preconditioner; without it the iterates are
    those of plain CG.  A step with p.Ap <= 0 or r.z <= 0 (an operator or
    preconditioner that is not positive definite) ends the iteration at the
    current iterate.  Returns the iterate, the iteration count and
    ||r|| / ||b||, the true residual after such a breakdown.
    """
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = x0.copy()
        r = b - apply_op(x)
    z = r if M is None else M(r)
    p = z.copy()
    rs = float(r @ r)
    rz = rs if M is None else float(r @ z)
    bnorm = max(np.sqrt(float(b @ b)), 1e-300)
    it = 0
    while np.sqrt(rs) > tol * bnorm and it < max_iter:
        it += 1
        Ap = apply_op(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0 or rz <= 0.0:
            r = b - apply_op(x)
            return x, it, np.sqrt(float(r @ r)) / bnorm
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rs = float(r @ r)
        if M is None:
            z, rz_new = r, rs
        else:
            z = M(r)
            rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
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
