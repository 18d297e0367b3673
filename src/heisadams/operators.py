"""Finite differences for the left-invariant frame and the sublaplacian.

The frame is X = d/dx + 2y d/dt, Y = d/dy - 2x d/dt, T = d/dt, and

    L u = u_xx + u_yy + 4(x^2+y^2) u_tt + 4y u_xt - 4x u_yt

(the sum of squares X^2 + Y^2 expanded).  All derivatives are centered:
3-point second differences and 4-point mixed stencils, which makes L exact
on quadratics and keeps every stencil coefficient a function of coordinates
orthogonal to its differencing directions.  That last property makes the
assembled matrix exactly symmetric on zero-extended fields (ghost layers are
zero, matching the zero-extension reading of the clamped boundary).

The quadratic form u -> ||L u||^2 on clamped fields has one representation:
B = L[:, free], the columns of L at the free cells, read off sublaplacian by
27-colour probing and cached on the domain.  Its operator on any set of free
cells is B^T B, its diagonal diag(B^T B) is the squared column norms of B
(cached with it), the form's gradient is B^T (L u), and the free rows of B
are the L_ff that free_preconditioner factors.  The operator and L_ff^-2 are
scipy LinearOperators, which every linear solve hands to scipy's cg or minres.
grid_form bundles them, with the cell volume and the singular weights on the
free cells, into the Form the variational drivers work on.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import LinearOperator, splu

from .grids import GridDomain, GridField

_C = (slice(1, -1),) * 3


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


def sublaplacian(u: GridField) -> GridField:
    """Discrete L u at every cell of the box (boundary ring included)."""
    dom = u.domain
    hx, hy, ht = dom.spacing
    up = np.pad(u.values, 1)
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


def free_columns(domain: GridDomain) -> csc_matrix:
    """B = L[:, free]: rows are all box cells, columns the free cells.

    Both follow the C order of the box.  The stencil reaches one cell per
    axis, so the free cells of one residue class (i mod 3, j mod 3, k mod 3)
    never share a target: applying sublaplacian to the class's indicator
    field reads off the 27 possible entries of each of its columns.  27
    applies give B, and the stencil stays written in sublaplacian alone.
    Free cells never touch the box faces, so every target is in range.
    Cached on the domain.
    """
    cache = domain._cache
    if "free_columns" not in cache:
        free = domain.free_mask()
        _, ny, nt = domain.shape
        cells = np.flatnonzero(free)
        offsets = np.array([di * ny * nt + dj * nt + dk
                            for di in (-1, 0, 1) for dj in (-1, 0, 1) for dk in (-1, 0, 1)])
        rows = (cells[:, None] + offsets).astype(np.int32)
        vals = np.empty(rows.shape)
        i, j, k = np.unravel_index(cells, domain.shape)
        colour = 9 * (i % 3) + 3 * (j % 3) + k % 3
        for c in range(27):
            sel = colour == c
            src = np.zeros(domain.shape)
            src.flat[cells[sel]] = 1.0
            vals[sel] = sublaplacian(GridField(domain, src)).values.ravel()[rows[sel]]
        hit = vals != 0.0
        indptr = np.concatenate(([0], np.cumsum(hit.sum(axis=1)))).astype(np.int32)
        cache["free_columns"] = csc_matrix((vals[hit], rows[hit], indptr),
                                           shape=(free.size, cells.size))
    return cache["free_columns"]


def form_diagonal(domain: GridDomain) -> np.ndarray:
    """diag(B^T B), the squared column norms of B, one per free cell.

    The diagonal of the form's operator on any set of free cells is this
    vector restricted to them, a Jacobi preconditioner for its CG.  Every
    column of B holds its cell's own nonzero L entry, so none is empty and
    one reduceat over the CSC column starts sums them.  Cached on the domain.
    """
    cache = domain._cache
    if "form_diagonal" not in cache:
        B = free_columns(domain)
        cache["form_diagonal"] = np.add.reduceat(B.data ** 2, B.indptr[:-1])
    return cache["form_diagonal"]


def squared_sublaplacian(domain: GridDomain, cells: np.ndarray | None = None) -> LinearOperator:
    """x -> (B^T B y)[cells], y equal to x on cells and zero elsewhere.

    This is L^2, the quadratic form's operator, on the degrees of freedom in
    cells (a boolean mask within the free cells, all of them by default); it
    is symmetric positive definite.  For a subset the columns of B at cells
    are sliced out once, so each apply is Bc^T (Bc x) (Bc^T is CSR);
    the products add the same nonzero terms in the same order as the full
    B^T B on the zero-filled vector, so the result is bit for bit the same.
    """
    B = free_columns(domain)
    if cells is not None:
        B = B[:, np.flatnonzero(cells[domain.free_mask()])]
    BT = B.T
    n = B.shape[1]
    return LinearOperator((n, n), matvec=lambda x: BT @ (B @ x), dtype=float)


def form_gradient(u: GridField) -> np.ndarray:
    """L(L u) on the free cells as B^T (L u), for any field u: by the symmetry
    of L, the gradient of 1/2 ||L u||^2 in the free values (volume aside)."""
    return free_columns(u.domain).T @ sublaplacian(u).values.ravel()


def free_preconditioner(domain: GridDomain) -> LinearOperator:
    """r -> L_ff^-1 (L_ff^-1 r), the inverse of L_ff^2, cached on the domain.

    L_ff, the free rows of B, is the sublaplacian from free cells to free
    cells.  L_ff^2 differs from B^T B only by the rows of L that land on the
    clamped ring, so it is a close SPD preconditioner for every free-cell
    Krylov solve.  L_ff is factored once by sparse LU with the
    minimum-degree ordering of L_ff + L_ff^T, which fills far less than the
    default column ordering on this stencil; symmetric mode, which prefers
    diagonal pivots, halves the factor and solve times.
    """
    cache = domain._cache
    if "free_precond" not in cache:
        Lff = free_columns(domain)[np.flatnonzero(domain.free_mask()), :]
        lu = splu(Lff, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        cache["free_precond"] = LinearOperator(
            Lff.shape, matvec=lambda r: lu.solve(lu.solve(r)), dtype=float)
    return cache["free_precond"]


@dataclass(frozen=True)
class Form:
    """The quadratic form ||L u||^2 on the vector of free-cell unknowns.

    A is the operator B^T B, M the preconditioner L_ff^-2, volume the cell
    volume; weight(a) is the singular weight of rho^-a on the unknowns, and
    expand(x) the field equal to x on the free cells and zero elsewhere.
    """

    A: LinearOperator
    M: LinearOperator
    volume: float
    weight: Callable[[float], np.ndarray]
    expand: Callable[[np.ndarray], GridField]


def grid_form(domain: GridDomain) -> Form:
    """The Form of the domain's free cells, cached on the domain.  It holds the
    domain weakly, as a cycle through the cache would keep a dropped domain's
    factor alive until a full collection, so it serves while the domain does."""
    cache = domain._cache
    if "form" not in cache:
        free = domain.free_mask()
        ref = weakref.ref(domain)

        def expand(x):
            vals = np.zeros(free.shape)
            vals[free] = x
            return GridField(ref(), vals)

        cache["form"] = Form(A=squared_sublaplacian(domain), M=free_preconditioner(domain),
                             volume=domain.cell_volume,
                             weight=lambda a: ref().singular_weight(a)[free],
                             expand=expand)
    return cache["form"]


def dirichlet_energy(u: GridField) -> float:
    """||L u||_2^2 summed over the whole box with cell volume."""
    Lu = sublaplacian(u).values
    return float(np.sum(Lu * Lu)) * u.domain.cell_volume


def inner(u: GridField, v: GridField) -> float:
    """L^2 pairing sum(u v) * cellVolume."""
    return float(np.sum(u.values * v.values)) * u.domain.cell_volume


def integrate_weighted(f: GridField, a: float) -> float:
    """int_Omega f / rho^a by the cached singular weight (a = 0 allowed)."""
    dom = f.domain
    w = dom.singular_weight(a)
    return float(np.sum(f.values * w)) * dom.cell_volume

