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
27-colour probing and cached on the domain.  Its operator on the free cells
is B^T B, the form's gradient is B^T (L u), and the free rows of B are the
L_ff that free_preconditioner factors.  The operator and L_ff^-2 are scipy
LinearOperators, which every linear solve hands to scipy's cg or minres.
grid_form wraps them, with the cell volume and the singular weights on the
free cells, in the Form the variational drivers work on; it caches nothing
itself.

The stencil commutes, to rounding, with the order-8 group generated by the
quarter turn (x, y, t) -> (-y, x, t) and the reflection (x, y, t) ->
(x, -y, -t) (grids.orbit_images; t -> -t alone is not a symmetry, as the
mixed terms show).  orbit_reduction restricts the form to the invariant
fields on a set of cells the group maps to itself, in an orthonormal orbit
basis; the capacity solve runs there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, diags
from scipy.sparse.linalg import LinearOperator, splu

from .grids import GridDomain, GridField, orbit_images

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


def squared_sublaplacian(domain: GridDomain) -> LinearOperator:
    """x -> B^T (B x), L^2 on the free cells: the quadratic form's operator,
    symmetric positive definite.  B^T is CSR, so each apply is two sparse
    products."""
    B = free_columns(domain)
    BT = B.T
    n = B.shape[1]
    return LinearOperator((n, n), matvec=lambda x: BT @ (B @ x), dtype=float)


def _orbits(domain: GridDomain, cells: np.ndarray):
    """The orbits met by cells (flat indices, sorted): their representatives
    (least flat index), the orbit of each cell, and the orbit sizes.  Raises
    ValueError unless cells holds the whole orbit of each of its cells."""
    images = orbit_images(domain, cells)
    if not np.isin(images, cells).all():
        raise ValueError("the cells are not invariant under the symmetry group of L")
    return np.unique(images.min(axis=0), return_inverse=True, return_counts=True)


def orbit_reduction(domain: GridDomain, cells: np.ndarray) -> tuple[csr_matrix, csr_matrix]:
    """(P, C) with C^T C = P^T B^T B P: the form on the invariant fields of cells.

    cells is a boolean mask within the free cells that the symmetry group of
    L (grids.orbit_images) maps to itself.  L commutes with the group, so
    B^T B maps invariant fields on cells to invariant fields, and a Krylov
    solve from an invariant right-hand side never leaves them.  P, one
    column per orbit of cells with entries 1/sqrt|orbit|, is their
    orthonormal basis: ||P^T r|| = ||r|| for invariant r, so residual norms
    mean the same in the reduced unknowns.  The columns of B P are invariant
    too, so the rows of B P in one orbit R of rows are equal, and
    (B P)^T (B P) counts its representative row |R| times:
    C = diag(sqrt|R|) B[representatives, cells] P.  Only the rows the
    stencil reaches from cells (within one cell of them, an invariant set)
    are classified, and the representative rows are picked out of B before
    its columns are, so no slice of B larger than C is made.  Raises
    ValueError when cells is not invariant or the grid has no quarter turn.
    """
    idx = np.flatnonzero(cells)
    _, orbit, sizes = _orbits(domain, idx)
    P = csr_matrix((1.0 / np.sqrt(sizes[orbit]), (np.arange(idx.size), orbit)),
                   shape=(idx.size, sizes.size))
    near = cells.copy()         # free cells are off the box faces, so no roll wraps
    for axis in range(3):
        near |= np.roll(near, 1, axis) | np.roll(near, -1, axis)
    reps, _, row_sizes = _orbits(domain, np.flatnonzero(near))
    rows = free_columns(domain)[reps][:, np.flatnonzero(cells[domain.free_mask()])]
    return P, csr_matrix(diags(np.sqrt(row_sizes)) @ rows @ P)


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
    """The Form of the domain's free cells.  B and the factor of L_ff are
    cached on the domain, so each call only wraps them (tens of microseconds)."""
    free = domain.free_mask()

    def expand(x):
        vals = np.zeros(free.shape)
        vals[free] = x
        return GridField(domain, vals)

    return Form(A=squared_sublaplacian(domain), M=free_preconditioner(domain),
                volume=domain.cell_volume,
                weight=lambda a: domain.singular_weight(a)[free], expand=expand)


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

