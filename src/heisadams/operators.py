"""Finite differences for the left-invariant frame and the sublaplacian.

The frame is X = d/dx + 2y d/dt, Y = d/dy - 2x d/dt, T = d/dt, and

    L u = u_xx + u_yy + 4(x^2+y^2) u_tt + 4y u_xt - 4x u_yt

(the sum of squares X^2 + Y^2 expanded).  All derivatives are centered:
3-point second differences and 4-point mixed stencils, which makes L exact
on quadratics and keeps every stencil coefficient a function of coordinates
orthogonal to its differencing directions.  That last property makes the
assembled matrix exactly symmetric on zero-extended fields (ghost layers are
zero, matching the zero-extension reading of the clamped boundary).

The quadratic form u -> ||L u||^2 on clamped fields is read off B = L[:,
free], the columns of L at the free cells, by 27-colour probing of
sublaplacian, and cached on the domain.  Its operator on the free cells is
B^T B.

The stencil commutes, to rounding, with the order-8 group generated by the
quarter turn (x, y, t) -> (-y, x, t) and the reflection (x, y, t) ->
(x, -y, -t) (grids.orbit_images; t -> -t alone is not a symmetry, as the
mixed terms show), so B^T B maps fields invariant under it to invariant
fields, and every solve runs on the invariant fields of a cell set the
group maps to itself.  orbit_form gives the one reduced representation of
the form, the Form that the capacity solve and the variational drivers
work on, in orbit-indicator unknowns (one value per orbit of free cells):
its factor C with A = C^T C, an L_ff^-2 preconditioner factored on the
orbits (L_ff the free rows of B) at its first apply, the cell volume, the
orbit sizes and weights, and the maps between unknowns and fields.  The
operators are scipy LinearOperators, which every linear solve hands to
scipy's cg or minres.  A domain whose free cells are not invariant raises
ValueError; there is no unreduced path.  Form.restrict is the one gate from
a field into the unknowns: it raises ValueError for a field on another
domain object, one that is nonzero off the free cells, or one that is not
exactly invariant, so nothing is projected or dropped on the way in.  The
numbers reported after a solve (norms, Rayleigh quotients, weighted
integrals, capacity energies) are read off the Form too.  dirichlet_energy,
inner and apply_fields below stay as the stencil-side oracles that check
them, and integrate_weighted serves integrands such as exp(beta u^2) that do
not vanish off the free cells.
"""

from __future__ import annotations

import functools
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


def _orbits(domain: GridDomain, cells: np.ndarray):
    """The orbits met by cells (flat indices, sorted): their representatives
    (least flat index), the orbit of each cell, and the orbit sizes.  Raises
    ValueError unless cells holds the whole orbit of each of its cells."""
    images = orbit_images(domain, cells)
    if not np.isin(images, cells).all():
        raise ValueError("the cells are not invariant under the symmetry group of L")
    return np.unique(images.min(axis=0), return_inverse=True, return_counts=True)


@dataclass(frozen=True)
class Form:
    """The quadratic form ||L u||^2 on the orbit-indicator unknowns of the free
    cells: unknown y_o is the value of the field at every free cell of orbit o.

    With E the indicator matrix of the orbits (x = E y on the free cells), A
    is the operator E^T B^T B E = C^T C, C its sparse factor, M its
    preconditioner, volume the cell volume and count the orbit sizes.
    Coordinates of a gradient are orbit sums, so the Euclidean norm of the
    invariant free-cell vector g_full with E^T g_full = g is
    sqrt(g.(g / count)).  weight(a) is E^T w_a, the orbit sums of the
    singular weight of rho^-a; expand(y) is the field equal to E y on the
    free cells and zero elsewhere, and restrict(u) its inverse, the unknowns
    of a field of this domain object that vanishes off the free cells and is
    exactly invariant on them (ValueError otherwise).  On those unknowns
    ||L u||^2 = volume x.Ax and int g(u) / rho^a = volume w_a.g(x) for any
    g with g(0) = 0.
    """

    A: LinearOperator
    C: csr_matrix
    M: LinearOperator
    volume: float
    count: np.ndarray
    weight: Callable[[float], np.ndarray]
    expand: Callable[[np.ndarray], GridField]
    restrict: Callable[[GridField], np.ndarray]


def orbit_form(domain: GridDomain) -> Form:
    """The Form of the domain's free cells in orbit-indicator unknowns, built
    once and cached on the domain.

    L commutes with the group, so the columns of B E are invariant, the rows
    of B E in one orbit R of rows are equal, and (B E)^T (B E) counts its
    representative row |R| times: C = diag(sqrt|R|) B[row representatives] E
    has C^T C = E^T B^T B E.  Only the rows the stencil reaches from the free
    cells (within one cell of them, an invariant set) are classified.

    M(r) = G^-1 G^-1 (r / count) with G = L_ff[representative rows] E,
    where L_ff, the free rows of B, is the sublaplacian from free cells to
    free cells.  With K = E^T L_ff E = diag(count) G, M = K^-1 diag(count)
    K^-1 is symmetric positive definite, and it is L_ff^-2 on invariant
    fields: M(E^T L_ff^2 E y) = y.  L_ff^2 differs from B^T B only by the
    rows of L that land on the clamped ring, so M is a close preconditioner
    for every Krylov solve on A.  G (one row and column per orbit) is
    factored by sparse LU with the minimum-degree ordering of G + G^T at the
    first apply of M, so a domain that only the capacity solve uses never
    holds the factor; symmetric mode, which prefers diagonal pivots, halves
    the factor and solve times.  Raises ValueError when the free cells are not
    invariant under the symmetry group of L or the grid has no quarter turn.
    """
    cache = domain._cache
    if "orbit_form" not in cache:
        free = domain.free_mask()
        idx = np.flatnonzero(free)
        reps, orbit, count = _orbits(domain, idx)
        E = csr_matrix((np.ones(idx.size), (np.arange(idx.size), orbit)),
                       shape=(idx.size, count.size))
        near = free.copy()          # free cells are off the box faces, so no roll wraps
        for axis in range(3):
            near |= np.roll(near, 1, axis) | np.roll(near, -1, axis)
        row_reps, _, row_sizes = _orbits(domain, np.flatnonzero(near))
        B = free_columns(domain)
        C = csr_matrix(diags(np.sqrt(row_sizes)) @ B[row_reps] @ E)
        CT = C.T
        first = np.searchsorted(idx, reps)
        m = (count.size,) * 2

        @functools.cache
        def factor():
            return splu(csc_matrix(B[reps] @ E), permc_spec="MMD_AT_PLUS_A",
                        options={"SymmetricMode": True})

        def expand(y):
            vals = np.zeros(free.shape)
            vals[free] = y[orbit]
            return GridField(domain, vals)

        def restrict(u):
            if u.domain is not domain:   # identity: the generated == raises on masks
                raise ValueError("the field lives on another domain")
            if np.any(u.values[~free] != 0.0):
                raise ValueError("the field must vanish off the free cells (the clamped "
                                 "ring and outside the mask)")
            x = u.values[free]
            y = x[first]
            if not np.array_equal(x, y[orbit]):
                raise ValueError("the field is not invariant under the symmetry group of L")
            return y

        cache["orbit_form"] = Form(
            A=LinearOperator(m, matvec=lambda y: CT @ (C @ y), dtype=float), C=C,
            M=LinearOperator(m, matvec=lambda r: factor().solve(factor().solve(r / count)),
                             dtype=float),
            volume=domain.cell_volume, count=count,
            weight=lambda a: np.bincount(orbit, domain.singular_weight(a)[free],
                                         minlength=count.size),
            expand=expand, restrict=restrict)
    return cache["orbit_form"]


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

