"""The sublaplacian by finite differences, and its quadratic form ||L u||^2.

The frame is X = d/dx + 2y d/dt, Y = d/dy - 2x d/dt, T = d/dt, and

    L u = u_xx + u_yy + 4(x^2+y^2) u_tt + 4y u_xt - 4x u_yt

(the sum of squares X^2 + Y^2 expanded).  All derivatives are centered:
3-point second differences and 4-point mixed stencils, which makes L exact
on quadratics and keeps every stencil coefficient a function of coordinates
orthogonal to its differencing directions.  That last property makes the
assembled matrix exactly symmetric on zero-extended fields (ghost layers are
zero, matching the zero-extension reading of the clamped boundary).

The formula of L is written once, in _stencil, over the 27 neighbours of a
cell: sublaplacian evaluates it on the whole box, and _probed_rows evaluates
it on unit vectors at given rows, which gives those rows' coefficients.  The
quadratic form u -> ||L u||^2 on clamped fields is read off B = L[:, free],
the columns of L at the free cells, and its operator on the free cells is
B^T B.  The drivers read only its representative rows; the whole of B, the
reference the tests check against, is assembled from the same rows in
tests/oracles.py.

The stencil commutes, to rounding, with the order-8 group generated by the
quarter turn (x, y, t) -> (-y, x, t) and the reflection (x, y, t) ->
(x, -y, -t) (grids.orbit_images; t -> -t alone is not a symmetry, as the
mixed terms show), so B^T B maps fields invariant under it to invariant
fields, and every solve runs on the invariant fields of a cell set the
group maps to itself.  orbit_form gives the one reduced representation of
the form, the Form that the capacity solve and the variational drivers
work on, in orbit-indicator unknowns (one value per orbit of free cells):
its factor C with A = C^T C, the sublaplacian G on the orbits, the one
preconditioner M, built from an incomplete LU of G at its first apply
(L_ff^-2, L_ff the free rows of B, were the factor exact), the cell volume,
the orbit sizes and weights, and the maps between unknowns and fields.  The
operators are scipy LinearOperators, which every linear solve hands to
scipy's cg or minres.  A domain whose free cells are not invariant raises
ValueError; there is no unreduced path.  Form.restrict is the one gate from
a field into the unknowns: it raises ValueError for a field on another
domain object, one that is nonzero off the free cells, or one that is not
exactly invariant, so nothing is projected or dropped on the way in.  The
numbers reported after a solve (norms, Rayleigh quotients, weighted
integrals, capacity energies) are read off the Form too; the stencil-side
oracles that check them live in tests/oracles.py.  integrate_weighted
serves integrands such as exp(beta u^2) that do not vanish off the free
cells.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, diags
from scipy.sparse.linalg import LinearOperator, spilu

from .grids import GridDomain, GridField, orbit_images

# the incomplete LU of orbit_form's G behind Form.M
_ILU_DROP_TOL = 1e-3
_ILU_FILL_FACTOR = 20


def _stencil(nb, X, Y, spacing):
    """L at the cells where nb(i, j, k) gives the values at offset (i, j, k)
    in {-1, 0, 1}^3 and X, Y the cell centres."""
    hx, hy, ht = spacing
    uxx = (nb(1, 0, 0) - 2 * nb(0, 0, 0) + nb(-1, 0, 0)) / hx**2
    uyy = (nb(0, 1, 0) - 2 * nb(0, 0, 0) + nb(0, -1, 0)) / hy**2
    utt = (nb(0, 0, 1) - 2 * nb(0, 0, 0) + nb(0, 0, -1)) / ht**2
    uxt = (nb(1, 0, 1) - nb(1, 0, -1) - nb(-1, 0, 1) + nb(-1, 0, -1)) / (4 * hx * ht)
    uyt = (nb(0, 1, 1) - nb(0, 1, -1) - nb(0, -1, 1) + nb(0, -1, -1)) / (4 * hy * ht)
    return uxx + uyy + 4.0 * (X**2 + Y**2) * utt + 4.0 * Y * uxt - 4.0 * X * uyt


def sublaplacian(u: GridField) -> GridField:
    """Discrete L u at every cell of the box (boundary ring included)."""
    dom = u.domain
    up = np.pad(u.values, 1)
    nx, ny, nt = dom.shape
    X, Y, _ = dom.coords()

    def nb(i, j, k):
        return up[1 + i:nx + 1 + i, 1 + j:ny + 1 + j, 1 + k:nt + 1 + k]

    return GridField(dom, _stencil(nb, X, Y, dom.spacing))


def _probed_rows(domain: GridDomain, rows: np.ndarray) -> csc_matrix:
    """B[rows], B = L[:, free] (rows all box cells, columns the free cells,
    both in the C order of the box), for rows (flat indices, sorted) within
    one cell of the free cells.  _stencil evaluated on the 27 unit vectors,
    at the centres of the rows, gives coef[o, r], the coefficient of row r
    at its neighbour of offset o = 9 (i + 1) + 3 (j + 1) + (k + 1): the same
    operations on the same operands as a sweep of sublaplacian over a field
    that is 1 at that neighbour and 0 at the others, so B is the stencil bit
    for bit.  Free cells never touch the box faces, so every target is in
    range.  The tests' reference for the whole of B (tests/oracles.py)
    scatters these rows into the box.
    """
    free = domain.free_mask()
    cells = np.flatnonzero(free)
    unit = np.eye(27)[:, :, None]
    X, Y, _ = domain.coords()
    coef = _stencil(lambda i, j, k: unit[9 * i + 3 * j + k + 13],
                    X.ravel()[rows], Y.ravel()[rows], domain.spacing)
    # slot: the column of B at each cell of the box padded by one cell (a row may
    # touch a face), -1 off the free cells.  The padded flat index of (i, j, k)
    # is that of the padded cell (i - 1, j - 1, k - 1) of the box, so adding the
    # steps over {0, 1, 2}^3 to it reaches the 27 stencil neighbours of (i, j, k),
    # in the order of the offsets of coef.
    slot = np.full(free.shape, -1)
    slot[free] = np.arange(cells.size)
    slot = np.pad(slot, 1, constant_values=-1)
    at = np.ravel_multi_index(np.unravel_index(rows, free.shape), slot.shape)
    step = np.ravel_multi_index(np.indices((3, 3, 3)).reshape(3, -1), slot.shape)
    col = slot.ravel()[at[:, None] + step]
    row, nb = np.nonzero(col >= 0)
    col = col[row, nb]
    vals = coef[nb, row]
    hit = vals != 0.0
    return csc_matrix((vals[hit], (row[hit], col[hit])), shape=(rows.size, cells.size))


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
    is the operator E^T B^T B E = C^T C, C its sparse factor, G the
    sublaplacian on the orbits (see orbit_form), M the preconditioner that
    every Krylov solve on A shares, built from an incomplete LU of G,
    volume the cell volume and count the orbit sizes.
    Coordinates of a gradient are orbit sums, so the Euclidean norm of the
    invariant free-cell vector g_full with E^T g_full = g is
    sqrt(g.(g / count)).  weight(a) is E^T w_a, the orbit sums of the
    singular weight of rho^-a, summed once per a (keyed as singular_weight
    keys its cache) and read-only; expand(y) is the field equal to E y on the
    free cells and zero elsewhere, and restrict(u) its inverse, the unknowns
    of a field of this domain object that vanishes off the free cells and is
    exactly invariant on them (ValueError otherwise).  On those unknowns
    ||L u||^2 = volume x.Ax and int g(u) / rho^a = volume w_a.g(x) for any
    g with g(0) = 0.
    """

    A: LinearOperator
    C: csr_matrix
    G: csc_matrix
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
    cells (within one cell of them, an invariant set) are classified, and
    the stencil is evaluated at the representative rows of B alone
    (_probed_rows), never on the whole of B.

    G = L_ff[representative rows] E = (B E)[free representatives], where
    L_ff, the free rows of B, is the sublaplacian from free cells to free
    cells; the free representatives are among the row representatives, so G
    is read off the same rows.  With K = E^T L_ff E = diag(count) G
    (symmetric), G^-1 (G^-T r / count) = G^-1 G^-1 (r / count) is
    K^-1 diag(count) K^-1, and it is L_ff^-2 on invariant fields.  L_ff^2
    differs from B^T B only by the rows of L that land on the clamped ring,
    so it is a close preconditioner for every Krylov solve on A.  M applies
    M(r) = G~^-1 (G~^-T r / count) with G~ the incomplete LU of G (scipy's
    spilu, drop tolerance _ILU_DROP_TOL, fill bound _ILU_FILL_FACTOR,
    minimum-degree ordering of G + G^T, symmetric mode, which prefers
    diagonal pivots): symmetric positive definite for any nonsingular G~,
    it takes about as many iterations as the exact factor (27 against 25
    capacity CG steps at ball 33, ell = 1/2) with 37% of its nonzeros at
    box 33.  G~ is built at the first apply of M, once per domain, and
    serves the capacity solve, LOBPCG, the descent and Newton alike.  Raises
    ValueError when the free cells are not invariant under the symmetry
    group of L or the grid has no quarter turn.
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
        Brr = _probed_rows(domain, row_reps)
        C = csr_matrix(diags(np.sqrt(row_sizes)) @ Brr @ E)
        G = csc_matrix(Brr[np.searchsorted(row_reps, reps)] @ E)
        CT = C.T
        first = np.searchsorted(idx, reps)
        m = (count.size,) * 2

        @functools.cache
        def factor():
            return spilu(G, drop_tol=_ILU_DROP_TOL, fill_factor=_ILU_FILL_FACTOR,
                         permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})

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

        sums = {}

        def weight(a):
            key = round(float(a), 12)
            if key not in sums:
                w = np.bincount(orbit, domain.singular_weight(a)[free], minlength=count.size)
                w.flags.writeable = False
                sums[key] = w
            return sums[key]

        cache["orbit_form"] = Form(
            A=LinearOperator(m, matvec=lambda y: CT @ (C @ y), dtype=float), C=C, G=G,
            M=LinearOperator(m, matvec=lambda r: factor().solve(
                factor().solve(r.ravel(), trans="T") / count), dtype=float),
            volume=domain.cell_volume, count=count,
            weight=weight,
            expand=expand, restrict=restrict)
    return cache["orbit_form"]


def integrate_weighted(f: GridField, a: float) -> float:
    """int_Omega f / rho^a by the cached singular weight (a = 0 allowed)."""
    dom = f.domain
    w = dom.singular_weight(a)
    return float(np.sum(f.values * w)) * dom.cell_volume

