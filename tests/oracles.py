"""Stencil-side oracles of the quadratic form ||L u||^2.

The package computes the form one way, on the orbit unknowns of
operators.orbit_form.  These references compute it from the stencil on
whole fields instead, so the tests can check the form against them.
"""

import numpy as np
from scipy.sparse import csc_matrix

from heisadams.grids import GridDomain, GridField
from heisadams.operators import _probed_rows, integrate_weighted, sublaplacian


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
