"""Discrete Riesz potentials: group convolution against gauge powers.

(I_alpha * f)(xi) = sum_eta |xi . eta^-1|^(alpha-4) f(eta) * cellVolume,

a direct O(N^2) sum over cell centers, with the kernel at the singular
diagonal cell eta = xi replaced by the cell average of the kernel over one
cell, estimated by 2x2x2 midpoint subsampling.  The kernel depends only on
the group offset xi . eta^-1, so the operator commutes with right group
translations of compactly supported inputs (exactly so when the cell centers
form a subgroup, i.e. ht = 2 hx hy).

The N_t x N_s kernel matrix K is filled in blocks of target rows.  On its
own domain K is exactly symmetric: eta . xi^-1 is the IEEE negation of
xi . eta^-1 and the gauge is even, so each block is evaluated only from its
diagonal column on and copied into its mirror column block.  Each row of K
is summed in column order with one np.dot, bit-identical to evaluating that
row alone (a matrix product K @ f is not: it differs by about 8e-16).  K
(8 N_t N_s bytes, 4.25 MB on the 9^3 lattice) lives only for the call:
nothing is cached, since a kernel kept alive past the call adds its bytes
to the peak memory of everything after.
"""

from __future__ import annotations

import numpy as np

from .grids import GridDomain, GridField, gauge_power_cell_averages
from .group import gauge_arr, kernel_offsets

_BLOCK_ROWS = 16   # target rows of K evaluated per block


def riesz_convolve(f: GridField, alpha: float, target: GridDomain | None = None) -> GridField:
    """Group convolution of f with the gauge power |.|^(alpha-4).

    alpha must lie in (0, 4).  Evaluation points are the cells of the target
    domain (the source domain by default).
    """
    if not (0.0 < alpha < 4.0):
        raise ValueError(f"alpha must be in (0, 4), got {alpha}")
    src = f.domain
    tgt = target or src
    mirror = tgt is src

    sx, sy, st = (c[src.mask] for c in src.coords())
    tx, ty, tt = (c[tgt.mask] for c in tgt.coords())
    fv = f.values[src.mask]
    diag = float(gauge_power_cell_averages(src.spacing, (0.0, 0.0, 0.0), alpha - 4.0, 2))

    K = np.empty((tx.size, sx.size))
    for i0 in range(0, tx.size, _BLOCK_ROWS):
        r = slice(i0, i0 + _BLOCK_ROWS)
        j0 = i0 if mirror else 0
        rho = gauge_arr(*kernel_offsets(tx[r, None], ty[r, None], tt[r, None],
                                         sx[j0:], sy[j0:], st[j0:]))
        with np.errstate(divide="ignore"):
            ker = rho ** (alpha - 4.0)
        ker[rho == 0.0] = diag
        K[r, j0:] = ker
        if mirror:
            K[i0:, r] = ker.T
    out = np.array([np.dot(row, fv) for row in K]) * src.cell_volume

    vals = np.zeros(tgt.shape)
    vals[tgt.mask] = out
    return GridField(tgt, vals)
