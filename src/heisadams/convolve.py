"""Discrete Riesz potentials: group convolution against gauge powers.

(I_alpha * f)(xi) = sum_eta |xi . eta^-1|^(alpha-4) f(eta) * cellVolume,

a direct O(N^2) sum over cell centers, with the kernel at the singular
diagonal cell eta = xi replaced by the cell average of the kernel over one
cell, estimated by 2x2x2 midpoint subsampling.  The kernel depends only on
the group offset xi . eta^-1, so the operator commutes with right group
translations of compactly supported inputs (exactly so when the cell centers
form a subgroup, i.e. ht = 2 hx hy).
"""

from __future__ import annotations

import numpy as np

from .grids import GridDomain, GridField, gauge_power_cell_averages
from .group import gauge_arr, kernel_offsets


def riesz_convolve(f: GridField, alpha: float, target: GridDomain | None = None) -> GridField:
    """Group convolution of f with the gauge power |.|^(alpha-4).

    alpha must lie in (0, 4).  Evaluation points are the cells of the target
    domain (the source domain by default).
    """
    if not (0.0 < alpha < 4.0):
        raise ValueError(f"alpha must be in (0, 4), got {alpha}")
    src = f.domain
    tgt = target or src

    sx, sy, st = (c[src.mask] for c in src.coords())
    fv = f.values[src.mask]
    vol = src.cell_volume
    diag_kernel = float(gauge_power_cell_averages(src.spacing, (0.0, 0.0, 0.0), alpha - 4.0, 2))

    tx, ty, tt = (c[tgt.mask] for c in tgt.coords())
    out = np.zeros(tx.shape)

    # loop over target cells, vectorize over sources; N_t * N_s kernel evals
    for i in range(tx.size):
        wx, wy, wt = kernel_offsets(tx[i], ty[i], tt[i], sx, sy, st)
        rho = gauge_arr(wx, wy, wt)
        with np.errstate(divide="ignore"):
            ker = rho ** (alpha - 4.0)
        ker[rho == 0.0] = diag_kernel
        out[i] = np.dot(ker, fv) * vol

    vals = np.zeros(tgt.shape)
    vals[tgt.mask] = out
    return GridField(tgt, vals)
