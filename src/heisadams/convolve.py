"""Discrete Riesz potentials: group convolution against gauge powers.

(I_alpha * f)(xi) = sum_eta |xi . eta^-1|^(alpha-4) f(eta) * cellVolume,

a direct O(N^2) sum over cell centers, with the kernel at the singular
diagonal cell eta = xi replaced by the cell average of the kernel over one
cell, estimated by 2x2x2 midpoint subsampling.  The kernel depends only on
the group offset xi . eta^-1, so the operator commutes with right group
translations of compactly supported inputs (exactly so when the cell centers
form a subgroup, i.e. ht = 2 hx hy).

On its own domain the kernel matrix is exactly symmetric: eta . xi^-1 is the
IEEE negation of xi . eta^-1 and the gauge is even, so the self-convolution
evaluates only the rolled half R[i, d] = K[i, (i + d) mod n], d <= n//2,
n (n//2 + 1) values instead of n^2.  Each row of K is reassembled from R in
column order and summed with one np.dot, so the result is bit-identical to
evaluating the full row.  R (8 n (n//2 + 1) bytes, 2.1 MB on the 9^3
lattice) lives only for the call: nothing is cached, since a kernel kept
alive past the call adds its bytes to the peak memory of everything after.
"""

from __future__ import annotations

import numpy as np

from .grids import GridDomain, GridField, gauge_power_cell_averages
from .group import gauge_arr, kernel_offsets

_HALF_BLOCK_ROWS = 16   # target rows of the half kernel evaluated per block


def _kernel(tx, ty, tt, sx, sy, st, alpha: float, diag: float) -> np.ndarray:
    """|xi . eta^-1|^(alpha-4) for broadcast targets xi and sources eta, diag
    where the offset is zero."""
    rho = gauge_arr(*kernel_offsets(tx, ty, tt, sx, sy, st))
    with np.errstate(divide="ignore"):
        ker = rho ** (alpha - 4.0)
    ker[rho == 0.0] = diag
    return ker


def _self_convolve(sx, sy, st, fv, alpha: float, diag: float) -> np.ndarray:
    """sum_j K[i, j] fv[j] for every cell i, from the symmetric half of K."""
    n = sx.size
    h = n // 2
    m = n - h - 1                       # entries of each row of K read from other rows of R
    cols = np.arange(h + 1)
    R = np.empty((n, h + 1))
    for i0 in range(0, n, _HALF_BLOCK_ROWS):
        rows = np.arange(i0, min(i0 + _HALF_BLOCK_ROWS, n))[:, None]
        j = (rows + cols) % n
        R[i0:i0 + rows.size] = _kernel(sx[rows], sy[rows], st[rows], sx[j], sy[j], st[j],
                                       alpha, diag)
    flat = R.ravel()
    step = h or 1                       # n = 1 reads no diagonal, but a slice step must be > 0
    out = np.empty(n)
    for i in range(n):
        # K[i, j] is R[i, (j - i) mod n] when that offset is at most h, and
        # otherwise R[j, (i - j) mod n], which sits at flat[j h + i (+ n)]
        lo = max(0, i - m)
        hi = min(n - 1, i + h)
        row = np.concatenate((
            R[i, n - i:h + 1] if i > m else R[i, :0],
            flat[lo * h + i:i * h + i:step],
            R[i, :hi - i + 1],
            flat[(hi + 1) * h + i + n:n * h + i + n:step],
        ))
        out[i] = np.dot(row, fv)
    return out


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
    diag = float(gauge_power_cell_averages(src.spacing, (0.0, 0.0, 0.0), alpha - 4.0, 2))

    if tgt is src:
        out = _self_convolve(sx, sy, st, fv, alpha, diag) * vol
    else:
        tx, ty, tt = (c[tgt.mask] for c in tgt.coords())
        out = np.zeros(tx.size)
        # loop over target cells, vectorize over sources; N_t * N_s kernel evals
        for i in range(tx.size):
            out[i] = np.dot(_kernel(tx[i], ty[i], tt[i], sx, sy, st, alpha, diag), fv) * vol

    vals = np.zeros(tgt.shape)
    vals[tgt.mask] = out
    return GridField(tgt, vals)
