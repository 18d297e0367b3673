"""Decreasing rearrangements and their inequalities.

Every grid cell carries the same volume, so the decreasing rearrangement of a
field is just its multiset of in-domain values sorted in descending order,
with measure advancing one cell volume per value.  That makes the L^p
identity  int |f|^p = int_0^{|Omega|} (f*)^p dt  exact in the discrete model
and gives machine-precision oracles for everything built on top of it.

Closed forms for the kernel g = rho^(2-Q) on Q = 4 (used as oracles):

    lambda_g(s) = (c0/4) s^-2,   g*(t) = (c0/(4t))^(1/2),   g**(t) = 2 g*(t).

Conventions: f*(t) takes the value of the step whose measure interval
contains t, closed on the left (ties toward the larger value, matching the
inf definition); sorting ties are broken by flat cell index so results do
not depend on the sort schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .constants import C0
from .grids import GridField
from .io import write_csv

_SAMPLES_PER_DECADE = 10   # s-grid density of one_d_reduction


@dataclass(frozen=True)
class RearrangementProfile:
    """Step function f* as (cumulative measure, value) breakpoints.

    values[i] holds on the measure interval (measures[i-1], measures[i]],
    with measures[-1] = totalMeasure.
    """

    measures: np.ndarray   # increasing, last = totalMeasure
    values: np.ndarray     # non-increasing
    totalMeasure: float

    def f_star(self, t):
        """Evaluate f*(t); t may be scalar or array, must lie in [0, |Omega|]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.totalMeasure * (1 + 1e-12)):
            raise ValueError("measure argument outside [0, |Omega|]")
        idx = np.searchsorted(self.measures, t, side="left")
        idx = np.minimum(idx, self.values.size - 1)
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def integral_f_star(self, t: float) -> float:
        """Exact int_0^t f*(s) ds on the step function."""
        if t < 0 or t > self.totalMeasure * (1 + 1e-12):
            raise ValueError("measure argument outside [0, |Omega|]")
        t = min(t, self.totalMeasure)
        idx = int(np.searchsorted(self.measures, t, side="left"))
        idx = min(idx, self.values.size - 1)
        below = self._cumint[idx]
        left = self.measures[idx - 1] if idx > 0 else 0.0
        return float(below + self.values[idx] * (t - left))

    @cached_property
    def _cumint(self) -> np.ndarray:
        widths = np.diff(np.concatenate([[0.0], self.measures]))
        return np.concatenate([[0.0], np.cumsum(self.values * widths)])[:-1]

    def to_csv(self, path: str | Path) -> None:
        # Python floats format faster than numpy scalars, to the same text
        write_csv(path, ["measure", "value"], [self.measures.tolist(), self.values.tolist()])


def decreasing_rearrangement(f: GridField) -> RearrangementProfile:
    """Sort in-domain values descending; each carries one cell volume."""
    vals = f.masked()
    # stable sort on (-value, flat index): deterministic under ties
    order = np.argsort(-vals, kind="stable")
    sorted_vals = vals[order]
    vol = f.domain.cell_volume
    measures = (np.arange(sorted_vals.size) + 1.0) * vol
    return RearrangementProfile(
        measures=measures,
        values=sorted_vals,
        totalMeasure=sorted_vals.size * vol,
    )


def double_star(p: RearrangementProfile, t: float) -> float:
    """f**(t) = (1/t) int_0^t f*(s) ds, exact on the step function."""
    if t <= 0:
        raise ValueError("f** requires t > 0")
    return p.integral_f_star(t) / t


def hardy_littlewood_slack(f: GridField, g: GridField) -> float:
    """int_0^{|Omega|} f* g* dt  -  int_Omega |f g| d xi  (must be >= 0).

    With equal cell volumes this is the classical sorted-product
    rearrangement inequality on the value multisets.
    """
    if f.domain is not g.domain and f.domain.shape != g.domain.shape:
        raise ValueError("fields live on different domains")
    if f.domain is not g.domain and not np.array_equal(f.domain.mask, g.domain.mask):
        raise ValueError("fields live on different domain masks")
    fa = np.abs(f.masked())
    ga = np.abs(g.masked())
    vol = f.domain.cell_volume
    lhs = float(np.sum(fa * ga)) * vol
    rhs = float(np.sum(np.sort(fa) * np.sort(ga))) * vol
    return rhs - lhs


def kernel_star(t):
    """Closed form g*(t) for g = rho^-2 on H^1."""
    return np.sqrt(C0 / (4.0 * np.asarray(t, dtype=float)))


def kernel_double_star(t):
    """Closed form g**(t) = 2 g*(t), via the exact antiderivative of g*."""
    t = np.asarray(t, dtype=float)
    return 2.0 * np.sqrt(C0 / 4.0) * np.sqrt(t) / t


def oneil_slack(f: GridField, alpha: float, t: float,
                convolution: GridField | None = None) -> tuple[float, float]:
    """Convolution-rearrangement slack pair at measure t.

    U = (I_alpha * f) on f's own grid; returns

        (U**(t) - U*(t),  t f**(t) g**(t) + int_t^{|Omega|} f* g* ds - U**(t))

    with g* the closed-form profile of the kernel gauge^(alpha-4) (alpha = 2
    gives the rho^-2 kernel).  Both entries must be nonnegative up to a
    discretization tolerance.  Pass a precomputed convolution to amortize it.
    """
    dom = f.domain
    total = dom.domain_volume()
    if not (0.0 < t < total):
        raise ValueError(f"t must lie in (0, |Omega|) = (0, {total})")
    if alpha != 2.0:
        raise NotImplementedError("closed-form kernel profile only for alpha = 2")

    from .convolve import riesz_convolve

    U = convolution if convolution is not None else riesz_convolve(f, alpha)
    pu = decreasing_rearrangement(U)
    pf = decreasing_rearrangement(f)

    u_star = pu.f_star(t)
    u_dstar = double_star(pu, t)
    f_dstar = double_star(pf, t)

    # int_t^{|Omega|} f*(s) g*(s) ds, exact per step of f* against analytic g*
    edges = np.concatenate([[0.0], pf.measures])
    lo = np.maximum(edges[:-1], t)
    hi = edges[1:]
    widths = np.maximum(hi - lo, 0.0)
    # antiderivative of g* = sqrt(c0/4) s^-1/2 is 2 sqrt(c0/4) s^1/2
    gint = 2.0 * np.sqrt(C0 / 4.0) * (np.sqrt(np.maximum(hi, t)) - np.sqrt(lo))
    tail = float(np.sum(np.where(widths > 0, pf.values * gint, 0.0)))

    bound = t * f_dstar * kernel_double_star(t) + tail
    return (u_dstar - u_star, bound - u_dstar)


def one_d_reduction(f: GridField) -> tuple[np.ndarray, np.ndarray, float]:
    """Reduce f to the half-line profile phi(s) = |O|^(1/2) f*(|O| e^-s) e^(-s/2).

    Returns (s_grid, phi_samples, l2_defect).  The grid runs from 0 to
    S_max = ln(|Omega| / cellVolume), leaving one cell of residual measure;
    the defect compares the grid value of int f^2 with the trapezoid value of
    int phi^2 plus the exact single-cell tail, and vanishes under refinement.
    """
    vals = f.masked()
    if np.any(vals < 0):
        raise ValueError("one_d_reduction expects a non-negative field")
    prof = decreasing_rearrangement(f)
    total = prof.totalMeasure
    vol = f.domain.cell_volume

    s_max = float(np.log(total / vol))
    ds = np.log(10.0) / _SAMPLES_PER_DECADE
    ns = int(np.ceil(s_max / ds)) + 1
    s = np.linspace(0.0, s_max, max(ns, 2))

    tvals = total * np.exp(-s)
    fstar = prof.f_star(np.minimum(tvals, total))
    phi = np.sqrt(total) * fstar * np.exp(-s / 2.0)

    trap = float(np.trapezoid(phi ** 2, s))
    head = float(prof.values[0] ** 2) * vol  # exact integral over (0, cellVolume)
    grid_l2 = float(np.sum(vals ** 2)) * vol
    defect = abs(trap + head - grid_l2)
    return s, phi, defect
