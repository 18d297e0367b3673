"""Checks computed apart from heisadams: numpy and scipy only.

Everything here is rebuilt from the formulas the package documents, never
from its code:

* the grids: cell centers ``(2i - (n-1)) h/2``, the Koranyi gauge
  ``((x^2+y^2)^2 + t^2)^(1/4)``, the unit-ball mask ``gauge <= 1`` and the
  free cells (the mask eroded by one cell, box boundary ring removed);
* the sublaplacian ``L u = u_xx + u_yy + 4(x^2+y^2) u_tt + 4y u_xt - 4x u_yt``
  with centered 3-point and 4-point stencils and zero ghosts, assembled as a
  sparse matrix.  ``L`` is symmetric, so with ``B = L[:, free]`` the operator
  ``L^2`` on free cells is ``B^T B`` and ``||L u||^2 = ||B x||^2``;
* the singular weight: ``gauge^-a`` at cell centers, replaced by the mean of
  ``gauge^-a`` over 4^3 midpoint subsamples on cells within 6 cells (in gauge
  distance) of the origin, zero outside the mask;
* the Riesz convolution as a direct sum over the group law, the diagonal
  cell taking the kernel averaged over 2^3 midpoint subsamples;
* the closed forms ``A = 32/9``, ``c0 = 2 pi^2``, ``V = pi^2/2``,
  ``gamma1 = 3/(4 pi)``, ``g*(t) = (c0/4t)^(1/2)`` and ``g** = 2 g*``.

Each ``check_*`` function returns ``(ok, detail)``; none of them raises on a
wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

BIG_A = 32.0 / 9.0
C0 = 2.0 * math.pi ** 2
BALL_VOLUME = math.pi ** 2 / 2.0
GAMMA1 = 3.0 / (4.0 * math.pi)
Q = 4


def gauge(x, y, t):
    z2 = x * x + y * y
    return (z2 * z2 + t * t) ** 0.25


def g_star(t):
    """Decreasing rearrangement of rho^-2 on H^1."""
    return np.sqrt(C0 / (4.0 * np.asarray(t, dtype=float)))


def g_double_star(t):
    """Running average of g*, which is 2 g*."""
    return 2.0 * g_star(t)


def _centers(n: int, half: float) -> np.ndarray:
    h = 2.0 * half / n
    return (2.0 * np.arange(n) - (n - 1)) * (h / 2.0)


@dataclass(frozen=True)
class Grid:
    """Cell-centered grid of an axis box, optionally cut to the unit ball."""

    shape: tuple[int, int, int]
    extents: tuple[float, float, float]
    ball: bool = False

    @classmethod
    def box(cls, n: int) -> "Grid":
        return cls((n, n, n), (1.0, 1.0, 1.0))

    @classmethod
    def unit_ball(cls, n: int) -> "Grid":
        return cls((n, n, n), (1.0, 1.0, 1.0), ball=True)

    @classmethod
    def group_lattice(cls, n: int) -> "Grid":
        hx = 2.0 / n
        return cls((n, n, n), (1.0, 1.0, n * 2.0 * hx * hx / 2.0))

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(2.0 * e / n for e, n in zip(self.extents, self.shape))

    @property
    def vol(self) -> float:
        hx, hy, ht = self.spacing
        return hx * hy * ht

    @cached_property
    def axes(self):
        return tuple(_centers(n, e) for n, e in zip(self.shape, self.extents))

    @cached_property
    def coords(self):
        return np.meshgrid(*self.axes, indexing="ij")

    @cached_property
    def rho(self) -> np.ndarray:
        return gauge(*self.coords)

    @cached_property
    def mask(self) -> np.ndarray:
        if self.ball:
            return self.rho <= 1.0
        return np.ones(self.shape, dtype=bool)

    @cached_property
    def free(self) -> np.ndarray:
        m = self.mask
        er = m.copy()
        for ax in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[ax] = slice(1, None)
            hi[ax] = slice(None, -1)
            er[tuple(lo)] &= m[tuple(hi)]
            er[tuple(hi)] &= m[tuple(lo)]
            edge = [slice(None)] * 3
            edge[ax] = [0, -1]
            er[tuple(edge)] = False
        return er

    @cached_property
    def L(self) -> sp.csr_matrix:
        """The 15-point sublaplacian on the whole box, zero ghosts."""
        hx, hy, ht = self.spacing
        X, Y, _ = self.coords
        one = np.ones(self.shape)
        terms = [
            ((0, 0, 0), -2.0 / hx**2 - 2.0 / hy**2 - 8.0 * (X**2 + Y**2) / ht**2),
            ((1, 0, 0), one / hx**2), ((-1, 0, 0), one / hx**2),
            ((0, 1, 0), one / hy**2), ((0, -1, 0), one / hy**2),
            ((0, 0, 1), 4.0 * (X**2 + Y**2) / ht**2),
            ((0, 0, -1), 4.0 * (X**2 + Y**2) / ht**2),
        ]
        cxt = 4.0 * Y / (4.0 * hx * ht)
        cyt = -4.0 * X / (4.0 * hy * ht)
        for sx in (1, -1):
            for st in (1, -1):
                terms.append(((sx, 0, st), sx * st * cxt))
                terms.append(((0, sx, st), sx * st * cyt))
        n = int(np.prod(self.shape))
        idx = np.arange(n).reshape(self.shape)
        rows, cols, vals = [], [], []
        for (di, dj, dk), coef in terms:
            src = tuple(slice(max(0, -d), s - max(0, d)) for d, s in zip((di, dj, dk), self.shape))
            dst = tuple(slice(max(0, d), s - max(0, -d)) for d, s in zip((di, dj, dk), self.shape))
            rows.append(idx[src].ravel())
            cols.append(idx[dst].ravel())
            vals.append(np.broadcast_to(coef, self.shape)[src].ravel())
        return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n))

    @cached_property
    def B(self) -> sp.csc_matrix:
        """L restricted to free columns: L^2 on free cells is B^T B."""
        return self.L.tocsc()[:, np.flatnonzero(self.free.ravel())]

    def apply_L(self, u: np.ndarray) -> np.ndarray:
        return (self.L @ u.ravel()).reshape(self.shape)

    def weight(self, a: float, head_cells: float = 6.0, q: int = 4) -> np.ndarray:
        """Cell weights of rho^-a d xi: midpoint values, head cell-averaged."""
        if a == 0.0:
            return self.mask.astype(float)
        hx, hy, ht = self.spacing
        rho = self.rho
        near = rho <= head_cells * max(hx, hy, ht)
        with np.errstate(divide="ignore"):
            w = np.where(near, 0.0, rho ** (-a))
        offs = [(-0.5 + (np.arange(q) + 0.5) / q) * h for h in (hx, hy, ht)]
        OX, OY, OT = (o.ravel() for o in np.meshgrid(*offs, indexing="ij"))
        X, Y, T = self.coords
        sub = gauge(X[near][:, None] + OX, Y[near][:, None] + OY, T[near][:, None] + OT)
        w[near] = np.mean(sub ** (-a), axis=1)
        return np.where(self.mask, w, 0.0)

    def lambda_1(self, a: float) -> float:
        """Smallest eigenvalue of the pencil (B^T B, diag(w_a)) on free cells."""
        K = (self.B.T @ self.B).tocsc()
        M = sp.diags(self.weight(a)[self.free]).tocsc()
        # a fixed start vector makes the result, and so the program's input, repeat exactly
        vals = eigsh(K, k=1, M=M, sigma=0.0, which="LM", v0=np.ones(K.shape[0]),
                     return_eigenvectors=False)
        return float(vals[0])


# -- artifacts ----------------------------------------------------------------

def read_field(path: str | Path) -> tuple[tuple[int, int, int], np.ndarray, np.ndarray]:
    """Parse the documented binary field layout: (dims, geometry, values)."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"HGRD0001":
        raise ValueError(f"{path}: bad magic")
    dims = tuple(int(d) for d in np.frombuffer(raw, "<i8", 3, 8))
    geom = np.frombuffer(raw, "<f8", 6, 32)
    vals = np.frombuffer(raw, "<f8", int(np.prod(dims)), 80)
    return dims, geom, vals.reshape(dims, order="F").copy()


def read_csv(path: str | Path) -> list[dict[str, float]]:
    lines = Path(path).read_text().strip().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, map(float, ln.split(",")))) for ln in lines[1:]]


def rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


# -- closed forms and rearrangements ------------------------------------------

def check_constants(doc: dict) -> tuple[bool, str]:
    errs = {
        "bigA": rel(doc["bigA"], BIG_A),
        "c0": rel(doc["c0"], C0),
        "unitBallVolume": rel(doc["unitBallVolume"], BALL_VOLUME),
        "gamma1": rel(doc["gamma1"], GAMMA1),
    }
    worst = max(errs, key=errs.get)
    return errs[worst] <= 1e-5, f"worst quadrature rel err {worst} {errs[worst]:.1e}"


def check_constants_mc(doc: dict, sigmas: float = 5.0) -> tuple[bool, str]:
    e = doc["errorEstimates"]
    zv = abs(e["mc_unitBallVolume"] - BALL_VOLUME) / e["mc_unitBallVolume_sigma"]
    zg = abs(e["mc_gamma1"] - GAMMA1) / e["mc_gamma1_sigma"]
    return max(zv, zg) <= sigmas, f"MC deviations {zv:.2f} and {zg:.2f} sigma"


def check_rearrangement_values(profile: list[dict], grid: Grid) -> tuple[bool, str]:
    """profile.csv holds rho^-2 sorted descending, one cell volume per row."""
    vals = np.array([r["value"] for r in profile])
    meas = np.array([r["measure"] for r in profile])
    want = np.sort(grid.weight(2.0)[grid.mask])[::-1]
    if vals.size != want.size:
        return False, f"{vals.size} rows, ball has {want.size} cells"
    steps_ok = np.allclose(meas, (np.arange(vals.size) + 1.0) * grid.vol, rtol=1e-12, atol=0)
    err = float(np.max(np.abs(vals - want) / want))
    return steps_ok and err <= 1e-12 and bool(np.all(np.diff(vals) <= 0)), \
        f"values vs rebuilt weight {err:.1e}, measures ok={steps_ok}"


def check_rearrangement_closed_form(profile: list[dict], fstar_tol: float = 0.03,
                                    dstar_tol: float = 0.04) -> tuple[bool, str]:
    """f* against g* and the running average against 2 g* on [0.1, 0.9]|O|."""
    vals = np.array([r["value"] for r in profile])
    meas = np.array([r["measure"] for r in profile])
    total = meas[-1]
    ts = np.linspace(0.1 * total, 0.9 * total, 97)
    idx = np.minimum(np.searchsorted(meas, ts, side="left"), vals.size - 1)
    fstar = vals[idx]
    widths = np.diff(np.concatenate([[0.0], meas]))
    cum = np.concatenate([[0.0], np.cumsum(vals * widths)])
    left = np.where(idx > 0, meas[idx - 1], 0.0)
    dstar = (cum[idx] + vals[idx] * (ts - left)) / ts
    e1 = float(np.max(np.abs(fstar / g_star(ts) - 1.0)))
    e2 = float(np.max(np.abs(dstar / g_double_star(ts) - 1.0)))
    return e1 <= fstar_tol and e2 <= dstar_tol, f"f*/g* {e1:.2%}, f**/(2g*) {e2:.2%}"


def riesz_direct(grid: Grid, f: np.ndarray, alpha: float) -> np.ndarray:
    """Direct group convolution with |.|^(alpha-4) over in-mask cells."""
    X, Y, T = grid.coords
    m = grid.mask
    x, y, t, fv = X[m], Y[m], T[m], f[m]
    # xi * eta^-1 = (x - x', y - y', t - t' + 2(y (-x') - x (-y')))
    ox = x[:, None] - x[None, :]
    oy = y[:, None] - y[None, :]
    ot = t[:, None] - t[None, :] + 2.0 * (-y[:, None] * x[None, :] + x[:, None] * y[None, :])
    r = gauge(ox, oy, ot)
    offs = [(-0.5 + (np.arange(2) + 0.5) / 2) * h for h in grid.spacing]
    sub = gauge(*np.meshgrid(*offs, indexing="ij"))
    with np.errstate(divide="ignore"):
        ker = r ** (alpha - 4.0)
    ker[r == 0.0] = float(np.mean(sub ** (alpha - 4.0)))
    out = np.zeros(grid.shape)
    out[m] = ker @ fv * grid.vol
    return out


def oneil_pair(grid: Grid, f: np.ndarray, U: np.ndarray, t: float) -> tuple[float, float]:
    """(U**(t) - U*(t), t f**(t) g**(t) + int_t f* g* - U**(t)) for alpha = 2."""
    vol = grid.vol

    def profile(v):
        s = np.sort(v[grid.mask])[::-1]
        return s, (np.arange(s.size) + 1.0) * vol

    def star(s, meas, tt):
        return s[min(int(np.searchsorted(meas, tt, side="left")), s.size - 1)]

    def dstar(s, meas, tt):
        k = min(int(np.searchsorted(meas, tt, side="left")), s.size - 1)
        left = meas[k - 1] if k else 0.0
        return (float(np.sum(s[:k])) * vol + s[k] * (tt - left)) / tt

    su, mu = profile(U)
    sf, mf = profile(f)
    u_star, u_dstar = star(su, mu, t), dstar(su, mu, t)
    edges = np.concatenate([[0.0], mf])
    lo = np.maximum(edges[:-1], t)
    hi = edges[1:]
    gint = 2.0 * math.sqrt(C0 / 4.0) * (np.sqrt(np.maximum(hi, t)) - np.sqrt(lo))
    tail = float(np.sum(np.where(hi > lo, sf * gint, 0.0)))
    bound = t * dstar(sf, mf, t) * float(g_double_star(t)) + tail
    return u_dstar - u_star, bound - u_dstar


def check_riesz(grid: Grid, f: np.ndarray, U: np.ndarray, t: float,
                slack: tuple[float, float]) -> tuple[bool, str]:
    ref = riesz_direct(grid, f, 2.0)
    err = float(np.max(np.abs(U - ref)) / np.max(np.abs(ref)))
    mine = oneil_pair(grid, f, ref, t)
    scale = max(1.0, abs(mine[0]) + abs(mine[1]))
    agree = max(abs(a - b) for a, b in zip(slack, mine)) / scale
    nonneg = min(slack) >= -1e-9 * scale
    return err <= 1e-12 and agree <= 1e-9 and nonneg, \
        f"convolution rel err {err:.1e}, slack pair {slack[0]:.3g},{slack[1]:.3g} (agree {agree:.1e})"


# -- capacity profiles and the sharpness probe ----------------------------------

def plateau(grid: Grid, ell: float) -> np.ndarray:
    p = (grid.rho <= ell) & grid.mask
    if not p.any():
        p = np.zeros(grid.shape, dtype=bool)
        p[np.unravel_index(np.argmin(np.where(grid.mask, grid.rho, np.inf)), grid.shape)] = True
    return p


def check_capacity(grid: Grid, ell: float, U: np.ndarray, energy: float,
                   rng: np.random.Generator, trials: int = 8) -> tuple[bool, str]:
    """Constraints, energy, stationarity and minimality of one capacity profile.

    Minimality: E(U + s v) - E(U) = 2 s <L U, L v> + s^2 ||L v||^2 (cell
    volume aside) must be positive for random free-supported v and both signs
    of s, with s sized so the quadratic term is 1e-6 of E(U).
    """
    P = plateau(grid, ell)
    dofs = grid.free & ~P
    if not (np.all(U[P] == 1.0) and np.all(U[~(grid.free | P)] == 0.0)):
        return False, "constraint violated: u != 1 on the plateau or u != 0 off the free cells"
    LU = grid.L @ U.ravel()
    E = float(LU @ LU) * grid.vol
    L2U = (grid.L @ LU).reshape(grid.shape)
    fixed = (grid.L @ (grid.L @ P.ravel().astype(float))).reshape(grid.shape)
    stat = float(np.linalg.norm(L2U[dofs]) / np.linalg.norm(fixed[dofs]))
    worst = np.inf
    for _ in range(trials):
        v = np.zeros(grid.shape)
        v[dofs] = rng.standard_normal(int(dofs.sum()))
        Lv = grid.L @ v.ravel()
        quad = float(Lv @ Lv)
        s = math.sqrt(1e-6 * float(LU @ LU) / quad)
        lin = 2.0 * s * float(LU @ Lv)
        worst = min(worst, s * s * quad - abs(lin))
    ok = rel(E, energy) <= 1e-9 and stat <= 1e-6 and worst > 0.0
    return ok, (f"energy {E:.6g} (reported rel {rel(E, energy):.1e}), stationarity {stat:.1e}, "
                f"min perturbation gain {worst * grid.vol:.3g}")


def probe_value(grid: Grid, U: np.ndarray, k: int, beta: float, w: np.ndarray) -> float:
    amp2 = Q * math.log(k) / BIG_A
    return float(np.sum(np.exp(beta * amp2 * U * U) * w)) * grid.vol


def check_probe_values(grid: Grid, rows: list[dict], profiles: dict[int, tuple[np.ndarray, float]],
                       a: float) -> tuple[bool, str]:
    """Each probe row against int exp(beta A_k^2 U^2)/rho^a rebuilt from U."""
    w = grid.weight(a)
    worst = 0.0
    for r in rows:
        U, E = profiles[int(r["k"])]
        worst = max(worst, rel(r["value"], probe_value(grid, U, int(r["k"]), r["beta"], w)),
                    rel(r["normEstimate"], math.sqrt(Q * math.log(r["k"]) / BIG_A * E)))
    return worst <= 1e-9, f"worst rel dev of value and norm {worst:.1e}"


def check_probe_split(rows: list[dict], a: float) -> tuple[bool, str]:
    """Above the threshold A(1-a/4) the functional grows with k, below it does not.

    The 1.25x column rises strictly and, step by step, faster than the 0.75x
    column; the 0.75x column stays within a factor of 2.
    """
    thr = BIG_A * (1.0 - a / 4.0)

    def column(frac):
        col = sorted((r["k"], r["value"]) for r in rows if abs(r["beta"] - frac * thr) <= 1e-9 * thr)
        return np.array([v for _, v in col])

    hot, cold = column(1.25), column(0.75)
    if hot.size < 2 or hot.size != cold.size:
        return False, f"columns of {hot.size} and {cold.size} rows"
    rises = bool(np.all(np.diff(hot) > 0))
    faster = bool(np.all(hot[1:] / hot[:-1] > cold[1:] / cold[:-1]))
    cold_ratio = float(cold.max() / cold.min())
    return rises and faster and cold_ratio <= 2.0, \
        f"hot ratio {hot[-1] / hot[0]:.3g} rises={rises} faster={faster}, cold ratio {cold_ratio:.3g}"


# -- solutions of L^2 u = w_a f(u) -----------------------------------------------

@dataclass(frozen=True)
class Nonlinearity:
    """f and its primitive F for the two models the CLI offers."""

    kind: str
    lam: float = 1.0
    alpha0: float = 1.0

    def f(self, u):
        if self.kind == "cubic":
            return u ** 3
        return self.lam * u * np.exp(self.alpha0 * u * u)

    def F(self, u):
        if self.kind == "cubic":
            return 0.25 * u ** 4
        return self.lam / (2.0 * self.alpha0) * np.expm1(self.alpha0 * u * u)


@dataclass
class SolutionReport:
    dirichlet: float      # ||L u||^2
    weighted_uf: float    # int f(u) u / rho^a
    J: float              # 1/2 ||L u||^2 - int F(u) / rho^a
    residual: float       # ||L^2 u - w f(u)|| over free cells, L^2 with cell volume
    directional: float    # max |<grad J, v>| / (||grad_quad|| ||v||) over random v
    rayleigh: float       # ||L u||^2 / int u^2 / rho^a


def analyse_solution(grid: Grid, u: np.ndarray, nl: Nonlinearity, a: float,
                     rng: np.random.Generator, directions: int = 4) -> SolutionReport:
    w = grid.weight(a)
    LU = grid.L @ u.ravel()
    L2U = (grid.L @ LU).reshape(grid.shape)
    fu = nl.f(u)
    r = np.where(grid.free, L2U - w * fu, 0.0)
    dirichlet = float(LU @ LU) * grid.vol
    quad = float(np.linalg.norm(L2U[grid.free]))
    worst = 0.0
    for _ in range(directions):
        v = rng.standard_normal(int(grid.free.sum()))
        worst = max(worst, abs(float(r[grid.free] @ v)) / (quad * float(np.linalg.norm(v))))
    return SolutionReport(
        dirichlet=dirichlet,
        weighted_uf=float(np.sum(w * fu * u)) * grid.vol,
        J=0.5 * dirichlet - float(np.sum(w * nl.F(u))) * grid.vol,
        residual=math.sqrt(float(np.sum(r * r)) * grid.vol),
        directional=worst,
        rayleigh=dirichlet / (float(np.sum(w * u * u)) * grid.vol),
    )


def check_residual(rep: SolutionReport, tol: float = 1e-6) -> tuple[bool, str]:
    """The stopping rule of the solver, recomputed: ||r|| <= tol max(1, ||u||)."""
    limit = 10.0 * tol * max(1.0, math.sqrt(rep.dirichlet))
    ok = rep.residual <= limit and rep.directional <= 1e-6 and math.sqrt(rep.dirichlet) > 1e-6
    return ok, f"residual {rep.residual:.2e} (limit {limit:.1e}), directional {rep.directional:.1e}"


def check_nehari(norm_sq: float, weighted_uf: float, tol: float = 1e-6) -> tuple[bool, str]:
    """||L u||^2 = int f(u) u / rho^a at any critical point."""
    d = rel(norm_sq, weighted_uf)
    return d <= tol and norm_sq > 0.0, f"||Lu||^2 {norm_sq:.10g} vs int f(u)u/rho^a {weighted_uf:.10g} ({d:.1e})"


def level_ceiling(a: float, alpha0: float) -> float:
    return (4.0 - a) * BIG_A / (8.0 * alpha0)
