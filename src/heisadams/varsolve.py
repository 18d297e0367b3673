"""Variational core for the singular biharmonic problem.

Energy functional on the unknowns x of a Form (see operators), one value per
orbit of free cells under the symmetry group of L:

    J(x) = volume * (1/2 x.Ax - w_a.F(x)),

whose critical points solve  L^2 u = f(u) / rho^a  with clamped boundary
values.  Because the discrete quadratic form is exactly the square of the
symmetric sublaplacian matrix, the gradient representer

    grad J(x) = A x - w_a f(x)

pairs exactly with directional derivatives: <grad, v> * volume matches
central differences of J to quadrature rounding.  The models are autonomous,
f(u) alone; xi enters only through the weight w_a of rho^-a.

The saddle search works on the Nehari manifold {u != 0 : J'(u) u = 0}, where
the mountain-pass level is the minimum of J when f(u)/u increases in |u|
(Choi & McKenna 1993; Li & Zhou 2001).  A seed ray is scaled to its energy
maximum, Sobolev-gradient steps u - (L^2)^-1 grad J(u) are scaled back to
their ray maxima until the step is small, and Newton-MINRES then drives the
stationarity residual to tight tolerances.  Newton is inexact (Dembo,
Eisenstat & Steihaug 1982): each MINRES solve stops at a forcing term that
tightens as the outer residual falls (Eisenstat & Walker 1996), and a step
that does not lower the residual is solved again at 1e-10 before Newton
counts as stagnated.  Each ray maximum bounds the
mountain-pass level from above, and their running minimum is the reported
level.

The weighted Rayleigh constant lambda_1(a), the ceiling f must stay under,
is the smallest eigenvalue of the pencil (L^2, diag(w_a)) on invariant
fields, found by block-one LOBPCG.  It, the descent step (scipy's cg) and
the Newton steps (scipy's minres) share the form's preconditioner M, an
approximate L_ff^-2 from an incomplete LU of the sublaplacian on the orbits,
with the capacity solves on the same domain.  Every solve runs on the
domain's orbit_form, so it never leaves the invariant fields; the seeds
(the default bump, a warm start) enter through Form.restrict, which raises
ValueError for a field on another domain object, nonzero off the free
cells or not exactly invariant, and a domain whose free cells are not
invariant raises ValueError too.
Residual norms are those of the free-cell vectors, so gradResidual and the
stopping rules mean what they would on all free cells.  The continuation's
diagnostics (||L u||, the stage drift and the weighted integrals of f(u) u
and F(u)) are read off the same form, with no stencil sweep; the stencil-side
Rayleigh quotient that checks them lives in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import aslinearoperator, cg, minres

from .constants import BIG_A
from .grids import GridDomain, GridField
from .operators import Form, orbit_form

Array = np.ndarray


# -- nonlinearities -----------------------------------------------------------

@dataclass(frozen=True)
class NonlinearitySpec:
    """A nonlinearity f(u), its primitive F, and growth metadata.

    f, bigF, fprime are vectorized callables U -> array.  alpha0 is the
    exponent scale of critical exponential growth, None for subcritical
    growth.
    theta, bigM, r0 parametrize the superlinearity hypotheses.
    """

    f: Callable[..., Array]
    bigF: Callable[..., Array]
    fprime: Callable[..., Array]
    theta: float
    bigM: float
    r0: float
    alpha0: float | None = None


def cubic_model() -> NonlinearitySpec:
    """f(u) = u^3, F = u^4/4: subcritical, superquadratic with theta = 4."""
    return NonlinearitySpec(
        f=lambda U: U ** 3,
        bigF=lambda U: 0.25 * U ** 4,
        fprime=lambda U: 3.0 * U ** 2,
        theta=4.0,
        bigM=25.0,   # primitive bound F <= M f holds up to u = 4 M on samples
        r0=1.0,
    )


def critical_model(lam: float, alpha0: float = 1.0) -> NonlinearitySpec:
    """f(u) = lam * u * exp(alpha0 u^2): critical exponential growth.

    F = lam/(2 alpha0) (exp(alpha0 u^2) - 1); u f / F -> 2 alpha0 u^2, so any
    theta > 2 works for large u; u f(u) exp(-alpha0 u^2) = lam u^2 -> inf, so
    the asymptotic lower bound holds with any beta1.
    """
    if lam <= 0 or alpha0 <= 0:
        raise ValueError("critical model needs lam > 0 and alpha0 > 0")
    return NonlinearitySpec(
        f=lambda U: lam * U * np.exp(alpha0 * U ** 2),
        bigF=lambda U: lam / (2 * alpha0) * (np.exp(alpha0 * U ** 2) - 1.0),
        fprime=lambda U: lam * (1.0 + 2.0 * alpha0 * U ** 2) * np.exp(alpha0 * U ** 2),
        theta=3.0,
        bigM=1.0,
        r0=1.0,
        alpha0=alpha0,
    )


# -- functional and gradient --------------------------------------------------

def _check_a(a: float):
    if not (0.0 <= a < 4.0):
        raise ValueError(f"potential exponent a must lie in [0, 4), got {a}")


def energy(form: Form, x: Array, nl: NonlinearitySpec, a: float) -> float:
    """J(x) = volume (1/2 x.Ax - w_a.F(x)): 1/2 ||L u||^2 - int F(u)/rho^a."""
    _check_a(a)
    return form.volume * (0.5 * float(x @ form.A(x)) - float(form.weight(a) @ nl.bigF(x)))


def grad_energy(form: Form, x: Array, nl: NonlinearitySpec, a: float) -> Array:
    """Representer A x - w_a f(x): <grad_energy(x), v> * volume is the exact
    directional derivative of energy at x along v."""
    _check_a(a)
    return form.A(x) - form.weight(a) * nl.f(x)


def _norm(form: Form, x: Array) -> float:
    """||L u|| of the unknowns x."""
    return float(np.sqrt(float(x @ form.A(x)) * form.volume))


def _residual_norm(form: Form, g: Array) -> float:
    """sqrt(volume * sum g_full^2) of the invariant free-cell vector g_full
    whose orbit sums are g: the norm a residual has on all the free cells."""
    return float(np.sqrt(g @ (g / form.count) * form.volume))


# -- Rayleigh constant --------------------------------------------------------

@dataclass
class LambdaResult:
    value: float
    residual: float
    iterations: int
    converged: bool


_LAMBDA_MAX_ITERS = 200


def lambda_estimate(domain: GridDomain, a: float, tol: float = 1e-10) -> LambdaResult:
    """Smallest Rayleigh quotient ||u||^2 / int u^2/rho^a by block-one LOBPCG.

    The pencil is (L^2, diag(w_a)) on the invariant fields of the free
    cells, in the unknowns of orbit_form(domain); L^2 is SPD there.  The
    minimum over the invariant fields is lambda_1 when, as on the grids
    here, the first eigenvector is invariant.  Each iteration
    preconditions the residual r = L^2 x - lambda w x with the form's
    M and moves x to the Rayleigh-Ritz minimizer
    over span{x, M r, p}, p the previous step (Knyazev 2001): one
    preconditioner apply and one L^2 apply, no inner solve.  It stops once
    lambda moves by at most tol relative and the relative residual
    ||L^2 x - lambda w x|| / (|lambda| ||w x||) (norms of the free-cell
    vectors), which does not change with the scale of the domain, is at
    most sqrt(tol); after _LAMBDA_MAX_ITERS iterations it returns the last
    iterate with converged=False.  Raises ValueError when the free cells are
    not invariant under the symmetry group of L.

    scipy's lobpcg on the same orbit-form operators (residual tolerance
    1e-5) gives the same lambda_1, to 2.5e-14, but is slower: at box 17,
    with the factor of M built, a median of 7 estimates took 7.6-8.1 and
    6.3-7.1 ms for a = 1 and 3 over three runs, against 3.6-3.7 and
    2.7-2.8 ms here (2-CPU Xeon, one BLAS thread).
    """
    _check_a(a)
    form = orbit_form(domain)
    w = form.weight(a)

    def w_normalized(v, Av):
        s = 1.0 / np.sqrt(v @ (w * v))
        return v * s, Av * s

    rng = np.random.default_rng(7)
    x = rng.standard_normal(w.size)
    x, Ax = w_normalized(x, form.A(x))
    lam = float(x @ Ax)
    r = Ax - lam * w * x
    p = Ap = None
    res = np.inf
    it = 0
    for it in range(1, _LAMBDA_MAX_ITERS + 1):
        z = form.M(r)
        z, Az = w_normalized(z, form.A(z))
        S = np.column_stack([x, z] if p is None else [x, z, p])
        AS = np.column_stack([Ax, Az] if p is None else [Ax, Az, Ap])
        try:
            c = _smallest_ritz_vector(S, AS, w)
        except np.linalg.LinAlgError:
            S, AS = S[:, :2], AS[:, :2]
            c = _smallest_ritz_vector(S, AS, w)
        p, Ap = w_normalized(S[:, 1:] @ c[1:], AS[:, 1:] @ c[1:])
        x, Ax = w_normalized(S @ c, AS @ c)
        lam_prev, lam = lam, float(x @ Ax)
        r = Ax - lam * w * x
        res = _residual_norm(form, r) / (abs(lam) * _residual_norm(form, w * x))
        if abs(lam - lam_prev) <= tol * abs(lam) and res <= np.sqrt(tol):
            return LambdaResult(value=lam, residual=res, iterations=it, converged=True)
    return LambdaResult(value=lam, residual=res, iterations=it, converged=False)


def _smallest_ritz_vector(S: Array, AS: Array, w: Array) -> Array:
    """Coefficients in the columns of S of the smallest Ritz pair of (A, diag(w)).

    The Gram matrix S^T W S is factored by Cholesky, which raises LinAlgError
    when the columns are numerically dependent.
    """
    Linv = np.linalg.inv(np.linalg.cholesky(S.T @ (w[:, None] * S)))
    G = S.T @ AS
    _, vecs = np.linalg.eigh(Linv @ (0.5 * (G + G.T)) @ Linv.T)
    return Linv.T @ vecs[:, 0]


# -- hypothesis validation ----------------------------------------------------

@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list[HypothesisCheck]
    sampled_range: tuple[float, float]

    def passed_geometry(self) -> bool:
        """The four checks the subcritical saddle search relies on."""
        need = {"sign", "primitive_bound", "superquadratic", "origin_gap"}
        return all(c.passed for c in self.checks if c.name in need)


# validate_hypotheses samples u at _N_U points per sign
_N_U = 400


def validate_hypotheses(nl: NonlinearitySpec, a: float, lam: float, u_max: float = 8.0,
                        m_estimate: float | None = None) -> ValidationReport:
    """Sampled check of the structural conditions on f.

    All statements are verified on sampled u in [-u_max, u_max] only; the
    report records that range and claims nothing beyond it.

      sign             f(u) >= 0 for u >= 0 and <= 0 for u <= 0
      primitive_bound  0 < F <= M f on [r0, u_max]
      superquadratic   theta F <= u f for |u| in [r0, u_max]
      origin_gap       2 F / u^2 < lam for 0 < |u| <= delta (delta reported)
      exp_lower_bound  u f exp(-alpha0 u^2) at u_max >= beta1 > threshold
                       (critical class only; threshold needs an M estimate)
    """
    _check_a(a)
    checks: list[HypothesisCheck] = []

    u_pos = np.linspace(1e-9, u_max, _N_U)
    u_all = np.concatenate([-u_pos[::-1], u_pos])

    fv = nl.f(u_all)
    ok = bool(np.all(fv[u_all >= 0] >= 0) and np.all(fv[u_all <= 0] <= 0))
    checks.append(HypothesisCheck(
        "sign", ok,
        "f has the sign of u at all samples" if ok else "sign violation found",
    ))

    big_u = u_pos[u_pos >= nl.r0]
    if big_u.size == 0:
        big_u = np.array([nl.r0])
    Fv = nl.bigF(big_u)
    fv2 = nl.f(big_u)
    pos = bool(np.all(Fv > 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(fv2 > 0, Fv / fv2, np.inf)
    min_M = float(np.max(ratio))
    okF = pos and min_M <= nl.bigM
    checks.append(HypothesisCheck(
        "primitive_bound", okF,
        f"F <= M f on [r0, u_max] with minimal M = {min_M:.4g} (declared {nl.bigM})",
    ))

    u_abs = np.concatenate([-big_u[::-1], big_u])
    Fv = nl.bigF(u_abs)
    fv3 = nl.f(u_abs)
    gap = u_abs * fv3 - nl.theta * Fv
    okT = bool(np.all(gap >= -1e-12 * np.maximum(1.0, np.abs(u_abs * fv3))))
    checks.append(HypothesisCheck(
        "superquadratic", okT,
        f"theta F <= u f for |u| >= r0 with theta = {nl.theta}",
    ))

    delta = min(0.1, u_max / 10.0)
    u_small = np.linspace(1e-8, delta, 200)
    sup_q = float(np.max(2.0 * nl.bigF(u_small) / u_small ** 2))
    okG = sup_q < lam
    checks.append(HypothesisCheck(
        "origin_gap", okG,
        f"2F/u^2 <= {sup_q:.4g} < lambda = {lam:.4g} on (0, {delta}]"
        if okG else f"2F/u^2 reaches {sup_q:.4g} >= lambda = {lam:.4g}",
    ))

    if nl.alpha0 is not None:
        alpha0 = nl.alpha0
        beta1_emp = float(u_max * nl.f(u_max) * np.exp(-alpha0 * u_max ** 2))
        if m_estimate is not None and m_estimate > 0:
            thresh = (4.0 - a) * BIG_A / (4.0 * alpha0 * m_estimate)
            okH = beta1_emp > thresh
            detail = (f"u f exp(-alpha0 u^2) at u_max is {beta1_emp:.4g}; "
                      f"threshold (4-a)A/(4 alpha0 M) = {thresh:.4g}")
        else:
            okH = beta1_emp > 0
            detail = (f"u f exp(-alpha0 u^2) at u_max is {beta1_emp:.4g}; "
                      "no plateau-growth estimate supplied, checked positivity only")
        checks.append(HypothesisCheck("exp_lower_bound", okH, detail))

    return ValidationReport(checks=checks, sampled_range=(-u_max, u_max))


# -- level bound ---------------------------------------------------------------

def level_bound(a: float, alpha0: float) -> float:
    """Critical-level ceiling ((4-a)/8) * A / alpha0."""
    _check_a(a)
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    return (4.0 - a) / 8.0 * BIG_A / alpha0


# -- mountain pass ---------------------------------------------------------------

# The descent direction only has to point downhill and to measure its own
# size against _NEWTON_SWITCH, so its CG solve stops at a loose tolerance.
_DESCENT_CG_TOL = 1e-3
_DESCENT_CG_MAX_ITER = 20000
_NEWTON_SWITCH = 1e-1        # relative descent-step size at which Newton takes over
_NEWTON_MAX_ITERS = 60
_NEWTON_RTOL = 1e-10         # the tightest MINRES tolerance, and a failed inexact step's retry
_TRIVIALITY_FLOOR = 1e-6     # a solution with ||u|| at or below it is the trivial state
_RAY_T_MAX = 1e12            # J still rising at t ||u|| past it: the ray has no maximum


@dataclass
class SolveOptions:
    tol: float = 1e-6
    max_deform_iters: int = 200      # cap on Nehari descent steps


@dataclass
class MountainPassState:
    levelEstimate: float     # running minimum of max_t J(t u) over the iterates
    gradResidual: float
    history: list[tuple[int, float, float, float]]   # iteration, level, residual, norm
    converged: bool
    geometry_failure: bool = False
    newton_iterations: int = 0
    descent_cg_iterations: int = 0   # summed over the descent's CG solves
    minres_iterations: int = 0       # summed over Newton's MINRES solves, retries included
    inner_unconverged: int = 0   # descent CG and Newton MINRES solves returning info != 0
    message: str = ""


class _Count:
    """A Krylov solver callback that counts the iterations it is called after."""

    def __init__(self):
        self.n = 0

    def __call__(self, _xk):
        self.n += 1


class GeometryFailure(RuntimeError):
    """J has no maximum along a ray: it still rises past t ||u|| = _RAY_T_MAX,
    or it falls from the origin down to t ||u|| = _TRIVIALITY_FLOOR."""


def default_bump(domain: GridDomain) -> GridField:
    """Smooth positive clamped bump, the seed direction for the ray search."""
    X, Y, T = domain.coords()
    Lx, Ly, Lt = domain.extents
    prof = ((1 - (X / Lx) ** 2) * (1 - (Y / Ly) ** 2) * (1 - (T / Lt) ** 2))
    vals = np.clip(prof, 0.0, None) ** 2
    vals = np.where(domain.free_mask(), vals, 0.0)
    return GridField(domain, vals)


def _ray_max(form: Form, x: Array, nl: NonlinearitySpec, a: float) -> Array:
    """t x at the maximizer t > 0 of J(t x), which lies on the Nehari manifold.

    phi(t) = J(t x) has phi'(t) = t ||x||^2 - volume w_a.(f(t x) x), positive
    for small t and with a single sign change when f(s)/s increases in |s|;
    the root is found by Newton steps kept inside a bisection bracket, and t
    doubles from 1 while the bracket is still open.  As in rtsafe, a Newton
    step longer than half the previous step bisects instead, so the search
    cannot creep along a steep exponential.  The search stops once a Newton
    step moves t by at most 1e-15 t.  That test comes before the bracket
    safeguard: a t where phi' is exactly 0 becomes the bracket's upper end,
    and the safeguard would reject its Newton point, t itself, as outside
    the bracket and bisect from lo.  The search also stops when a bisection
    step is that short.  Raises GeometryFailure when
    phi' is still positive once t ||x|| passes _RAY_T_MAX, or has been
    nonpositive at every t tried down to t ||x|| <= _TRIVIALITY_FLOOR (J falls
    from the origin), and RuntimeError when 200 steps do not pin the root down.
    """
    wx = form.weight(a) * x * form.volume
    unorm2 = float(x @ form.A(x)) * form.volume
    unorm = np.sqrt(unorm2)
    lo, hi, t, dt_prev = 0.0, np.inf, 1.0, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(200):
            tx = t * x
            d1 = t * unorm2 - float(np.sum(wx * nl.f(tx)))
            if d1 > 0.0:
                if t * unorm > _RAY_T_MAX:
                    raise GeometryFailure(
                        f"energy still rises along the ray at t ||u|| = {t * unorm:.3g}")
                lo = t
            else:
                if lo == 0.0 and t * unorm <= _TRIVIALITY_FLOOR:
                    raise GeometryFailure("energy falls along the ray from the origin")
                hi = t
            d2 = unorm2 - float(np.sum(wx * x * nl.fprime(tx)))
            t_new = t - d1 / d2 if d2 < 0.0 else np.nan
            if abs(t_new - t) <= 1e-15 * t:    # t is the root, even as a bracket end
                break
            if not lo < t_new < hi or abs(2.0 * d1) > abs(dt_prev * d2):
                t_new = 2.0 * t if np.isinf(hi) else 0.5 * (lo + hi)
                if abs(t_new - t) <= 1e-15 * t:    # the bracket has closed
                    break
            dt_prev, t = t_new - t, t_new
        else:
            raise RuntimeError(f"ray search unconverged after 200 steps, t in [{lo}, {hi}]")
    return x * t_new


def mountain_pass_solve(nl: NonlinearitySpec, a: float, domain: GridDomain,
                        opts: SolveOptions | None = None,
                        warm_start: GridField | None = None) -> tuple[GridField, MountainPassState]:
    """Saddle search by Nehari-projected descent, finished by Newton.

    The search runs on the unknowns of orbit_form(domain).  The
    seed ray (a positive bump, or the warm start) is scaled to the
    maximum of J along it, which lies on the Nehari manifold J'(u) u = 0; a
    seed of zero norm, or a ray (of the seed, a descent step or a Newton
    iterate) along which J has no maximum, returns the zero field with
    geometry_failure set.  Each descent step subtracts the
    Sobolev gradient d = (L^2)^-1 grad J(u), one preconditioned
    conjugate-gradient solve, and scales the result back
    to its ray maximum.  Once ||d|| <= _NEWTON_SWITCH ||u||, Newton drives
    the residual r_k below target = tol max(1, ||u||): the linearization
    L^2 - w f'(u) is symmetric but indefinite at a saddle, so each step is a
    MINRES solve, taken whole.  Step k solves to the relative tolerance
    eta_k = max(1e-10, 0.1 target / r_k, min(0.1, 0.9 (r_k / r_{k-1})^2)),
    with eta_0 = 0.1.  An inexact step that does not lower the residual is
    solved again at 1e-10; a step at 1e-10 that does not lower it ends
    Newton as stagnated, with the last iterate and converged=False.  The
    state records the iterations of the descent's CG solves and of Newton's
    MINRES solves, retries included, and how many of those solves returned
    a nonzero info.  Both phases
    share the form's preconditioner M.  Every ray maximum max_t J(t u) bounds
    the mountain-pass level from above; the recorded level is their running
    minimum over the iterates of both phases, so it is non-increasing, and
    it equals J(u) when the search ends at the least-energy solution.
    Raises ValueError, from Form.restrict, when the warm start lives on
    another domain object, whose grid would be read as this one's, is
    nonzero off free_mask() (the search only moves the free cells, so such
    values would survive into the returned field) or is not exactly
    invariant, and, from orbit_form, when the free cells are not invariant.
    """
    opts = opts or SolveOptions()
    form = orbit_form(domain)
    seed = form.restrict(warm_start if warm_start is not None else default_bump(domain))
    nrm = _norm(form, seed)
    try:
        if nrm == 0.0:
            raise GeometryFailure("seed direction has zero norm")
        x, state = _saddle_search(form, _ray_max(form, seed * (1.0 / nrm), nl, a), nl, a, opts)
    except GeometryFailure as exc:
        x = np.zeros_like(seed)
        state = MountainPassState(
            levelEstimate=np.nan, gradResidual=np.inf, history=[],
            converged=False, geometry_failure=True, message=str(exc),
        )
    return form.expand(x), state


def _saddle_search(form: Form, x: Array, nl: NonlinearitySpec, a: float,
                   opts: SolveOptions) -> tuple[Array, MountainPassState]:
    """The descent and Newton phases of mountain_pass_solve from the ray
    maximum x; raises GeometryFailure from any ray search."""
    history: list[tuple[int, float, float, float]] = []
    level = np.inf
    unconverged = 0
    cg_its, minres_its = _Count(), _Count()
    while True:
        level = min(level, energy(form, x, nl, a))
        g = grad_energy(form, x, nl, a)
        res = _residual_norm(form, g)
        unorm = _norm(form, x)
        history.append((len(history) + 1, level, res, unorm))
        if res <= opts.tol * max(1.0, unorm) or len(history) > opts.max_deform_iters:
            break
        d, info = cg(form.A, g, rtol=_DESCENT_CG_TOL, atol=0.0, maxiter=_DESCENT_CG_MAX_ITER,
                     M=form.M, callback=cg_its)
        unconverged += info != 0
        # ||d||^2 = <L^2 d, d> = <grad J(u), d>
        if np.sqrt(float(d @ g) * form.volume) <= _NEWTON_SWITCH * unorm:
            break
        x = _ray_max(form, x - d, nl, a)

    newton_its = 0
    res_prev = res      # makes the first forcing term 0.1
    while res > opts.tol * max(1.0, unorm) and newton_its < _NEWTON_MAX_ITERS:
        newton_its += 1
        hessian = form.A - aslinearoperator(diags(form.weight(a) * nl.fprime(x)))
        # Eisenstat-Walker choice 2, at most 0.1; it never asks the linear
        # residual for less than a tenth of the stopping target
        eta = max(_NEWTON_RTOL, 0.1 * opts.tol * max(1.0, unorm) / res,
                  min(0.1, 0.9 * (res / res_prev) ** 2))
        stagnated = True
        for rtol in sorted({eta, _NEWTON_RTOL}, reverse=True):    # eta, then the retry
            delta, info = minres(hessian, -g, rtol=rtol, maxiter=4000, M=form.M,
                                 callback=minres_its)
            unconverged += info != 0
            if info != 0 and not np.isfinite(delta).all():
                continue
            trial = x + delta
            gt = grad_energy(form, trial, nl, a)
            rt = _residual_norm(form, gt)
            if rt < res:
                res_prev, x, g, res = res, trial, gt, rt
                stagnated = False
                break
        unorm = _norm(form, x)
        level = min(level, energy(form, _ray_max(form, x, nl, a), nl, a))
        history.append((len(history) + 1, level, res, unorm))
        if stagnated:
            break

    ok = res <= opts.tol * max(1.0, unorm)
    nontrivial = unorm > _TRIVIALITY_FLOOR
    state = MountainPassState(
        levelEstimate=level,
        gradResidual=res,
        history=history,
        converged=bool(ok and nontrivial),
        newton_iterations=newton_its,
        descent_cg_iterations=cg_its.n,
        minres_iterations=minres_its.n,
        inner_unconverged=unconverged,
    )
    if not ok:
        state.message = "Newton stagnated; returning its last iterate"
    elif not nontrivial:
        state.message = "converged to the trivial state below the triviality floor"
    return x, state


# -- continuation --------------------------------------------------------------

@dataclass
class ContinuationStep:
    n: int
    a: float
    solution: GridField
    state: MountainPassState
    norm: float
    diff_from_previous: float
    weighted_uf: float    # int f(u) u / rho^a
    weighted_F: float     # int F(u) / rho^a


def critical_continuation(nl: NonlinearitySpec, nmax: int, domain: GridDomain,
                          opts: SolveOptions | None = None) -> list[ContinuationStep]:
    """Approach the borderline potential through a_n = 4 - 1/n.

    Each stage solves the subcritical problem at a_n, taking the previous
    solution as the seed ray; diagnostics record the solution drift and the
    weighted superlinearity integrals, which stay bounded along the family.
    They are read off the domain's orbit_form at the stage's unknowns
    x = restrict(u): norm = ||L u|| = sqrt(volume x.Ax), diff_from_previous
    the same norm of x - x_prev, weighted_uf = volume w_a.(f(x) x) and
    weighted_F = volume w_a.F(x).  Any stage failure aborts with the steps
    obtained so far.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    opts = opts or SolveOptions()
    form = orbit_form(domain)
    steps: list[ContinuationStep] = []
    prev: GridField | None = None
    x_prev = None
    for n in range(1, nmax + 1):
        a_n = 4.0 - 1.0 / n
        u, state = mountain_pass_solve(nl, a_n, domain, opts, warm_start=prev)
        x = form.restrict(u)
        w = form.weight(a_n) * form.volume
        steps.append(ContinuationStep(
            n=n, a=a_n, solution=u, state=state,
            norm=_norm(form, x),
            diff_from_previous=np.nan if prev is None else _norm(form, x - x_prev),
            weighted_uf=float(w @ (nl.f(x) * x)),
            weighted_F=float(w @ nl.bigF(x)),
        ))
        if not state.converged:
            break
        prev, x_prev = u, x
    return steps


def tail_differences_decreasing(steps: list[ContinuationStep]) -> bool:
    """True when the last three solution drifts ||u_{n+1} - u_n|| decrease."""
    diffs = [s.diff_from_previous for s in steps if np.isfinite(s.diff_from_previous)]
    if len(diffs) < 3:
        return False
    tail = diffs[-3:]
    return all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
