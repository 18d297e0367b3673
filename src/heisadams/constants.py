"""Sharp constants of the second-order exponential-class embedding on H^1.

Everything reduces to two integrals:

  * the unit Koranyi ball volume
        V = int_{|z|^4 + t^2 <= 1} dz dt = int_0^1 4 pi r sqrt(1 - r^4) dr,
    which gives the unit gauge-sphere measure c0 = Q * V by the polar
    decomposition of Lebesgue measure;

  * the fundamental-solution normalization
        gamma1 = ( 2 * int |z|^2 (|z|^4 + t^2 + 1)^(-5/2) dz dt )^(-1).

The sharp exponent is then  A = Q / (c0 * gamma1^2).

The closed forms are V = pi^2/2, c0 = 2 pi^2, gamma1 = 3/(4 pi) and
A = 32/9.  c0, gamma1 and A are this module's constants C0, GAMMA1 and BIG_A,
and every other module takes them from here: the singular threshold
A(1 - a/4), the plateau amplitude sqrt(Q log k / A), the level ceiling
(4-a)A/(8 alpha0) and the kernel profiles of the rearrangement oracles.

compute_constants cross-checks the closed forms: each constant is produced by
iterated adaptive 1-D quadrature in polar-like coordinates (angular integral
done analytically, 2 pi symmetry) and by an independent seeded Monte Carlo
estimator; both paths are reported with explicit error estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .group import Q

C0 = 2.0 * np.pi ** 2               # unit gauge-sphere measure
GAMMA1 = 3.0 / (4.0 * np.pi)        # fundamental-solution normalization
BIG_A = Q / (C0 * GAMMA1 ** 2)      # the sharp exponent, 32/9 bit for bit

_QUAD_TOL = 1e-10                   # abs/rel tolerance handed to the 1-D quadratures


@dataclass(frozen=True)
class QuadratureOptions:
    """Controls for the improper integrals and the Monte Carlo cross-check."""

    tail_radius: float = 50.0      # gauge-radius truncation of the gamma1 integral
    mc_samples: int = 200_000
    mc_seed: int = 20240801


@dataclass(frozen=True)
class SharpConstants:
    q: int
    c0: float
    gamma1: float
    bigA: float
    unitBallVolume: float
    errorEstimates: dict[str, float] = field(default_factory=dict)

    def weighted_ball_integral(self, a: float) -> float:
        """Polar value of int_{B(0,1)} rho^-a d xi = c0 / (Q-a)."""
        if a >= self.q:
            raise ValueError(f"weight exponent a={a} must be < Q={self.q}")
        return self.c0 / (self.q - a)


def _ball_volume_quad() -> tuple[float, float]:
    # V = int_0^1 2 pi r * (t-extent 2 sqrt(1-r^4)) dr
    from scipy import integrate  # slow to import, and only quadrature needs it

    val, err = integrate.quad(
        lambda r: 4.0 * np.pi * r * np.sqrt(max(1.0 - r ** 4, 0.0)),
        0.0, 1.0, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
    )
    return val, err


def _gamma1_integral_quad(tail_radius: float) -> tuple[float, float]:
    """I = int |z|^2 (|z|^4 + t^2 + 1)^(-5/2), truncated to gauge <= R.

    Iterated quadrature: angular part is 2 pi, then t inside, z-radius outside.
    The dropped tail is bounded by the integrand bound rho^-8:
        int_{gauge > R} rho^-8 = c0 / (4 R^4),
    which is added to the reported error estimate.
    """
    from scipy import integrate

    R4 = tail_radius ** 4

    def t_slice(r):
        tmax = np.sqrt(max(R4 - r ** 4, 0.0))
        if tmax == 0.0:
            return 0.0
        val, _ = integrate.quad(
            lambda t: (r ** 4 + t * t + 1.0) ** -2.5,
            0.0, tmax, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
        )
        return 2.0 * val

    val, err = integrate.quad(
        lambda r: 2.0 * np.pi * r ** 3 * t_slice(r),
        0.0, tail_radius, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
    )
    tail = C0 * Q / (4.0 * tail_radius ** 4)  # crude c0 upper bound, only for the tail term
    return val, err + tail


def _ball_volume_mc(n: int, rng: np.random.Generator) -> tuple[float, float]:
    # uniform sampling of the bounding box [-1,1]^2 x [-1,1]
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    z2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    inside = (z2 * z2 + pts[:, 2] ** 2) <= 1.0
    p = int(inside.sum()) / n   # exact integer count
    vol = 8.0 * p
    sigma = 8.0 * np.sqrt(p * (1.0 - p) / n)
    return vol, sigma


def _gamma1_integral_mc(n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Importance-sampled estimate of the gamma1 integral.

    Proposal: z-radius with density 4 r^3/(1+r^4)^2 (so r^4 = u/(1-u) for
    uniform u), angle uniform, and t Cauchy with scale sqrt(1+r^4).  The
    weights are bounded, so the plain sample variance is a valid error bar.
    """
    u = rng.uniform(0.0, 1.0, size=n)
    w = u / (1.0 - u)              # r^4
    r = w ** 0.25
    b = np.sqrt(1.0 + w)
    t = b * np.tan(np.pi * (rng.uniform(0.0, 1.0, size=n) - 0.5))

    fval = r ** 2 * (r ** 4 + t * t + 1.0) ** -2.5
    p_r = 4.0 * r ** 3 / (1.0 + w) ** 2
    p_t = b / (np.pi * (b * b + t * t))
    # angular density folded into the 2 pi z-plane measure: p_z(z) = p_r/(2 pi r)
    weights = fval * 2.0 * np.pi * r / (p_r * p_t)
    # compensated accumulation keeps the estimate schedule-independent
    est = math.fsum(weights) / n
    var = math.fsum((weights - est) ** 2) / (n - 1)
    sigma = np.sqrt(var / n)
    return est, sigma


def compute_constants(options: QuadratureOptions | None = None) -> SharpConstants:
    """Evaluate V, c0, gamma1 and A with error estimates.

    Quadrature is the primary route; the Monte Carlo estimates are stored in
    the error dictionary (keys mc_*) so callers can check 3-sigma agreement.
    """
    opts = options or QuadratureOptions()

    vol, vol_err = _ball_volume_quad()
    c0 = Q * vol
    c0_err = Q * vol_err

    integral, integral_err = _gamma1_integral_quad(opts.tail_radius)
    gamma1 = 1.0 / (2.0 * integral)
    gamma1_err = gamma1 * (integral_err / integral)

    bigA = Q / (c0 * gamma1 ** 2)
    bigA_err = bigA * (c0_err / c0 + 2.0 * gamma1_err / gamma1)

    rng = np.random.default_rng(opts.mc_seed)
    vol_mc, vol_mc_sigma = _ball_volume_mc(opts.mc_samples, rng)
    integral_mc, integral_mc_sigma = _gamma1_integral_mc(opts.mc_samples, rng)
    gamma1_mc = 1.0 / (2.0 * integral_mc)
    gamma1_mc_sigma = gamma1_mc * (integral_mc_sigma / integral_mc)

    return SharpConstants(
        q=Q,
        c0=c0,
        gamma1=gamma1,
        bigA=bigA,
        unitBallVolume=vol,
        errorEstimates={
            "unitBallVolume": vol_err,
            "c0": c0_err,
            "gamma1": gamma1_err,
            "bigA": bigA_err,
            "mc_unitBallVolume": vol_mc,
            "mc_unitBallVolume_sigma": vol_mc_sigma,
            "mc_gamma1": gamma1_mc,
            "mc_gamma1_sigma": gamma1_mc_sigma,
        },
    )
