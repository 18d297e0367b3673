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
32-node Gauss-Legendre rules (numpy only; angular integral 2 pi by symmetry,
the t integral of gamma1 in closed form, substitutions that make every
integrand smooth) with the error estimate |Q_32 - Q_64|, and by a seeded
Monte Carlo estimator with its sample sigma, summed by numpy.  The gamma1
Monte Carlo reduces to one variable: its importance weights depend only on
the angle of a Cauchy draw, so it draws that angle alone.  Both routes
integrate the same I and apply the same (2 I)^-1, so neither can see a wrong
normalization of gamma1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .group import Q

C0 = 2.0 * np.pi ** 2               # unit gauge-sphere measure
GAMMA1 = 3.0 / (4.0 * np.pi)        # fundamental-solution normalization
BIG_A = Q / (C0 * GAMMA1 ** 2)      # the sharp exponent, 32/9 bit for bit

_GAUSS_NODES = 32                   # Gauss-Legendre order; the error estimate doubles it


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


# the nodes cost more than the integrands; every rule of one call shares them
_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def _gauss(f, a: float, b: float, n: int) -> float:
    """n-point Gauss-Legendre rule for int_a^b f."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return float(half * np.dot(w, f(a + half * (x + 1.0))))


def _with_error(rule) -> tuple[float, float]:
    """rule(n) at n = _GAUSS_NODES, with |Q_n - Q_2n| as its error estimate."""
    q = rule(_GAUSS_NODES)
    return q, abs(q - rule(2 * _GAUSS_NODES))


def _ball_volume_quad() -> tuple[float, float]:
    # V = int_0^1 2 pi r * (t-extent 2 sqrt(1-r^4)) dr; s = r^2 = sin(theta)
    # leaves 2 pi int_0^{pi/2} cos^2(theta) d theta, smooth and periodic
    return _with_error(
        lambda n: _gauss(lambda th: 2.0 * np.pi * np.cos(th) ** 2, 0.0, 0.5 * np.pi, n))


def _gamma1_integral_quad(tail_radius: float) -> tuple[float, float]:
    """I = int |z|^2 (|z|^4 + t^2 + 1)^(-5/2), truncated to gauge <= R.

    The angular part is 2 pi, and with c = 1 + w, w = r^4, T = sqrt(R^4 - w)
        int_0^T (c + t^2)^(-5/2) dt = T (2 T^2 + 3 c) / (3 c^2 (c + T^2)^(3/2)),
    where c + T^2 = 1 + R^4, so I = int_0^{R^4} pi T (2T^2 + 3c) /
    (3 c^2 (1 + R^4)^(3/2)) dw.  [0, R^4/2] is mapped by w = e^y - 1 (the
    integrand becomes about (2 pi/3) e^-y) and [R^4/2, R^4] by w = R^4 - T^2
    (no square-root endpoint).  The dropped tail is bounded by the integrand
    bound rho^-8:
        int_{gauge > R} rho^-8 = c0 / (4 R^4),
    which is added to the reported error estimate.
    """
    R4 = tail_radius ** 4
    scale = 3.0 * (1.0 + R4) ** 1.5
    half = 0.5 * R4

    def near(y):                       # w = e^y - 1, dw = c dy
        c = np.exp(y)
        T = np.sqrt(R4 - (c - 1.0))
        return np.pi * T * (2.0 * T * T + 3.0 * c) / (c * scale)

    def far(T):                        # w = R^4 - T^2, |dw| = 2 T dT
        c = 1.0 + R4 - T * T
        return 2.0 * np.pi * T * T * (2.0 * T * T + 3.0 * c) / (c * c * scale)

    val, err = _with_error(lambda n: _gauss(near, 0.0, np.log1p(half), n)
                           + _gauss(far, 0.0, np.sqrt(R4 - half), n))
    return val, err + C0 / (4.0 * tail_radius ** 4)


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
    """Importance-sampled estimate of the gamma1 integral, one uniform a sample.

    The proposal draws the z-radius with density p_r = 4 r^3/b^4, where
    b^2 = 1 + r^4, the z-angle uniformly (folded into the plane measure
    2 pi r dr), and t = b tan(theta) with theta uniform on (-pi/2, pi/2), a
    Cauchy draw of density p_t = b/(pi (b^2 + t^2)) = cos^2(theta)/(pi b).
    The integrand is r^2 (b^2 + t^2)^(-5/2) = r^2 |cos(theta)|^5 / b^5, so the
    weight integrand 2 pi r/(p_r p_t) is (pi^2/2) |cos(theta)|^3 for every r,
    and only theta is drawn; its mean is (pi^2/2) 4/(3 pi) = 2 pi/3 = I.  The
    weights are bounded, so the sample sigma is a valid error bar.  The sums
    are numpy's: reruns on one machine and numpy build are byte-identical, as
    for every other float the program writes.
    """
    theta = np.pi * (rng.uniform(0.0, 1.0, size=n) - 0.5)
    weights = 0.5 * np.pi ** 2 * np.abs(np.cos(theta)) ** 3
    return weights.mean(), weights.std(ddof=1) / np.sqrt(n)


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
