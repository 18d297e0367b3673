"""Group calculus on the first Heisenberg group.

Points are triples (x, y, t) with the non-commutative product

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + 2(y x' - x y')),

parabolic dilations delta_lam(x, y, t) = (lam x, lam y, lam^2 t), and the
Koranyi gauge |(x, y, t)| = ((x^2 + y^2)^2 + t^2)^(1/4).  The homogeneous
dimension of this group is Q = 4.

Every operation takes coordinates as separate arguments and broadcasts over
numpy arrays (plain floats work too); the inverse of (x, y, t) is
(-x, -y, -t).
"""

from __future__ import annotations

#: Homogeneous dimension of the first Heisenberg group.
Q = 4


def gauge_arr(x, y, t):
    """Koranyi gauge ((x^2 + y^2)^2 + t^2)^(1/4) >= 0."""
    z2 = x * x + y * y
    return (z2 * z2 + t * t) ** 0.25


def group_mul_arr(px, py, pt, qx, qy, qt):
    """Group product p * q (non-commutative)."""
    return (
        px + qx,
        py + qy,
        pt + qt + 2.0 * (py * qx - px * qy),
    )


def kernel_offsets(x, y, t, ex, ey, et):
    """Coordinates of xi * eta^-1 for xi = (x, y, t), eta = (ex, ey, et).

    Broadcasts; the Riesz kernel evaluates the gauge of this offset.
    """
    return group_mul_arr(x, y, t, -ex, -ey, -et)
