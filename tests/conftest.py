import numpy as np
import pytest
from scipy.sparse.linalg import cg

import heisadams as ha
from heisadams.operators import _orbits

from oracles import dirichlet_energy


@pytest.fixture(scope="session")
def constants():
    return ha.compute_constants()


@pytest.fixture(scope="session")
def ball33():
    return ha.ball_grid(33)


@pytest.fixture(scope="session")
def box9():
    return ha.box_grid(9)


def random_free_field(dom, rng, scale=1.0):
    free = dom.free_mask()
    v = np.zeros(dom.shape)
    v[free] = scale * rng.standard_normal(int(free.sum()))
    return ha.GridField(dom, v)


def field_energy(u, nl, a):
    """J(u) = 1/2 ||L u||^2 - int F(u)/rho^a of a clamped field, summed over the
    whole box: the full-space oracle of varsolve.energy, for any field."""
    return (0.5 * dirichlet_energy(u)
            - ha.integrate_weighted(ha.GridField(u.domain, nl.bigF(u.values)), a))


def orbit_sums(dom, v):
    """E^T v: the sums of the free-cell vector v over each orbit of free cells,
    in the order of the orbit form's unknowns."""
    _, orbit, count = _orbits(dom, np.flatnonzero(dom.free_mask()))
    return np.bincount(orbit, v, minlength=count.size)


def holed_ball17():
    """Ball 17 with one free cell off every axis cleared: its orbit has 8
    cells, so the free cells are not invariant under the symmetry group of L."""
    ball = ha.ball_grid(17)
    mask = ball.mask.copy()
    assert ball.free_mask()[10, 11, 9]
    mask[10, 11, 9] = False
    return ha.GridDomain(shape=ball.shape, extents=ball.extents, mask=mask)


def count_sweeps(monkeypatch):
    """A list that gains an entry at each operators.sublaplacian sweep."""
    import heisadams.operators as ops
    calls = []
    sweep = ops.sublaplacian

    def counted_sweep(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(ops, "sublaplacian", counted_sweep)
    return calls


def counted_cg(A, b, tol, max_iter, M=None):
    """scipy's cg from zero: the iterate, its iteration count and its true
    relative residual."""
    steps = []
    x, _ = cg(A, b, rtol=tol, atol=0.0, maxiter=max_iter, M=M, callback=steps.append)
    return x, len(steps), np.linalg.norm(b - A @ x) / np.linalg.norm(b)
