import numpy as np
import pytest
from scipy.sparse.linalg import cg

import heisadams as ha
from heisadams.operators import grid_form


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
    """J of a clamped field, evaluated on the free-cell unknowns of its domain's form."""
    return ha.energy(grid_form(u.domain), u.values[u.domain.free_mask()], nl, a)


def counted_cg(A, b, tol, max_iter, M=None):
    """scipy's cg from zero: the iterate, its iteration count and its true
    relative residual."""
    steps = []
    x, _ = cg(A, b, rtol=tol, atol=0.0, maxiter=max_iter, M=M, callback=steps.append)
    return x, len(steps), np.linalg.norm(b - A @ x) / np.linalg.norm(b)
