import numpy as np
import pytest

import heisadams as ha
from scipy.sparse import csc_matrix, csr_matrix, diags, identity

from heisadams.grids import orbit_images
from heisadams.operators import (
    orbit_form,
    sublaplacian,
)

from conftest import count_sweeps, counted_cg, holed_ball17, orbit_sums, random_free_field
from oracles import apply_fields, dirichlet_energy, free_columns, inner, origin_cell


def _interior(n, pad=2):
    return (slice(pad, n - pad),) * 3


def test_frame_on_linears():
    dom = ha.box_grid(11)
    X, Y, T = dom.coords()
    c = _interior(11)
    Xu, Yu, Tu = apply_fields(ha.GridField(dom, X.copy()))
    assert np.abs(Xu.values[c] - 1).max() < 1e-13
    assert np.abs(Yu.values[c]).max() < 1e-13
    assert np.abs(Tu.values[c]).max() < 1e-13


def test_frame_on_t():
    # X t = 2y, Y t = -2x by the frame definition
    dom = ha.box_grid(11)
    X, Y, T = dom.coords()
    c = _interior(11)
    Xu, Yu, Tu = apply_fields(ha.GridField(dom, T.copy()))
    assert np.abs(Xu.values[c] - 2 * Y[c]).max() < 1e-13
    assert np.abs(Yu.values[c] + 2 * X[c]).max() < 1e-13
    assert np.abs(Tu.values[c] - 1).max() < 1e-13


@pytest.mark.parametrize("expr,expect", [
    (lambda X, Y, T: X ** 2 + Y ** 2, lambda X, Y, T: 4.0 + 0 * X),
    (lambda X, Y, T: T ** 2, lambda X, Y, T: 8.0 * (X ** 2 + Y ** 2)),
    (lambda X, Y, T: X * T, lambda X, Y, T: 4.0 * Y),
    (lambda X, Y, T: Y * T, lambda X, Y, T: -4.0 * X),
    (lambda X, Y, T: X * Y, lambda X, Y, T: 0.0 * X),
    (lambda X, Y, T: T, lambda X, Y, T: 0.0 * X),
])
def test_sublaplacian_exact_on_quadratics(expr, expect):
    dom = ha.box_grid(13)
    X, Y, T = dom.coords()
    u = ha.GridField(dom, expr(X, Y, T))
    got = sublaplacian(u).values
    want = expect(X, Y, T)
    c = _interior(13)
    scale = max(1.0, np.abs(want[c]).max())
    assert np.abs(got[c] - want[c]).max() <= 1e-12 * scale


def test_bilaplacian_of_t_squared():
    # L(t^2) = 8|z|^2, then L(8(x^2+y^2)) = 8*(2+2) = 32
    dom = ha.box_grid(13)
    X, Y, T = dom.coords()
    got = sublaplacian(sublaplacian(ha.GridField(dom, T ** 2))).values
    c = _interior(13, pad=3)
    assert np.abs(got[c] - 32.0).max() < 1e-10


def test_bilaplacian_zero():
    dom = ha.box_grid(9)
    assert np.all(sublaplacian(sublaplacian(ha.zeros(dom))).values == 0.0)
    form = orbit_form(dom)
    assert np.all(form.A(np.zeros(form.count.size)) == 0.0)


def test_commutator_order_two():
    """(X Y - Y X)u + 4 T u -> 0 at second order on a nested 3x ladder."""
    errs = []
    ns = (7, 21, 63)
    n0 = ns[0]
    for n in ns:
        fac = n // n0
        dom = ha.box_grid(n)
        X, Y, T = dom.coords()
        u = ha.GridField(dom, X ** 3 * Y + Y ** 3 * T + T ** 3 * X + X * Y * T)
        Xu, Yu, Tu = apply_fields(u)
        resid = apply_fields(Yu)[0].values - apply_fields(Xu)[1].values + 4 * Tu.values
        idx = [fac * i + (fac - 1) // 2 for i in range(2, n0 - 2)]
        errs.append(np.abs(resid[np.ix_(idx, idx, idx)]).max())
    orders = [np.log(errs[i] / errs[i + 1]) / np.log(3.0) for i in range(2)]
    assert errs[0] > errs[1] > errs[2]
    assert min(orders) >= 1.8


def test_gauge_harmonic_decay_order():
    """|L(gauge^-2)| over {gauge >= 0.3} decays at order ~2 on nested grids."""
    errs = []
    ns = (21, 63, 189)
    n0 = ns[0]
    dom0 = ha.box_grid(n0, extent=0.8)
    core = [list(range(2, n0 - 2))] * 3
    rsub = dom0.gauge()[np.ix_(*core)]
    sel = rsub >= 0.3
    for n in ns:
        fac = n // n0
        dom = ha.box_grid(n, extent=0.8)
        rho = dom.gauge()
        u = ha.GridField(dom, np.where(rho > 1e-14, rho, 1.0) ** -2.0)
        Lu = sublaplacian(u).values
        idx = [fac * i + (fac - 1) // 2 for i in range(2, n0 - 2)]
        errs.append(np.abs(Lu[np.ix_(idx, idx, idx)][sel]).max())
    # least-squares slope across the three levels
    slope = np.polyfit(np.log([1.0, 1 / 3, 1 / 9]), np.log(errs), 1)[0]
    assert errs[0] > errs[1] > errs[2]
    assert slope >= 1.8


def test_consistency_on_smooth_bump():
    """O(h^2) consistency against hand calculus for a polynomial-bump product."""
    def exact_lap(X, Y, T, u_xx, u_yy, u_tt, u_xt, u_yt):
        return u_xx + u_yy + 4 * (X ** 2 + Y ** 2) * u_tt + 4 * Y * u_xt - 4 * X * u_yt

    errs = []
    ns = (7, 21, 63)
    n0 = ns[0]
    for n in ns:
        fac = n // n0
        dom = ha.box_grid(n)
        X, Y, T = dom.coords()
        # u = sin(pi x) sin(pi y) sin(pi t): all derivatives in closed form
        u = np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * T)
        sx, sy, st_ = np.sin(np.pi * X), np.sin(np.pi * Y), np.sin(np.pi * T)
        cx, cy, ct = np.cos(np.pi * X), np.cos(np.pi * Y), np.cos(np.pi * T)
        pi2 = np.pi ** 2
        u_xx = -pi2 * u
        u_yy = -pi2 * u
        u_tt = -pi2 * u
        u_xt = pi2 * cx * sy * ct
        u_yt = pi2 * sx * cy * ct
        want = exact_lap(X, Y, T, u_xx, u_yy, u_tt, u_xt, u_yt)
        got = sublaplacian(ha.GridField(dom, u)).values
        idx = [fac * i + (fac - 1) // 2 for i in range(2, n0 - 2)]
        errs.append(np.abs((got - want)[np.ix_(idx, idx, idx)]).max())
    orders = [np.log(errs[i] / errs[i + 1]) / np.log(3.0) for i in range(2)]
    assert min(orders) >= 1.8


def test_adjointness_and_symmetry(box9):
    rng = np.random.default_rng(42)
    u = random_free_field(box9, rng)
    v = random_free_field(box9, rng)
    free = box9.free_mask()
    B = free_columns(box9)
    lhs = float((B.T @ (B @ u.values[free])) @ v.values[free]) * box9.cell_volume
    rhs = inner(sublaplacian(u), sublaplacian(v))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert inner(sublaplacian(sublaplacian(u)), v) == pytest.approx(rhs, rel=1e-12)
    # bilinear form symmetry
    assert inner(sublaplacian(u), sublaplacian(v)) == pytest.approx(
        inner(sublaplacian(v), sublaplacian(u)), rel=1e-12)


def test_d022_norm_properties(box9):
    rng = np.random.default_rng(3)
    u = random_free_field(box9, rng)
    assert dirichlet_energy(ha.zeros(box9)) == 0.0
    assert np.sqrt(dirichlet_energy(ha.GridField(box9, -2.5 * u.values))) == pytest.approx(
        2.5 * np.sqrt(dirichlet_energy(u)), rel=1e-12)
    assert dirichlet_energy(u) == pytest.approx(
        inner(sublaplacian(u), sublaplacian(u)), rel=1e-12)


def test_capacity_energy_equals_norm_squared(ball33):
    prof = ha.capacity_profile(0.5, ball33, tol=1e-6)
    assert prof.energy == pytest.approx(dirichlet_energy(prof.field), rel=1e-12)


def test_zero_policy_one_sided_difference():
    """Zero extension: ring and ghosts vanish, so the one-sided normal
    difference across the boundary is exactly zero.  The ghosts are zero
    when L on the box equals L on a box one cell larger, with the field
    extended by zeros, on the original cells."""
    dom = ha.box_grid(9)
    rng = np.random.default_rng(6)
    u = random_free_field(dom, rng)
    free = dom.free_mask()
    clamped = ha.GridField(dom, np.where(free, u.values, 0.0))
    assert np.all(clamped.values[0] == 0.0) and np.all(clamped.values[:, :, -1] == 0.0)
    big = ha.box_grid(11, extent=11 / 9)
    assert big.spacing == pytest.approx(dom.spacing, rel=1e-15)
    Lbig = sublaplacian(ha.GridField(big, np.pad(clamped.values, 1))).values[1:-1, 1:-1, 1:-1]
    Lu = sublaplacian(clamped).values
    assert np.abs(Lbig - Lu).max() <= 1e-12 * np.abs(Lu).max()


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.box_grid(13), ha.ball_grid(13)],
                         ids=["box9", "box13", "ball13"])
def test_probed_free_sublaplacian_matches_stencil(dom):
    """B = L[:, free], read off _stencil at the rows within one cell of the
    free cells, is the stencil on the whole box, and its free rows are
    exactly symmetric."""
    B = free_columns(dom)
    assert free_columns(dom) is B      # probed once per domain
    free = dom.free_mask()
    assert B.shape == (free.size, int(free.sum()))
    rng = np.random.default_rng(11)
    for _ in range(3):
        u = random_free_field(dom, rng)
        ref = sublaplacian(u).values.ravel()
        err = np.linalg.norm(B @ u.values[free] - ref) / np.linalg.norm(ref)
        assert err <= 1e-14
    Lff = B[np.flatnonzero(free), :]
    assert (Lff != Lff.T).nnz == 0


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.ball_grid(13), ha.box_grid(8),
                                 ha.box_grid(7, extent=2.0), ha.group_lattice_grid(9)],
                         ids=["box9", "ball13", "box8", "box7_extent2", "lattice9"])
def test_probed_columns_are_one_sweep_per_free_cell(dom):
    """The probed B equals, bit for bit, the B whose column at each free cell
    is one sublaplacian sweep of that cell's indicator: a check of the
    reference that shares neither the unit-vector evaluation nor the
    neighbour indexing of _probed_rows, on odd and even grids, a non-unit
    extent and the lattice spacing ht = 2 hx hy."""
    cols = []
    for cell in np.flatnonzero(dom.free_mask()):
        e = np.zeros(dom.shape)
        e.flat[cell] = 1.0
        cols.append(sublaplacian(ha.GridField(dom, e)).values.ravel())
    want = csc_matrix(np.column_stack(cols))
    got = free_columns(dom)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.ball_grid(17)], ids=["box9", "ball17"])
def test_squared_sublaplacian_is_the_stencil_applied_twice(dom):
    """B^T B y equals L(L u) on the free cells for the clamped field u with
    free values y."""
    free = dom.free_mask()
    u = random_free_field(dom, np.random.default_rng(12))
    ref = sublaplacian(sublaplacian(u)).values[free]
    B = free_columns(dom)
    got = B.T @ (B @ u.values[free])
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.ball_grid(17)], ids=["box9", "ball17"])
def test_orbit_form_operator_is_the_form_on_invariant_fields(dom):
    """The orbit form's A is E^T (B^T B) E, E the indicator matrix of the
    orbits of free cells: A y is the orbit sums of B^T B applied to the
    field that takes the value y_o on orbit o."""
    form = orbit_form(dom)
    free = dom.free_mask()
    B = free_columns(dom)
    assert form.count.sum() == free.sum()
    for seed in range(3):
        y = np.random.default_rng(seed).standard_normal(form.count.size)
        x = form.expand(y).values[free]
        want = orbit_sums(dom, B.T @ (B @ x))
        assert np.abs(form.A(y) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.ball_grid(17)], ids=["box9", "ball17"])
def test_orbit_form_preconditioner_is_lff_inverse_squared(dom, monkeypatch):
    """With the exact LU of G in place of its incomplete factor, the orbit
    form's M is L_ff^-2 on invariant fields, L_ff the free rows of B: for
    invariant r, expand(M(E^T r)) is L_ff^-2 r at every free cell."""
    import heisadams.operators as ops
    from scipy.sparse.linalg import splu
    monkeypatch.setattr(ops, "spilu", lambda G, drop_tol, fill_factor, **kwargs:
                        splu(G, **kwargs))
    form = orbit_form(dom)
    free = dom.free_mask()
    Lff = free_columns(dom)[np.flatnonzero(free), :].tocsc()
    lu = splu(Lff)
    for seed in range(3):
        r = form.expand(np.random.default_rng(seed).standard_normal(form.count.size))
        want = lu.solve(lu.solve(r.values[free]))
        got = form.expand(form.M(orbit_sums(dom, r.values[free]))).values[free]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dom", [ha.box_grid(5), ha.box_grid(9), ha.ball_grid(9),
                                 ha.ball_grid(17), ha.box_grid(9, 2.0)],
                         ids=["box5", "box9", "ball9", "ball17", "box9-extent2"])
def test_orbit_form_preconditioner_is_symmetric_positive_definite(dom):
    """M(r) = G~^-1 (G~^-T r / count), G~ the incomplete LU of G, is
    symmetric and positive definite as a matrix on the unknowns."""
    form = orbit_form(dom)
    M = form.M @ np.eye(form.count.size)
    assert np.isfinite(M).all()
    assert np.abs(M - M.T).max() <= 1e-10 * np.abs(M).max()
    assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0.0


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.ball_grid(17)], ids=["box9", "ball17"])
def test_sublaplacian_is_equivariant_under_the_order_8_group(dom):
    """L(g u) = g(L u) for the 8 elements g of the group that orbit_images
    enumerates, on a field that is random on the whole box."""
    images = orbit_images(dom, np.arange(dom.mask.size))
    assert images.dtype == np.int32
    assert np.array_equal(images[0], np.arange(dom.mask.size))
    assert all(np.array_equal(np.sort(g), images[0]) for g in images)   # permutations
    assert len({g.tobytes() for g in images}) == 8
    for g in images:
        assert np.array_equal(dom.mask.ravel()[g], dom.mask.ravel())
    u = np.random.default_rng(15).standard_normal(dom.shape)
    Lu = sublaplacian(ha.GridField(dom, u)).values.ravel()
    for g in images:
        gu = np.empty(dom.shape)
        gu.flat[g] = u.ravel()
        L_gu = sublaplacian(ha.GridField(dom, gu)).values.ravel()
        assert np.linalg.norm(L_gu[g] - Lu) <= 1e-15 * np.linalg.norm(Lu)


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.ball_grid(17)], ids=["box9", "ball17"])
@pytest.mark.parametrize("k", [2, 4])
def test_orbit_form_column_block_is_the_form_on_invariant_fields(dom, k):
    """The columns of orbit_form's C at the orbits off the capacity plateau of
    ell = 1/k, scaled by count^-1/2, have the Gram matrix P^T Bc^T Bc P: Bc
    the columns of B at the free cells off the plateau and P their
    orthonormal orbit basis."""
    form = orbit_form(dom)
    free = dom.free_mask()
    plateau = (dom.gauge() <= 1.0 / k) & dom.mask
    off = form.restrict(ha.GridField(dom, plateau.astype(float))) == 0.0
    Cf = form.C[:, off] @ diags(form.count[off] ** -0.5)
    cells = np.flatnonzero(free & ~plateau)
    _, orbit, sizes = np.unique(orbit_images(dom, cells).min(axis=0),
                                return_inverse=True, return_counts=True)
    P = csr_matrix((1.0 / np.sqrt(sizes[orbit]), (np.arange(cells.size), orbit)),
                   shape=(cells.size, sizes.size))
    assert P.shape[1] == Cf.shape[1]
    assert abs(P.T @ P - identity(P.shape[1])).max() <= 1e-15
    Bc = free_columns(dom)[:, np.flatnonzero(~plateau[free])]
    want = (P.T @ (Bc.T @ Bc) @ P).toarray()
    got = (Cf.T @ Cf).toarray()
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert Cf.nnz < Bc.nnz / 6


def test_orbit_form_rejects_cells_that_are_not_invariant():
    holed = holed_ball17()
    with pytest.raises(ValueError, match="not invariant"):
        orbit_form(holed)
    with pytest.raises(ValueError, match="not invariant"):
        ha.capacity_profile(0.5, holed)
    box = ha.GridDomain(shape=(17, 19, 17), extents=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="quarter turn"):
        orbit_form(box)


def test_one_orbit_build_and_one_factor_per_domain(monkeypatch):
    """Capacity profiles at four plateaus, a lambda_estimate and a saddle
    search on one domain classify its orbits once (cells and rows), evaluate
    the stencil at its representative rows without a sweep or assembling B,
    and factor G once, incompletely, on the one Form they share.  No module
    binds the exact sparse LU."""
    import heisadams.extremals as ext
    import heisadams.operators as ops
    assert not hasattr(ops, "splu") and not hasattr(ext, "splu")
    calls = {"_orbits": 0, "spilu": 0}
    for name in calls:
        plain = getattr(ops, name)

        def counted(*args, _name=name, _plain=plain, **kwargs):
            calls[_name] += 1
            return _plain(*args, **kwargs)

        monkeypatch.setattr(ops, name, counted)
    ball = ha.ball_grid(17)
    sweeps = count_sweeps(monkeypatch)
    for k in (2, 4, 8, 16):
        assert ha.capacity_profile(1.0 / k, ball).converged
    form = orbit_form(ball)
    assert ha.lambda_estimate(ball, 1.0).converged
    assert ha.mountain_pass_solve(ha.cubic_model(), 1.0, ball)[1].converged
    assert calls == {"_orbits": 2, "spilu": 1}
    assert sweeps == []
    assert "free_columns" not in ball._cache and "capacity_ilu" not in ball._cache
    assert orbit_form(ball) is form


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.box_grid(13), ha.ball_grid(17)],
                         ids=["box9", "box13", "ball17"])
def test_orbit_form_factors_are_read_off_the_probed_columns(dom):
    """C and G, probed at the representative rows alone, equal
    diag(sqrt|R|) B[row representatives] E and B[representatives] E with B
    = free_columns(dom), entry for entry and bit for bit."""
    from heisadams.operators import _orbits
    form = orbit_form(dom)
    free = dom.free_mask()
    idx = np.flatnonzero(free)
    reps, orbit, count = _orbits(dom, idx)
    E = csr_matrix((np.ones(idx.size), (np.arange(idx.size), orbit)),
                   shape=(idx.size, count.size))
    near = free.copy()
    for axis in range(3):
        near |= np.roll(near, 1, axis) | np.roll(near, -1, axis)
    row_reps, _, row_sizes = _orbits(dom, np.flatnonzero(near))
    B = free_columns(dom)
    for got, want in ((form.C, diags(np.sqrt(row_sizes)) @ B[row_reps] @ E),
                      (form.G, B[reps] @ E)):
        want = csr_matrix(want)
        got = csr_matrix(got)
        assert got.shape == want.shape and got.nnz == want.nnz
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


def test_preconditioned_cg_solves_in_few_iterations():
    form = orbit_form(ha.box_grid(13))
    b = np.random.default_rng(8).standard_normal(form.count.size)
    _, it0, _ = counted_cg(form.A, b, 1e-10, 5000)
    x, it, res = counted_cg(form.A, b, 1e-10, 5000, M=form.M)
    assert res <= 1e-10
    assert np.linalg.norm(form.A(x) - b) <= 1e-9 * np.linalg.norm(b)
    assert it <= it0 / 5


def test_orbit_form_operators_take_column_blocks():
    """form.A and form.M apply column by column to an (n, 2) block, so block
    Krylov methods such as scipy's lobpcg can use M as their preconditioner."""
    from scipy.sparse.linalg import lobpcg
    form = orbit_form(ha.box_grid(9))
    X = np.random.default_rng(3).standard_normal((form.count.size, 2))
    for op in (form.A, form.M):
        assert np.array_equal(op @ X, np.column_stack([op @ X[:, 0], op @ X[:, 1]]))
    vals, vecs = lobpcg(form.A, X, M=form.M, largest=False, maxiter=200, tol=1e-8)
    res = form.A @ vecs - vecs * vals
    assert np.linalg.norm(res) <= 1e-6 * vals.max()


def test_green_function_constant_of_the_discretized_operator():
    """Oracle for the fundamental-solution constant that does not go through
    constants: for L = X^2 + Y^2, X = d/dx + 2y d/dt, the fundamental
    solution of -L is rho^-2 / (8 pi) (Folland 1973).  The zero-boundary
    Green's function of -L_ff at the centre cell, times rho^2, sits near that
    constant at moderate gauge, and far below constants.gamma1 = 3/(4 pi)."""
    dom = ha.box_grid(25)
    free = dom.free_mask()
    Lff = free_columns(dom)[np.flatnonzero(free), :]
    delta = np.zeros(dom.shape)
    delta[origin_cell(dom)] = 1.0 / dom.cell_volume
    g, _, res = counted_cg(-Lff, delta[free], 1e-10, 2000)
    assert res <= 1e-10
    rho = dom.gauge()[free]
    ring = (rho >= 0.1) & (rho <= 0.35)
    c = float(np.median(g[ring] * rho[ring] ** 2))
    assert abs(c - 1 / (8 * np.pi)) <= 0.2 / (8 * np.pi)
    assert c <= 3 / (4 * np.pi) / 5
