import numpy as np
import pytest

import heisadams as ha
from heisadams.grids import orbit_images
from heisadams.operators import orbit_form
from heisadams.varsolve import ContinuationStep, GeometryFailure, _ray_max, default_bump

from conftest import count_sweeps, field_energy, holed_ball17, orbit_sums, random_free_field
from oracles import dirichlet_energy, free_columns, rayleigh_quotient

A = 32.0 / 9.0


@pytest.fixture(scope="module")
def box9m():
    return ha.box_grid(9)


@pytest.fixture(scope="module")
def lam9(box9m):
    return {a: ha.lambda_estimate(box9m, a, tol=1e-12) for a in (0.0, 1.0, 2.0)}


def test_energy_trivial_cases(box9m):
    nl = ha.cubic_model()
    form = orbit_form(box9m)
    assert ha.energy(form, np.zeros(form.count.size), nl, 0.0) == 0.0
    free_nl = ha.NonlinearitySpec(
        f=lambda U: 0.0 * U, bigF=lambda U: 0.0 * U,
        fprime=lambda U: 0.0 * U, theta=4.0, bigM=1.0, r0=1.0)
    y = np.random.default_rng(0).standard_normal(form.count.size)
    assert ha.energy(form, y, free_nl, 1.0) == pytest.approx(
        0.5 * dirichlet_energy(form.expand(y)), rel=1e-12)


def test_energy_direct_summation_oracle(box9m):
    """Cubic model energy against an independent direct sum."""
    nl = ha.cubic_model()
    form = orbit_form(box9m)
    y = 0.3 * np.random.default_rng(7).standard_normal(form.count.size)
    u = form.expand(y)
    a = 1.0
    got = ha.energy(form, y, nl, a)
    from heisadams.operators import sublaplacian
    Lu = sublaplacian(u).values
    w = box9m.singular_weight(a)
    vol = box9m.cell_volume
    want = 0.5 * np.sum(Lu ** 2) * vol - np.sum(0.25 * u.values ** 4 * w) * vol
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("grid", ["box9", "ball13"])
@pytest.mark.parametrize("model", ["cubic", "critical"])
@pytest.mark.parametrize("a", [0.0, 1.0])
def test_form_energy_is_the_field_energy(grid, model, a):
    """J on the form's unknowns equals 1/2 ||L u||^2 - int F(u)/rho^a of the
    field, the two representations the solver and the artifacts use."""
    dom = ha.box_grid(9) if grid == "box9" else ha.ball_grid(13)
    nl = ha.cubic_model() if model == "cubic" else ha.critical_model(2.0, 1.0)
    form = orbit_form(dom)
    y = 0.4 * np.random.default_rng(11).standard_normal(form.count.size)
    got = ha.energy(form, y, nl, a)
    want = field_energy(form.expand(y), nl, a)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_orbit_form_is_built_once_per_domain(box9m):
    """The form, and with it the factor of its preconditioner, is cached on
    the domain: a second call returns it and caches nothing more."""
    form = orbit_form(box9m)
    keys = set(box9m._cache)
    assert orbit_form(box9m) is form
    assert set(box9m._cache) == keys


def test_form_keeps_its_domain():
    """A Form outlives every other reference to its domain."""
    form = orbit_form(ha.box_grid(7))
    u = form.expand(np.ones(form.count.size))
    assert u.domain.shape == (7, 7, 7) and u.values.sum() == form.count.sum()


@pytest.mark.parametrize("grid", ["box9", "ball13"])
def test_form_expand_is_zero_off_the_free_cells(grid):
    """expand(y) is exactly invariant, takes the values y on the free cells
    (orbit o on count[o] of them) and is zero elsewhere; restrict undoes it."""
    dom = ha.box_grid(9) if grid == "box9" else ha.ball_grid(13)
    free = dom.free_mask()
    form = orbit_form(dom)
    y = np.random.default_rng(12).standard_normal(form.count.size)
    u = form.expand(y)
    assert u.domain is dom
    assert np.all(u.values[~free] == 0.0)
    images = u.values.ravel()[orbit_images(dom, np.flatnonzero(free))]
    assert np.all(images == images[0])
    vals, counts = np.unique(u.values[free], return_counts=True)
    assert np.array_equal(vals, np.sort(y)) and np.array_equal(counts, form.count[np.argsort(y)])
    assert np.array_equal(form.restrict(u), y)


@pytest.mark.parametrize("grid", ["box9", "ball13"])
def test_restrict_rejects_a_field_that_is_not_invariant(grid):
    dom = ha.box_grid(9) if grid == "box9" else ha.ball_grid(13)
    form = orbit_form(dom)
    u = form.expand(np.random.default_rng(13).standard_normal(form.count.size))
    cell = np.flatnonzero(dom.free_mask())[-1]
    u.values.flat[cell] = np.nextafter(u.values.flat[cell], np.inf)
    with pytest.raises(ValueError, match="not invariant"):
        form.restrict(u)


@pytest.mark.parametrize("grid", ["box9", "ball13"])
def test_restrict_rejects_a_field_on_another_domain_or_off_the_free_cells(grid):
    """restrict is the one gate into the unknowns: a field of another domain
    object (its values would be read as this grid's, even when the grids
    are equal) and a field that is nonzero on the clamped ring (the unknowns
    would drop that value) raise instead of being read."""
    make = (lambda: ha.box_grid(9)) if grid == "box9" else (lambda: ha.ball_grid(13))
    dom = make()
    form = orbit_form(dom)
    u = form.expand(np.random.default_rng(14).standard_normal(form.count.size))
    with pytest.raises(ValueError, match="another domain"):
        form.restrict(ha.GridField(make(), u.values))
    ring = np.flatnonzero(dom.mask & ~dom.free_mask())
    u.values.flat[ring[0]] = 1.0
    with pytest.raises(ValueError, match="free cells"):
        form.restrict(u)


@pytest.mark.parametrize("grid", ["box9", "ball13"])
@pytest.mark.parametrize("a", [0.0, 1.0, 3.0])
def test_form_weight_is_the_orbit_sum(grid, a):
    dom = ha.box_grid(9) if grid == "box9" else ha.ball_grid(13)
    want = orbit_sums(dom, dom.singular_weight(a)[dom.free_mask()])
    assert np.array_equal(orbit_form(dom).weight(a), want)


def test_energy_rejects_a_out_of_range(box9m):
    nl = ha.cubic_model()
    form = orbit_form(box9m)
    with pytest.raises(ValueError):
        ha.energy(form, np.zeros(form.count.size), nl, 4.0)
    with pytest.raises(ValueError):
        ha.energy(form, np.zeros(form.count.size), nl, -0.5)


def test_grad_zero_at_origin_when_f_vanishes(box9m):
    nl = ha.cubic_model()
    form = orbit_form(box9m)
    g = ha.grad_energy(form, np.zeros(form.count.size), nl, 1.0)
    assert np.all(g == 0.0)


def test_grad_linear_model_exact(box9m):
    lam = 3.7
    nl = ha.NonlinearitySpec(
        f=lambda U: lam * U,
        bigF=lambda U: 0.5 * lam * U ** 2,
        fprime=lambda U: lam + 0.0 * U,
        theta=2.5, bigM=1.0, r0=1.0)
    form = orbit_form(box9m)
    y = np.random.default_rng(1).standard_normal(form.count.size)
    u = form.expand(y)
    free = box9m.free_mask()
    g = ha.grad_energy(form, y, nl, 1.0)
    from heisadams.operators import sublaplacian
    w = box9m.singular_weight(1.0)
    want = orbit_sums(box9m, (sublaplacian(sublaplacian(u)).values - lam * w * u.values)[free])
    assert np.allclose(g, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("grid", ["box9", "ball13"])
def test_grad_energy_is_the_stencil_twice_on_any_field(grid):
    """The form's gradient B^T (L u) equals L(L u) on the free cells for
    every field, also one with nonzero values on the clamped ring and
    outside the free cells."""
    from heisadams.operators import sublaplacian
    dom = ha.box_grid(9) if grid == "box9" else ha.ball_grid(13)
    u = ha.GridField(dom, np.random.default_rng(9).standard_normal(dom.shape))
    free = dom.free_mask()
    assert np.abs(u.values[~free]).min() > 0.0
    g = free_columns(dom).T @ sublaplacian(u).values.ravel()
    want = sublaplacian(sublaplacian(u)).values[free]
    assert g.shape == want.shape
    assert np.abs(g - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("model,a", [
    ("cubic", 0.0), ("cubic", 1.0), ("critical", 0.0), ("critical", 1.0),
])
def test_gradient_matches_central_differences(box9m, model, a):
    nl = ha.cubic_model() if model == "cubic" else ha.critical_model(2.0, 1.0)
    rng = np.random.default_rng(17)
    form = orbit_form(box9m)
    eps = 1e-5
    for _ in range(5):
        x = 0.4 * rng.standard_normal(form.count.size)
        v = rng.standard_normal(form.count.size)
        dd = float(ha.grad_energy(form, x, nl, a) @ v) * form.volume
        fd = (ha.energy(form, x + eps * v, nl, a)
              - ha.energy(form, x - eps * v, nl, a)) / (2 * eps)
        assert abs(dd - fd) <= 1e-6 * max(1.0, abs(fd))


def test_lambda_positive_and_oracle(box9m, lam9):
    """Inverse iteration against the dense generalized eigensolve at 9^3."""
    from scipy.linalg import eigh
    free = box9m.free_mask()
    nfree = int(free.sum())
    Amat = np.zeros((nfree, nfree))
    from heisadams.operators import sublaplacian
    for j in range(nfree):
        x = np.zeros(nfree)
        x[j] = 1.0
        u = np.zeros(box9m.shape)
        u[free] = x
        Amat[:, j] = sublaplacian(sublaplacian(ha.GridField(box9m, u))).values[free]
    for a, res in lam9.items():
        assert res.value > 0.0
        assert res.converged
        w = box9m.singular_weight(a)[free]
        lo = eigh(Amat, np.diag(w), eigvals_only=True, subset_by_index=[0, 0])[0]
        assert abs(res.value - lo) / lo <= 1e-8


def test_rayleigh_quotient_scale_invariance(box9m):
    rng = np.random.default_rng(5)
    u = random_free_field(box9m, rng)
    q1 = rayleigh_quotient(u, 1.0)
    q2 = rayleigh_quotient(ha.GridField(box9m, -7.3 * u.values), 1.0)
    assert q1 == pytest.approx(q2, rel=1e-12)
    with pytest.raises(ValueError):
        rayleigh_quotient(ha.zeros(box9m), 1.0)


def test_level_bound_values():
    assert ha.level_bound(0.0, A) == pytest.approx(0.5, rel=1e-15)
    assert ha.level_bound(2.0, 1.0) == pytest.approx(8.0 / 9.0, rel=1e-12)
    assert ha.level_bound(4.0 - 1e-9, 1.0) <= 1e-9
    with pytest.raises(ValueError):
        ha.level_bound(1.0, 0.0)
    with pytest.raises(ValueError):
        ha.level_bound(4.0, 1.0)


def test_validate_hypotheses_cubic(box9m, lam9):
    nl = ha.cubic_model()
    rep = ha.validate_hypotheses(nl, 1.0, lam9[1.0].value, u_max=8.0)
    names = {c.name: c for c in rep.checks}
    assert names["sign"].passed
    # theta F = u f exactly for the cubic: superquadraticity with equality
    assert names["superquadratic"].passed
    # 2F/u^2 = u^2/2 -> 0 near zero, below any positive lambda
    assert names["origin_gap"].passed
    assert names["primitive_bound"].passed  # M = 25 covers u_max = 8 < 4M
    assert rep.passed_geometry()
    assert rep.sampled_range == (-8.0, 8.0)


def test_validate_hypotheses_detects_bad_origin_gap(box9m):
    # f = lam*u with lam far above the Rayleigh floor violates the gap
    lam_big = 1e6
    nl = ha.NonlinearitySpec(
        f=lambda U: lam_big * U,
        bigF=lambda U: 0.5 * lam_big * U ** 2,
        fprime=lambda U: lam_big + 0.0 * U,
        theta=2.1, bigM=1e9, r0=1.0)
    rep = ha.validate_hypotheses(nl, 0.0, 100.0)
    names = {c.name: c for c in rep.checks}
    assert not names["origin_gap"].passed


def test_validate_hypotheses_critical_bound(box9m, lam9):
    nl = ha.critical_model(lam=5.0, alpha0=1.0)
    rep = ha.validate_hypotheses(nl, 1.0, lam9[1.0].value, u_max=6.0, m_estimate=8.0)
    names = {c.name: c for c in rep.checks}
    assert names["exp_lower_bound"].passed
    assert names["sign"].passed


def test_geometry_failure_for_zero_nonlinearity(box9m):
    free_nl = ha.NonlinearitySpec(
        f=lambda U: 0.0 * U, bigF=lambda U: 0.0 * U,
        fprime=lambda U: 0.0 * U, theta=4.0, bigM=1.0, r0=1.0)
    u, st = ha.mountain_pass_solve(free_nl, 0.0, box9m)
    assert st.geometry_failure
    assert not st.converged
    assert np.all(u.values == 0.0)
    with pytest.raises(GeometryFailure):
        form = orbit_form(box9m)
        _ray_max(form, form.restrict(default_bump(box9m)), free_nl, 0.0)


def test_geometry_failure_for_a_ray_falling_from_the_origin(box9m, lam9):
    """Above the Rayleigh quotient of a direction (71.1 for the bump at
    a = 1), the critical model makes J fall along its ray from the origin,
    and the ray search raises.  Just above lambda_1 (57.5) the bump's ray
    has a maximum, but the descent steps turn toward the first eigenvector
    until one does not; the solve reports that as a geometry failure."""
    form = orbit_form(box9m)
    seed = form.restrict(default_bump(box9m))
    with pytest.raises(GeometryFailure, match="falls along the ray"):
        _ray_max(form, seed, ha.critical_model(80.0), 1.0)
    u, st = ha.mountain_pass_solve(ha.critical_model(1.01 * lam9[1.0].value), 1.0, box9m)
    assert st.geometry_failure and not st.converged
    assert "falls along the ray" in st.message
    assert np.all(u.values == 0.0)


def test_geometry_failure_after_the_seed_ray(box9m, monkeypatch):
    """A ray search that fails after the seed's (a descent step or a Newton
    level) ends the solve as a geometry failure too, not as an exception."""
    import heisadams.varsolve as vs
    calls = []

    def fail_after_the_seed(*args):
        calls.append(args)
        if len(calls) > 1:
            raise GeometryFailure("injected")
        return ray_max(*args)

    ray_max = vs._ray_max
    monkeypatch.setattr(vs, "_ray_max", fail_after_the_seed)
    u, st = ha.mountain_pass_solve(ha.cubic_model(), 1.0, box9m)
    assert len(calls) == 2
    assert st.geometry_failure and not st.converged and st.message == "injected"
    assert np.all(u.values == 0.0)


def test_ray_energy_goes_negative(box9m):
    """J(t u0) is eventually negative and decreasing along the ray."""
    nl = ha.cubic_model()
    u0 = default_bump(box9m)
    u0 = ha.GridField(box9m, u0.values / np.sqrt(dirichlet_energy(u0)))
    ts = [2.0 ** k for k in range(0, 14)]
    js = [field_energy(ha.GridField(box9m, t * u0.values), nl, 1.0) for t in ts]
    assert any(j < 0 for j in js)
    kneg = next(i for i, j in enumerate(js) if j < 0)
    assert all(js[i + 1] < js[i] for i in range(kneg, len(js) - 1))


@pytest.mark.parametrize("model", ["cubic", "critical"])
def test_ray_max_is_the_nehari_point_of_the_ray(box9m, lam9, model):
    """_ray_max lands on the Nehari manifold ||L u||^2 = int f(u) u / rho^a,
    at the maximum of J along the ray, whatever the seed's scale."""
    a = 1.0
    nl = ha.cubic_model() if model == "cubic" else ha.critical_model(0.9 * lam9[a].value)
    form = orbit_form(box9m)
    seed = form.restrict(default_bump(box9m))
    x = _ray_max(form, seed, nl, a)
    u = form.expand(x)
    norm2 = dirichlet_energy(u)
    uf = ha.integrate_weighted(ha.GridField(box9m, nl.f(u.values) * u.values), a)
    assert abs(norm2 - uf) <= 1e-10 * norm2
    J = ha.energy(form, x, nl, a)
    assert J > ha.energy(form, 0.99 * x, nl, a) and J > ha.energy(form, 1.01 * x, nl, a)
    x7 = _ray_max(form, 7.0 * seed, nl, a)
    assert np.abs(x7 - x).max() <= 1e-12 * np.abs(x).max()


def test_ray_search_stops_at_its_root(monkeypatch):
    """A Newton step on t within rounding of t ends the ray search, even when
    phi'(t) is exactly 0 and so makes t the bracket's upper end.  Bisecting
    from t = 0 there instead takes 52-57 evaluations of f on three of this
    solve's rays; each search takes at most 15 and lands on the Nehari
    manifold of its ray."""
    import dataclasses
    import heisadams.varsolve as vs
    nl, a = ha.cubic_model(), 3.0
    evals = []

    def counted_f(U):
        evals.append(1)
        return nl.f(U)

    searches = []

    def counted_ray_max(form, x, nl_, a_):
        before = len(evals)
        y = ray_max(form, x, nl_, a_)
        searches.append((len(evals) - before, form, x, y))
        return y

    ray_max = vs._ray_max
    monkeypatch.setattr(vs, "_ray_max", counted_ray_max)
    _, st = ha.mountain_pass_solve(dataclasses.replace(nl, f=counted_f), a, ha.box_grid(13))
    assert st.converged and len(searches) >= 5
    for n_f, form, x, y in searches:
        assert n_f <= 15
        t = float(y @ x) / float(x @ x)
        unorm2 = float(x @ form.A(x)) * form.volume
        d1 = t * unorm2 - form.volume * float((form.weight(a) * x) @ nl.f(y))
        assert abs(d1) <= 1e-10 * t * unorm2


def test_mountain_pass_geometry_positive_ring(box9m, lam9):
    """J > 0 on a small sphere in the norm: sampled over random directions."""
    nl = ha.cubic_model()
    rng = np.random.default_rng(23)
    rho_star = 0.1
    for _ in range(10):
        v = random_free_field(box9m, rng)
        v = ha.GridField(box9m, v.values * (rho_star / np.sqrt(dirichlet_energy(v))))
        assert field_energy(v, nl, 1.0) > 0.0


def test_mountain_pass_cubic_converges(box9m, lam9):
    nl = ha.cubic_model()
    u, st = ha.mountain_pass_solve(nl, 1.0, box9m, ha.SolveOptions(tol=1e-6))
    unorm = np.sqrt(dirichlet_energy(u))
    assert st.converged
    assert unorm > 1e-6
    assert st.gradResidual <= 1e-6 * max(1.0, unorm)
    assert field_energy(u, nl, 1.0) > 0.0
    levels = [h[1] for h in st.history]
    assert all(levels[i + 1] <= levels[i] + 1e-12 * max(1, abs(levels[i]))
               for i in range(len(levels) - 1))
    # weighted Poincare-type inequality at the solution
    assert rayleigh_quotient(u, 1.0) >= lam9[1.0].value * (1 - 1e-8)
    # the first iterate is the maximum of J along the seed ray
    form = orbit_form(box9m)
    seed = _ray_max(form, form.restrict(default_bump(box9m)), nl, 1.0)
    assert st.history[0][1] == pytest.approx(ha.energy(form, seed, nl, 1.0), rel=1e-12)
    # Newton alone stagnates from the seed ray's Nehari point, so descent must
    # take a step: one history row per descent iterate, two rows per step
    assert len(st.history) - st.newton_iterations >= 2
    assert st.inner_unconverged == 0


def test_capped_descent_solves_are_counted(box9m, monkeypatch):
    """A descent CG stopped at its iteration cap is counted in
    inner_unconverged, not dropped."""
    import heisadams.varsolve as vs
    monkeypatch.setattr(vs, "_DESCENT_CG_MAX_ITER", 1)
    _, st = ha.mountain_pass_solve(ha.cubic_model(), 1.0, box9m, ha.SolveOptions(tol=1e-6))
    descents = len(st.history) - st.newton_iterations
    assert st.inner_unconverged >= descents - 1 >= 1


def test_inner_krylov_iterations_are_counted(box9m, monkeypatch):
    """descent_cg_iterations and minres_iterations sum the iterations that
    scipy's cg and minres report through their callbacks."""
    import heisadams.varsolve as vs
    seen = {"cg": 0, "minres": 0}

    def counting(name, solver):
        def solve(*args, callback, **kw):
            def count(xk):
                seen[name] += 1
                callback(xk)
            return solver(*args, callback=count, **kw)
        return solve

    monkeypatch.setattr(vs, "cg", counting("cg", vs.cg))
    monkeypatch.setattr(vs, "minres", counting("minres", vs.minres))
    _, st = ha.mountain_pass_solve(ha.cubic_model(), 1.0, box9m, ha.SolveOptions(tol=1e-6))
    assert st.converged and st.newton_iterations > 0
    assert st.descent_cg_iterations == seen["cg"] > 0
    assert st.minres_iterations == seen["minres"] > 0


@pytest.mark.parametrize("a,lam1,level", [
    (1.0, 55.666554989838424, 0.22921662895344783),
    (3.0, 5.171160973290862, 0.0890700467090614),
])
def test_newton_forcing_terms_box17_critical(a, lam1, level):
    """Each Newton step solves its MINRES system only as tightly as the
    Eisenstat-Walker forcing term asks, so the solve takes at most 30 MINRES
    iterations (49 and 48 with every step at 1e-10) and reaches the same
    level.  lambda_1 is shift-invert eigsh's; the levels are those of the
    solves at 1e-10."""
    dom = ha.box_grid(17)
    opts = ha.SolveOptions()
    u, st = ha.mountain_pass_solve(ha.critical_model(lam=0.9 * lam1), a, dom, opts)
    assert st.converged
    assert st.gradResidual <= opts.tol * max(1.0, np.sqrt(dirichlet_energy(u)))
    assert st.levelEstimate == pytest.approx(level, rel=1e-12)
    assert st.minres_iterations <= 30


def test_a_failed_inexact_newton_step_is_retried_at_1e_10(box9m, monkeypatch):
    """An inexact step that does not lower the residual is solved again at
    the middle rung max(1e-10, 1e-3 eta), then at 1e-10, before Newton may
    stagnate; here the first two solves, at the forcing term 0.1 and at
    1e-4, return zero steps."""
    import heisadams.varsolve as vs
    rtols = []

    def zero_first_steps(A, b, **kw):
        rtols.append(kw["rtol"])
        return (np.zeros_like(b), 0) if len(rtols) <= 2 else minres(A, b, **kw)

    minres = vs.minres
    monkeypatch.setattr(vs, "minres", zero_first_steps)
    _, st = ha.mountain_pass_solve(ha.cubic_model(), 1.0, box9m, ha.SolveOptions(tol=1e-6))
    assert rtols[:3] == [0.1, pytest.approx(1e-4, rel=1e-12), 1e-10]
    assert st.converged and st.message == ""
    assert st.newton_iterations == len(rtols) - 2


def test_a_non_finite_minres_step_is_retried_at_the_next_rung(box9m, monkeypatch):
    """A MINRES solve that returns non-finite entries with a nonzero info is
    not tried as a step: it is solved again at the next rung, and the solve
    reaches the level it reaches unpatched."""
    import heisadams.varsolve as vs
    _, want = ha.mountain_pass_solve(ha.cubic_model(), 1.0, box9m, ha.SolveOptions(tol=1e-6))
    rtols = []

    def nan_first_step(A, b, **kw):
        rtols.append(kw["rtol"])
        return (np.full_like(b, np.nan), 1) if len(rtols) == 1 else minres(A, b, **kw)

    minres = vs.minres
    monkeypatch.setattr(vs, "minres", nan_first_step)
    _, st = ha.mountain_pass_solve(ha.cubic_model(), 1.0, box9m, ha.SolveOptions(tol=1e-6))
    assert rtols[:2] == [0.1, pytest.approx(1e-4, rel=1e-12)]
    assert st.converged and st.message == ""
    assert st.newton_iterations == len(rtols) - 1 and st.inner_unconverged >= 1
    assert st.levelEstimate == pytest.approx(want.levelEstimate, rel=1e-12)


def test_zero_warm_start_is_a_geometry_failure(box9m):
    """A warm start with no free-cell mass has no ray to search."""
    zero = ha.GridField(box9m, np.zeros(box9m.shape))
    u, st = ha.mountain_pass_solve(ha.cubic_model(), 1.0, box9m, warm_start=zero)
    assert st.geometry_failure and not st.converged
    assert st.message == "seed direction has zero norm"
    assert np.all(u.values == 0.0)


def test_mountain_pass_rejects_unclamped_warm_start(box9m):
    """The search moves only the free cells, so a warm start that is nonzero
    on the clamped ring would survive into a "converged" non-solution."""
    seed = default_bump(box9m)
    ring = box9m.mask & ~box9m.free_mask()
    bad = ha.GridField(box9m, seed.values + 0.05 * ring)
    with pytest.raises(ValueError, match="free cells"):
        ha.mountain_pass_solve(ha.cubic_model(), 1.0, box9m, warm_start=bad)


def test_mountain_pass_rejects_warm_start_from_another_domain(box9m):
    """A warm start's values are read cell by cell, so one from another grid
    (here extent 1 on extent 2) would seed a different problem and report
    the other grid's level as converged."""
    wide = ha.box_grid(9, extent=2.0)
    with pytest.raises(ValueError, match="another domain"):
        ha.mountain_pass_solve(ha.cubic_model(), 1.0, wide, warm_start=default_bump(box9m))
    # equal grids built twice are still two domains
    with pytest.raises(ValueError, match="another domain"):
        ha.mountain_pass_solve(ha.cubic_model(), 1.0, ha.box_grid(9),
                               warm_start=default_bump(box9m))


@pytest.mark.parametrize("make_grid,n,model,a", [
    pytest.param(ha.box_grid, 9, "cubic", 1.0, id="cubic-1.0"),
    pytest.param(ha.box_grid, 9, "critical", 3.0, id="critical-3.0"),
    # from the default bump on a ball, the ray search meets a steep
    # exponential, where unguarded Newton steps creep toward the root
    pytest.param(ha.ball_grid, 13, "critical", 1.0, id="ball13-critical-1.0"),
    pytest.param(ha.ball_grid, 9, "critical", 3.0, id="ball9-critical-3.0"),
])
def test_mountain_pass_level_is_the_critical_value(make_grid, n, model, a):
    """The reported level is J(u) at the least-energy solution, not a bound above it."""
    dom = make_grid(n)
    if model == "cubic":
        nl = ha.cubic_model()
    else:
        nl = ha.critical_model(lam=0.9 * ha.lambda_estimate(dom, a, tol=1e-10).value)
    u, st = ha.mountain_pass_solve(nl, a, dom, ha.SolveOptions(tol=1e-6))
    assert st.converged
    J = field_energy(u, nl, a)
    assert st.levelEstimate == pytest.approx(J, rel=1e-8)
    assert st.levelEstimate == st.history[-1][1]


def test_primitive_matches_quadrature_of_f(box9m):
    """bigF(., u) agrees with the numerical integral of f from 0 to u."""
    from scipy.integrate import quad
    for nl in (ha.cubic_model(), ha.critical_model(1.5, 0.7)):
        for u0 in (-2.0, -0.5, 0.3, 1.7):
            got = float(nl.bigF(np.array([u0]))[0])
            want, _ = quad(lambda s: float(nl.f(np.array([s]))[0]), 0.0, u0)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert float(nl.bigF(np.array([0.0]))[0]) == 0.0


def test_continuation_schedule_and_diagnostics():
    dom = ha.box_grid(9)
    nl = ha.cubic_model()
    steps = ha.critical_continuation(nl, 4, dom, ha.SolveOptions(tol=1e-6))
    assert [s.n for s in steps] == [1, 2, 3, 4]
    assert steps[0].a == 3.0
    assert np.allclose([s.a for s in steps], [4.0 - 1.0 / n for n in (1, 2, 3, 4)])
    assert all(s.state.converged for s in steps)
    assert np.isnan(steps[0].diff_from_previous)
    assert all(np.isfinite(s.diff_from_previous) for s in steps[1:])
    assert all(np.isfinite(s.weighted_uf) and np.isfinite(s.weighted_F) for s in steps)
    # the superlinearity integrals shrink as the potential steepens
    ufs = [s.weighted_uf for s in steps]
    assert ufs[-1] < ufs[0]


def test_continuation_diagnostics_match_the_stencil_oracles():
    """Each stage's norm, drift and weighted integrals, read off the orbit
    form, agree with dirichlet_energy and integrate_weighted on the fields."""
    dom = ha.box_grid(9)
    nl = ha.cubic_model()
    steps = ha.critical_continuation(nl, 3, dom)
    assert len(steps) == 3
    prev = None
    for s in steps:
        u = s.solution
        assert s.norm == pytest.approx(np.sqrt(dirichlet_energy(u)), rel=1e-13)
        if prev is not None:
            assert s.diff_from_previous == pytest.approx(
                np.sqrt(dirichlet_energy(ha.GridField(dom, u.values - prev.values))), rel=1e-13)
        assert s.weighted_uf == pytest.approx(
            ha.integrate_weighted(ha.GridField(dom, nl.f(u.values) * u.values), s.a), rel=1e-13)
        assert s.weighted_F == pytest.approx(
            ha.integrate_weighted(ha.GridField(dom, nl.bigF(u.values)), s.a), rel=1e-13)
        prev = u


def test_continuation_runs_no_stencil_sweep_once_the_form_is_built(monkeypatch):
    """The diagnostics of every stage read orbit_form: once it is built, a
    3-stage run sweeps the stencil no more."""
    dom = ha.box_grid(9)
    orbit_form(dom)
    calls = count_sweeps(monkeypatch)
    steps = ha.critical_continuation(ha.cubic_model(), 3, dom)
    assert len(steps) == 3 and all(s.state.converged for s in steps)
    assert calls == []


def test_continuation_a_sequence_to_eight():
    want = [3, 3.5, 4 - 1 / 3, 3.75, 3.8, 4 - 1 / 6, 4 - 1 / 7, 3.875]
    got = [4.0 - 1.0 / n for n in range(1, 9)]
    assert np.allclose(got, want)


def test_continuation_rejects_bad_nmax(box9m):
    with pytest.raises(ValueError):
        ha.critical_continuation(ha.cubic_model(), 0, box9m)


@pytest.mark.parametrize("drifts, want", [
    ([np.nan, 3.0, 2.0, 1.0], True),
    ([np.nan, 1.0, 4.0, 3.0, 2.0], True),     # only the last three count
    ([np.nan, 3.0, 1.0, 2.0], False),
    ([np.nan, 3.0, 2.0, 2.0], False),         # a repeated drift does not decrease
    ([np.nan, 4.0, 3.0, 2.0, 2.5], False),
    ([np.nan, 2.0, 1.0], False),              # fewer than three drifts
])
def test_tail_differences_decreasing(drifts, want):
    """The first stage's NaN drift is skipped, and the verdict reads the last
    three finite drifts."""
    steps = [ContinuationStep(n=n, a=4.0 - 1.0 / n, solution=None, state=None, norm=1.0,
                              diff_from_previous=d, weighted_uf=0.0, weighted_F=0.0)
             for n, d in enumerate(drifts, 1)]
    assert ha.tail_differences_decreasing(steps) is want


# lambda_estimate on box 13: value and sublaplacian applies of the
# unpreconditioned inverse iteration it replaced (each L^2 apply was two
# stencil sweeps), and LOBPCG iterations of the current estimate
_LAMBDA_BOX13_UNPRECONDITIONED = {
    0.0: (120.51051478127278, 11, 12698),
    1.0: (56.23572329595739, 11, 13386),
    3.0: (5.436961463070182, 10, 8218),
}


def _count_form_applies(monkeypatch, part, calls, unit=1):
    """Make the orbit form that varsolve builds append unit to calls at each
    apply of its operator part ("A" or "M")."""
    import dataclasses
    from scipy.sparse.linalg import LinearOperator
    import heisadams.varsolve as vs

    def counted_form(domain):
        form = orbit_form(domain)
        op = getattr(form, part)

        def apply(x):
            calls.append(unit)
            return op(x)
        return dataclasses.replace(
            form, **{part: LinearOperator(op.shape, matvec=apply, dtype=float)})

    monkeypatch.setattr(vs, "orbit_form", counted_form)


@pytest.mark.parametrize("a", sorted(_LAMBDA_BOX13_UNPRECONDITIONED))
def test_lambda_preconditioned_same_value_tenth_of_applies(monkeypatch, a):
    """Applies counted in the parent's units: every stencil sweep is one
    (building the orbit form sweeps none), every product with the orbit
    form's operator C^T C is two."""
    calls = count_sweeps(monkeypatch)
    _count_form_applies(monkeypatch, "A", calls, unit=2)
    value, iterations, applies = _LAMBDA_BOX13_UNPRECONDITIONED[a]
    res = ha.lambda_estimate(ha.box_grid(13), a, tol=1e-10)
    assert res.converged
    assert res.iterations == iterations
    assert abs(res.value - value) <= 1e-12 * value
    assert calls.count(2) >= iterations
    assert sum(calls) <= applies / 10


def test_lambda_iteration_cap_is_not_converged(box9m, monkeypatch):
    import heisadams.varsolve as vs
    with monkeypatch.context() as patch:
        patch.setattr(vs, "_LAMBDA_MAX_ITERS", 1)
        res = ha.lambda_estimate(box9m, 1.0)
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(res.value)
    assert ha.lambda_estimate(box9m, 1.0).converged


def test_lambda_falls_back_to_two_columns_on_a_dependent_ritz_basis(box9m, monkeypatch):
    """A Ritz basis whose Gram matrix does not factor (here one forced
    LinAlgError on span{x, M r, p}) drops p for that step; the iteration
    still reaches the unpatched lambda."""
    import heisadams.varsolve as vs
    want = ha.lambda_estimate(box9m, 1.0).value
    raised = []

    def fail_once_on_three_columns(S, AS, w):
        if S.shape[1] == 3 and not raised:
            raised.append(S.shape)
            raise np.linalg.LinAlgError("injected")
        return ritz(S, AS, w)

    ritz = vs._smallest_ritz_vector
    monkeypatch.setattr(vs, "_smallest_ritz_vector", fail_once_on_three_columns)
    res = ha.lambda_estimate(box9m, 1.0)
    assert raised and res.converged
    assert res.value == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("grid,ball,a", [(13, False, 0.0), (13, False, 1.0),
                                         (13, False, 3.0), (17, True, 1.0),
                                         (7, False, 1.0)])
def test_lambda_matches_shift_invert_eigsh(grid, ball, a):
    """Oracle: the smallest eigenvalue of (B^T B, diag(w_a)) by shift-invert
    Lanczos on the assembled pencil.  Box 7 is the CLI config test's grid."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh
    dom = ha.ball_grid(grid) if ball else ha.box_grid(grid)
    B = free_columns(dom)
    K = (B.T @ B).tocsc()
    W = sp.diags(dom.singular_weight(a)[dom.free_mask()]).tocsc()
    want = eigsh(K, k=1, M=W, sigma=0.0, which="LM", v0=np.ones(K.shape[0]),
                 return_eigenvectors=False)[0]
    res = ha.lambda_estimate(dom, a, tol=1e-10)
    assert res.converged
    assert abs(res.value - want) <= 1e-10 * want


@pytest.mark.parametrize("a", [1.0, 3.0])
def test_lambda_box17_at_most_30_preconditioner_applies(monkeypatch, a):
    calls = []
    _count_form_applies(monkeypatch, "M", calls)
    res = ha.lambda_estimate(ha.box_grid(17), a, tol=1e-10)
    assert res.converged
    assert len(calls) == res.iterations <= 30


def test_saddle_and_lambda_reject_a_domain_that_is_not_invariant():
    """Both solve on the invariant fields alone, so a domain whose free cells
    the symmetry group of L does not map to itself raises; there is no
    unreduced path."""
    holed = holed_ball17()
    with pytest.raises(ValueError, match="not invariant"):
        ha.lambda_estimate(holed, 1.0)
    with pytest.raises(ValueError, match="not invariant"):
        ha.mountain_pass_solve(ha.cubic_model(), 1.0, holed)


def test_mountain_pass_rejects_a_warm_start_that_is_not_invariant(box9m):
    """The solve would otherwise run from the invariant part of the seed and
    report it as the solution from that seed; it raises instead of projecting."""
    seed = default_bump(box9m)
    cell = (2, 3, 5)
    assert box9m.free_mask()[cell]
    seed.values[cell] *= 1.01
    with pytest.raises(ValueError, match="not invariant"):
        ha.mountain_pass_solve(ha.cubic_model(), 1.0, box9m, warm_start=seed)


def test_mountain_pass_box33_cubic_pin():
    """heisadams solve --nl cubic --a 1 --grid 33: the level of the unreduced
    solve over all 29,791 free cells, reached in 3 Newton steps."""
    u, st = ha.mountain_pass_solve(ha.cubic_model(), 1.0, ha.box_grid(33))
    assert st.converged
    assert st.newton_iterations == 3
    assert st.levelEstimate == pytest.approx(1036.0887288921874, rel=1e-10)
    assert st.minres_iterations <= 40
