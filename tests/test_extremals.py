import numpy as np
import pytest

import heisadams as ha
from heisadams.extremals import probe_to_csv
from heisadams.group import Q
from heisadams.operators import orbit_form

from conftest import count_sweeps
from oracles import dirichlet_energy, free_columns

A = 32.0 / 9.0


@pytest.fixture(scope="module")
def ball21():
    return ha.ball_grid(21)


@pytest.fixture(scope="module")
def cap21(ball21):
    return ha.capacity_profile(0.5, ball21, tol=1e-8)


def test_capacity_constraints(cap21, ball21):
    u = cap21.field.values
    rho = ball21.gauge()
    assert np.all(u[rho <= 0.5] == 1.0)
    assert np.all(u[~ball21.mask] == 0.0)
    assert np.all(u[ball21.mask & ~ball21.free_mask() & (rho > 0.5)] == 0.0)


def test_capacity_reports(cap21):
    assert cap21.energy > 0
    assert cap21.bound == pytest.approx(A / (4 * np.log(2.0)), rel=1e-12)
    assert cap21.slack == pytest.approx(cap21.energy / cap21.bound - 1.0, rel=1e-12)
    assert cap21.cg_residual <= 1e-7
    assert cap21.plateau_cells > 0


def test_capacity_is_a_minimizer(cap21, ball21):
    """Any perturbation on free cells increases the energy (first-order
    stationarity of the constrained quadratic)."""
    rng = np.random.default_rng(0)
    free = ball21.free_mask() & (cap21.field.values != 1.0)
    for _ in range(3):
        d = np.zeros(ball21.shape)
        d[free] = rng.standard_normal(int(free.sum()))
        pert = ha.GridField(ball21, cap21.field.values + 1e-4 * d)
        assert dirichlet_energy(pert) >= cap21.energy - 1e-8 * cap21.energy


def test_capacity_symmetries(cap21, ball21):
    """The minimizer inherits the grid symmetries: z-plane quarter rotation
    (x,y) -> (-y,x) and the (y,t) -> (-y,-t) flip.  It is NOT gauge-radial;
    the within-gauge-shell spread is large because the operator weights the
    z and t directions differently."""
    u = cap21.field.values
    rot = np.rot90(u, k=1, axes=(0, 1))    # (x,y) -> (-y, x)
    assert np.abs(u - rot).max() <= 1e-6
    flip = u[:, ::-1, ::-1]
    assert np.abs(u - flip).max() <= 1e-6

    rho = ball21.gauge()
    spread = 0.0
    rng_val = u[ball21.mask].max() - u[ball21.mask].min()
    for lo in np.arange(0.55, 0.95, 0.05):
        sel = ball21.mask & (rho >= lo) & (rho < lo + 0.05)
        if sel.sum() > 1:
            spread = max(spread, float(u[sel].max() - u[sel].min()))
    # document the non-radiality: spread is a sizable fraction of the range
    assert spread / rng_val > 0.05


def test_capacity_bound_diverges_as_ell_to_one(ball21):
    near = ha.capacity_profile(0.9, ball21, tol=1e-6)
    assert near.bound > ha.capacity_profile(0.5, ball21, tol=1e-6).bound
    assert np.isfinite(near.energy)


def test_capacity_refinement_trend():
    """Energy increases under refinement (convergence from below): the
    discrete operator, not the feasible set, dominates the h-dependence."""
    energies = [ha.capacity_profile(0.5, ha.ball_grid(n), tol=1e-8).energy
                for n in (13, 21, 29)]
    assert energies[0] < energies[1] < energies[2]


def test_capacity_rejects_bad_ell(ball21):
    for ell in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            ha.capacity_profile(ell, ball21)


def test_capacity_rejects_plateau_on_the_clamped_ring():
    """ell = 0.9 on ball 17 puts cells of the clamped ring (gauge 0.896 and
    up) in the plateau, where u = 1 would break the boundary condition."""
    with pytest.raises(ValueError, match="reaches the clamped ring"):
        ha.capacity_profile(0.9, ha.ball_grid(17))


def test_capacity_rejects_unresolved_plateau():
    # an even cell count has no cell at the origin, so a tiny inner ball
    # contains no cell center at all
    dom = ha.ball_grid(8)
    with pytest.raises(ValueError, match="unresolved"):
        ha.capacity_profile(0.01, dom)


def test_capacity_underresolved_plateau_falls_back_to_origin_cell(ball21):
    # ell below one cell but with the origin cell present: plateau is the
    # single innermost cell and the solve still runs
    prof = ha.capacity_profile(0.02, ball21, tol=1e-6)
    assert prof.plateau_cells == 1
    assert prof.resolved_rings == 0
    assert prof.energy > 0


def test_adams_plateau_amplitude_exact(ball21, cap21):
    af = ha.adams_function(cap21)
    want = np.sqrt(Q * np.log(2.0) / A)
    assert af.plateau == want  # pure arithmetic, bitwise
    rho = ball21.gauge()
    assert np.all(af.field.values[rho <= 0.5] == want)
    assert np.all(af.field.values[rho >= 1.0] == 0.0)
    # r = R/2 gives sqrt(4 ln2 / A) = sqrt(9 ln2 / 8) = 0.8830575...
    assert want == pytest.approx(np.sqrt(9 * np.log(2) / 8), rel=1e-15)
    assert want == pytest.approx(0.8830575, abs=1e-6)


def test_adams_amplitude_vanishes_as_r_to_R(ball21, cap21):
    """The amplitude sqrt(Q log(1/ell) / A) falls to 0 as ell = r/R -> 1:
    at ell = 0.9, the largest plateau ball 21 resolves off its clamped ring,
    it is under 0.4 of the ell = 1/2 amplitude, and it scales the field."""
    near = ha.capacity_profile(0.9, ball21, tol=1e-6)
    af = ha.adams_function(near)
    assert af.plateau == np.sqrt(Q * np.log(1.0 / 0.9) / A)
    assert af.plateau < 0.4 * ha.adams_function(cap21).plateau
    assert np.array_equal(af.field.values, af.plateau * near.field.values)


def test_adams_norm_scaling(ball21, cap21):
    af = ha.adams_function(cap21)
    assert af.normEstimate == pytest.approx(
        af.plateau * np.sqrt(cap21.energy), rel=1e-12)


def test_annulus_volume_oracle(ball21):
    """The in-ball cells with gauge >= 1/2 fill the annulus volume
    (pi^2/2)(1 - 2^-4) to within 2%."""
    rho = ball21.gauge()
    ann = ball21.mask & (rho >= 0.5)
    vol = float(ann.sum()) * ball21.cell_volume
    assert vol == pytest.approx((np.pi ** 2 / 2) * (1 - 2.0 ** -4), rel=0.02)


def test_singular_functional_trivial_values(ball21):
    zero = ha.zeros(ball21)
    # u = 0, a = 0: the functional is the domain volume
    v0 = ha.singular_mt_functional(ha.GridField(ball21, np.where(ball21.mask, 0.0, 0.0)), 1.0, 0.0)
    assert v0 == pytest.approx(ball21.domain_volume(), rel=1e-12)
    # u = 0, a = 2 on the unit ball: the polar value pi^2
    v2 = ha.singular_mt_functional(zero, 1.0, 2.0)
    assert v2 == pytest.approx(np.pi ** 2, rel=0.02)
    with pytest.raises(ValueError):
        ha.singular_mt_functional(zero, 1.0, 4.0)
    with pytest.raises(ValueError):
        ha.singular_mt_functional(zero, -1.0, 0.0)


def test_singular_functional_finite_on_adams(ball21, cap21):
    af = ha.adams_function(ha.capacity_profile(0.25, ball21, tol=1e-7))
    val = ha.singular_mt_functional(af.field, A, 0.0)
    assert np.isfinite(val) and val > ball21.domain_volume()


def test_probe_monotone_in_beta_and_csv(ball21, tmp_path):
    rows = ha.sharpness_probe(0.0, [0.5, 1.0, 2.0], [2, 4], grid=ball21, tol=1e-7)
    byk = {}
    for r in rows:
        byk.setdefault(r.k, []).append((r.beta, r.value))
    for k, col in byk.items():
        col.sort()
        vals = [v for _, v in col]
        assert vals[0] < vals[1] < vals[2]  # monotone in beta
    # beta = 0 column equals the weighted volume regardless of k
    rows0 = ha.sharpness_probe(2.0, [0.0], [2, 3], grid=ball21, tol=1e-7)
    assert rows0[0].value == pytest.approx(rows0[1].value, rel=1e-12)
    assert rows0[0].value == pytest.approx(np.pi ** 2, rel=0.02)

    p = tmp_path / "probe.csv"
    probe_to_csv(rows, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "k,beta,a,value,normEstimate"
    assert len(lines) == len(rows) + 1


def test_probe_threshold_arithmetic():
    # the singular threshold at a = 2 is half the sharp constant
    assert A * (1 - 2.0 / 4.0) == pytest.approx(16.0 / 9.0, rel=1e-15)
    assert A * (1 - 2.0 / 4.0) == pytest.approx(1.7778, abs=5e-5)


# capacity profiles on ball 17, k = 2..16: CG iterations preconditioned by the
# incomplete LU of orbit_form's G (Jacobi took 135-175), and the energies of
# the unreduced solve on B^T B
_CAPACITY_BALL17 = {
    2: (14, 275.4674562080536), 3: (13, 75.70118383386544), 4: (12, 49.69618618488979),
    5: (12, 32.94887092642909), 6: (12, 32.94887092642909), 7: (12, 26.971341713397713),
    8: (12, 26.971341713397713), **{k: (11, 17.061299961570732) for k in range(9, 17)},
}


def test_capacity_iterations_and_energies_unchanged():
    ball = ha.ball_grid(17)
    for k, (iters, energy) in _CAPACITY_BALL17.items():
        prof = ha.capacity_profile(1.0 / k, ball)
        assert prof.cg_iterations == iters
        assert prof.energy == pytest.approx(energy, rel=1e-13)
        assert prof.converged


def _unreduced_capacity_form(ball, plateau):
    """Bc^T Bc on the free cells off the plateau, Bc the columns of B there,
    and the capacity right-hand side: the solve without the symmetry."""
    from scipy.sparse.linalg import LinearOperator
    from heisadams.operators import sublaplacian
    free = ball.free_mask()
    off = ~plateau[free]
    B = free_columns(ball)
    Bc = B[:, np.flatnonzero(off)]
    A = LinearOperator((Bc.shape[1],) * 2, matvec=lambda x: Bc.T @ (Bc @ x), dtype=float)
    Lu = sublaplacian(ha.GridField(ball, np.where(plateau, 1.0, 0.0))).values.ravel()
    return A, -(B.T @ Lu)[off]


def test_capacity_ball49_scale_pin():
    """Ball 49, affordable with the reduced solve, against the converged
    energy: the pin is a solve at tol = 1e-11 (solves at 1e-10 and 1e-12
    agree with it to 1e-15), and the default tol = 1e-8 lies 3.8e-14 from it."""
    prof = ha.capacity_profile(0.5, ha.ball_grid(49))
    assert prof.converged
    assert prof.energy == pytest.approx(364.83059839273983, rel=1e-12)


def test_capacity_preconditioned_cg_matches_plain_cg():
    """The incomplete-LU preconditioner and the reduction to invariant fields
    change the iteration count and nothing else: the same minimizer and
    energy as plain CG on all the free cells off the plateau, in fewer steps."""
    from conftest import counted_cg
    ball = ha.ball_grid(17)
    free = ball.free_mask()
    rho = ball.gauge()
    for k in (2, 4, 8, 16):
        prof = ha.capacity_profile(1.0 / k, ball)
        plateau = (rho <= 1.0 / k) & ball.mask
        free_dofs = free & ~plateau
        u = np.where(plateau, 1.0, 0.0)
        A, rhs = _unreduced_capacity_form(ball, plateau)
        x, iters, res = counted_cg(A, rhs, 1e-8, 20000)
        assert res <= 1e-8
        u[free_dofs] = x
        plain = ha.GridField(ball, u)
        assert prof.energy == pytest.approx(dirichlet_energy(plain), rel=1e-13)
        assert np.abs(prof.field.values - plain.values).max() <= 1e-6
        assert prof.cg_iterations <= 0.72 * iters


def test_cg_residual_is_the_true_residual(cap21, ball21):
    """cg_residual is ||b - A x|| / ||b|| of the returned field, recomputed
    here, not the residual the CG updates by recursion."""
    plateau = (ball21.gauge() <= 0.5) & ball21.mask
    A, b = _unreduced_capacity_form(ball21, plateau)
    free_dofs = ball21.free_mask() & ~plateau
    want = np.linalg.norm(b - A @ cap21.field.values[free_dofs]) / np.linalg.norm(b)
    assert cap21.cg_residual == pytest.approx(want, rel=1e-12)


def _counted_cg(monkeypatch):
    """A list that gains the keyword arguments of each extremals.cg call."""
    import heisadams.extremals as ext
    calls = []
    plain = ext.cg

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return plain(*args, **kwargs)

    monkeypatch.setattr(ext, "cg", counted)
    return calls


def test_capacity_preconditioner_is_symmetric_positive_definite(monkeypatch):
    """The capacity CG's preconditioner on ball 17 at ell = 1/2, taken from
    its cg call, is symmetric and positive on random vectors: the block of
    G~^-1 (G~^-T r / count) is, for the incomplete factor G~, where the
    block of G~^-1 G~^-1 (r / count) would not be."""
    calls = _counted_cg(monkeypatch)
    assert ha.capacity_profile(0.5, ha.ball_grid(17)).converged
    M = calls[0]["M"]
    rng = np.random.default_rng(21)
    X = rng.standard_normal((M.shape[0], 4))
    MX = np.column_stack([M @ x for x in X.T])
    gram = X.T @ MX
    assert np.abs(gram - gram.T).max() <= 1e-12 * np.abs(gram).max()
    assert np.all(np.diag(gram) > 0.0)


def _profiles_equal(p, q):
    return (np.array_equal(p.field.values, q.field.values) and p.energy == q.energy
            and p.cg_iterations == q.cg_iterations and p.cg_residual == q.cg_residual
            and (p.plateau_cells, p.resolved_rings, p.converged)
            == (q.plateau_cells, q.resolved_rings, q.converged))


def test_probe_solves_each_plateau_once_per_domain(monkeypatch):
    """A probe at a = 0 then a = 2 on one ball solves one CG per distinct
    plateau, and its rows and profiles equal those of fresh domains."""
    calls = _counted_cg(monkeypatch)
    ks = list(range(2, 17))
    betas = [1.0, 2.0]
    dom = ha.ball_grid(17)
    rho = dom.gauge()
    plateaus = {np.flatnonzero((rho <= 1.0 / k) & dom.mask).tobytes() for k in ks}
    assert len(plateaus) == 6               # k = 5/6, 7/8 and 9..16 share one
    rows = {a: ha.sharpness_probe(a, betas, ks, grid=dom) for a in (0.0, 2.0)}
    assert len(calls) == len(plateaus)
    for a, got in rows.items():
        for k in ks:
            fresh = ha.sharpness_probe(a, betas, [k], grid=ha.ball_grid(17))
            assert [r for r in got if r.k == k] == fresh
    for k in ks:
        assert _profiles_equal(ha.capacity_profile(1.0 / k, dom),
                               ha.capacity_profile(1.0 / k, ha.ball_grid(17)))


def test_capacity_runs_no_stencil_sweep_once_the_form_is_built(monkeypatch):
    """The energy is volume ||C y||^2, cached with the CG result: once the
    form is built, a profile sweeps the stencil no more."""
    ball = ha.ball_grid(17)
    orbit_form(ball)
    calls = count_sweeps(monkeypatch)
    prof = ha.capacity_profile(0.5, ball)
    again = ha.capacity_profile(0.5, ball)
    assert prof.converged and again.energy == prof.energy
    assert calls == []


def test_cached_profiles_are_independent_copies():
    dom = ha.ball_grid(17)
    first = ha.capacity_profile(1.0 / 9, dom)
    want = first.field.values.copy()
    first.field.values[...] = 7.0
    for ell in (1.0 / 9, 1.0 / 10):         # the same plateau at this grid
        again = ha.capacity_profile(ell, dom)
        assert np.array_equal(again.field.values, want)
        assert again.field.values is not first.field.values
        assert again.ell == ell
        assert again.bound == pytest.approx(A / (Q * np.log(1.0 / ell)), rel=1e-15)


def test_cache_keys_on_tol(monkeypatch):
    dom = ha.ball_grid(17)
    done = ha.capacity_profile(0.5, dom)
    assert done.converged
    calls = _counted_cg(monkeypatch)
    loose = ha.capacity_profile(0.5, dom, tol=1e-4)
    assert loose.converged and loose.cg_iterations < done.cg_iterations
    assert len(calls) == 1
    assert _profiles_equal(ha.capacity_profile(0.5, dom), done)
    assert len(calls) == 1


def test_capacity_reports_unconverged_solve(cap21, monkeypatch):
    import heisadams.extremals as ext
    monkeypatch.setattr(ext, "_CAPACITY_CG_MAX_ITER", 1)
    # fresh domains: the cached solves of ball21 do not key on the cap
    prof = ha.capacity_profile(0.5, ha.ball_grid(21), tol=1e-8)
    assert prof.cg_iterations == 1
    assert prof.cg_residual > 1e-8
    assert not prof.converged
    assert cap21.converged
    rows = ha.sharpness_probe(0.0, [1.0, 2.0], [2], grid=ha.ball_grid(21))
    assert [r.converged for r in rows] == [False, False]
