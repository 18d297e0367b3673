"""Acceptance battery: every operating criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).  The
criteria are asserted exactly as stated; two clauses of criterion 6 are
expected to fail at desk resolution because the log-capacity bound they
compare against is an asymptotic (ell -> 0) statement: the measured discrete
conductor-capacity energy at ell = 0.5 sits two orders of magnitude above
A/(4 ln 2), and the plateau-family norm inherits that excess.  The failures
are reported honestly rather than tuned away; see the README.
"""

import time

import numpy as np
import pytest

import heisadams as ha
from heisadams import cli
from heisadams.operators import orbit_form, sublaplacian
from heisadams.rearrange import kernel_double_star, kernel_star

from conftest import field_energy
from oracles import (all_passed, apply_fields, dirichlet_energy, inner, lp_integral,
                     rayleigh_quotient)

A = 32.0 / 9.0
C0 = 2 * np.pi ** 2


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>4} {name:<42} {tag}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- shared expensive artifacts -------------------------------------------------

@pytest.fixture(scope="module")
def ball33():
    return ha.ball_grid(33)


@pytest.fixture(scope="module")
def cap33(ball33):
    return ha.capacity_profile(0.5, ball33, tol=1e-8)


@pytest.fixture(scope="module")
def solve17():
    dom = ha.box_grid(17)
    nl = ha.cubic_model()
    t0 = time.time()
    u, st = ha.mountain_pass_solve(nl, 1.0, dom, ha.SolveOptions(tol=1e-6))
    return dom, nl, u, st, time.time() - t0


def test_criterion_1_constants():
    t0 = time.time()
    c = ha.compute_constants()
    elapsed = time.time() - t0
    errs = {
        "V": abs(c.unitBallVolume - np.pi ** 2 / 2) / (np.pi ** 2 / 2),
        "c0": abs(c.c0 - C0) / C0,
        "gamma1": abs(c.gamma1 - 3 / (4 * np.pi)) / (3 / (4 * np.pi)),
        "bigA": abs(c.bigA - A) / A,
    }
    e = c.errorEstimates
    mc_ok = (
        abs(e["mc_unitBallVolume"] - c.unitBallVolume) <= 3 * e["mc_unitBallVolume_sigma"]
        and abs(e["mc_gamma1"] - c.gamma1) <= 3 * e["mc_gamma1_sigma"]
    )
    ok = all(v <= 1e-3 for v in errs.values()) and mc_ok and elapsed < 30.0
    report(1, "sharp constants 0.1% + MC 3-sigma", ok,
           f"rel errs {max(errs.values()):.2e}, mc_ok={mc_ok}, {elapsed:.1f}s")


def test_criterion_2_rearrangement_oracle():
    dom = ha.ball_grid(49)
    f = ha.gauge_power_field(dom, 2.0)
    prof = ha.decreasing_rearrangement(f)
    total = prof.totalMeasure
    ts = np.linspace(0.1 * total, 0.9 * total, 161)
    fstar_err = float(np.max(np.abs(prof.f_star(ts) / kernel_star(ts) - 1.0)))
    closed_err = float(np.max(np.abs(kernel_double_star(ts) / (2 * kernel_star(ts)) - 1.0)))
    dstar = np.array([ha.double_star(prof, t) for t in ts])
    disc_err = float(np.max(np.abs(dstar / (2 * prof.f_star(ts)) - 1.0)))
    ok = fstar_err <= 0.02 and closed_err <= 1e-12 and disc_err <= 0.03
    report(2, "rearrangement closed-form oracle @49^3", ok,
           f"f* {fstar_err:.3%}, f** closed {closed_err:.1e}, f** discrete {disc_err:.3%}")


def test_criterion_3_inequality_suites():
    rng = np.random.default_rng(2024)
    dom5 = ha.box_grid(5)
    worst_hl = np.inf
    for _ in range(200):
        f = ha.GridField(dom5, rng.standard_normal(dom5.shape))
        g = ha.GridField(dom5, rng.standard_normal(dom5.shape))
        scale = max(1.0, float(np.abs(f.values).max() * np.abs(g.values).max()))
        worst_hl = min(worst_hl, ha.hardy_littlewood_slack(f, g) / scale)
    hl_ok = worst_hl >= -1e-12

    lat5 = ha.group_lattice_grid(5)
    t_half = lat5.domain_volume() / 2
    worst_on = np.inf
    for _ in range(50):
        f = ha.GridField(lat5, rng.uniform(0, 1, lat5.shape))
        s1, s2 = ha.oneil_slack(f, 2.0, t_half)
        scale = max(1.0, abs(s2) + abs(s1))
        worst_on = min(worst_on, s1 / scale, s2 / scale)
    on_ok = worst_on >= -1e-9

    eq_ok = True
    for _ in range(20):
        f = ha.GridField(dom5, rng.standard_normal(dom5.shape) * 10)
        prof = ha.decreasing_rearrangement(f)
        vol = dom5.cell_volume
        for p in (1, 2, 3):
            lhs = float(np.sum(np.sort(np.abs(f.values.ravel()) ** p))) * vol
            if abs(lhs - lp_integral(prof, p)) > 1e-12 * max(1.0, lhs):
                eq_ok = False

    dom33 = ha.ball_grid(33)
    f = ha.gauge_power_field(dom33, 2.0)
    _, _, defect = ha.one_d_reduction(f)
    l2 = float(np.sum(f.masked() ** 2)) * dom33.cell_volume
    od_ok = defect / l2 < 0.01

    ok = hl_ok and on_ok and eq_ok and od_ok
    report(3, "inequality property suites", ok,
           f"HL {worst_hl:.1e}, O'Neil {worst_on:.1e}, equimeas {eq_ok}, "
           f"1-d defect {defect / l2:.3%}")


def test_criterion_4_operator_correctness():
    dom = ha.box_grid(13)
    X, Y, T = dom.coords()
    c = (slice(2, -2),) * 3
    quad_ok = True
    for expr, want in [
        (X ** 2 + Y ** 2, 4.0 + 0 * X), (T ** 2, 8 * (X ** 2 + Y ** 2)),
        (X * T, 4 * Y), (Y * T, -4 * X), (X * Y, 0 * X),
    ]:
        got = sublaplacian(ha.GridField(dom, expr)).values
        scale = max(1.0, np.abs(np.asarray(want)[c]).max() if np.ndim(want) else 1.0)
        if np.abs((got - want)[c]).max() > 1e-11 * scale:
            quad_ok = False

    # commutator order on the nested 7/21/63 ladder
    errs = []
    for n in (7, 21, 63):
        fac = n // 7
        d = ha.box_grid(n)
        Xn, Yn, Tn = d.coords()
        u = ha.GridField(d, Xn ** 3 * Yn + Yn ** 3 * Tn + Tn ** 3 * Xn + Xn * Yn * Tn)
        Xu, Yu, Tu = apply_fields(u)
        resid = apply_fields(Yu)[0].values - apply_fields(Xu)[1].values + 4 * Tu.values
        idx = [fac * i + (fac - 1) // 2 for i in range(2, 5)]
        errs.append(np.abs(resid[np.ix_(idx, idx, idx)]).max())
    comm_order = min(np.log(errs[i] / errs[i + 1]) / np.log(3.0) for i in range(2))

    # gauge^-2 harmonic decay on the 21/63/189 ladder
    herrs = []
    dom0 = ha.box_grid(21, extent=0.8)
    core = [list(range(2, 19))] * 3
    sel = dom0.gauge()[np.ix_(*core)] >= 0.3
    for n in (21, 63, 189):
        fac = n // 21
        d = ha.box_grid(n, extent=0.8)
        rho = d.gauge()
        u = ha.GridField(d, np.where(rho > 1e-14, rho, 1.0) ** -2.0)
        Lu = sublaplacian(u).values
        idx = [fac * i + (fac - 1) // 2 for i in range(2, 19)]
        herrs.append(np.abs(Lu[np.ix_(idx, idx, idx)][sel]).max())
    harm_slope = float(np.polyfit(np.log([1.0, 1 / 3, 1 / 9]), np.log(herrs), 1)[0])
    harm_decreasing = herrs[0] > herrs[1] > herrs[2]

    rng = np.random.default_rng(11)
    free = dom.free_mask()

    def rf():
        v = np.zeros(dom.shape)
        v[free] = rng.standard_normal(int(free.sum()))
        return ha.GridField(dom, v)

    u, v = rf(), rf()
    s1 = inner(sublaplacian(u), sublaplacian(v))
    s2 = inner(sublaplacian(v), sublaplacian(u))
    sym_ok = abs(s1 - s2) <= 1e-12 * max(1.0, abs(s1))

    ok = quad_ok and comm_order >= 1.8 and harm_slope >= 1.8 and harm_decreasing and sym_ok
    report(4, "operator exactness and orders", ok,
           f"quad={quad_ok}, commutator order {comm_order:.2f}, "
           f"harmonic slope {harm_slope:.2f}, symmetric={sym_ok}")


def test_criterion_5_rayleigh_constant():
    from scipy.linalg import eigh
    dom = ha.box_grid(9)
    free = dom.free_mask()
    nfree = int(free.sum())
    Amat = np.zeros((nfree, nfree))
    for j in range(nfree):
        x = np.zeros(nfree)
        x[j] = 1.0
        u = np.zeros(dom.shape)
        u[free] = x
        Amat[:, j] = sublaplacian(sublaplacian(ha.GridField(dom, u))).values[free]
    worst = 0.0
    pos = True
    for a in (0.0, 1.0, 2.0):
        est = ha.lambda_estimate(dom, a, tol=1e-12)
        w = dom.singular_weight(a)[free]
        lo = eigh(Amat, np.diag(w), eigvals_only=True, subset_by_index=[0, 0])[0]
        worst = max(worst, abs(est.value - lo) / lo)
        pos = pos and est.value > 0
    ok = worst <= 1e-8 and pos
    report(5, "rayleigh floor vs dense oracle @9^3", ok,
           f"max rel dev {worst:.2e}, positive={pos}")


def test_criterion_6a_capacity_energy_bound(cap33):
    bound = A / (4 * np.log(2.0))
    ok = cap33.energy <= 1.25 * bound
    report("6a", "capacity energy within 1.25x log bound", ok,
           f"energy {cap33.energy:.2f} vs 1.25x bound {1.25 * bound:.3f} "
           f"(slack {cap33.slack:.0f}x; bound is asymptotic in ell)")


def test_criterion_6b_adams_norm(ball33, cap33):
    af = ha.adams_function(cap33)
    ok = af.normEstimate <= 1.10
    report("6b", "plateau-family norm <= 1.10 @33^3", ok,
           f"norm {af.normEstimate:.2f} (inherits the capacity excess)")


def test_criterion_6c_plateau_amplitude(ball33, cap33):
    af = ha.adams_function(cap33)
    want = float(np.sqrt(4 * np.log(2.0) / A))
    ok = af.plateau == want
    report("6c", "plateau amplitude exact", ok, f"{af.plateau!r} == {want!r}")


@pytest.fixture(scope="module")
def probe33(ball33):
    t0 = time.time()
    out = {}
    for a in (0.0, 2.0):
        thr = A * (1 - a / 4)
        rows = ha.sharpness_probe(a, [0.75 * thr, 1.25 * thr], [2, 4, 8, 16, 32],
                                  grid=ball33, tol=1e-8)
        out[a] = rows
    return out, time.time() - t0


def test_criterion_7_sharpness_probe(probe33):
    rows_by_a, elapsed = probe33
    ok = elapsed <= 300.0
    details = [f"{elapsed:.0f}s"]
    for a, rows in rows_by_a.items():
        thr = A * (1 - a / 4)
        for frac, kind in ((1.25, "hot"), (0.75, "cold")):
            beta = frac * thr
            col = sorted((r.k, r.value) for r in rows if abs(r.beta - beta) < 1e-9)
            vals = [v for _, v in col]
            ratio = vals[-1] / vals[0]
            if kind == "hot":
                inc = all(vals[i + 1] > vals[i] for i in range(len(vals) - 1))
                ok = ok and inc and ratio >= 5.0
                details.append(f"a={a} hot ratio {ratio:.1f} inc={inc}")
            else:
                ok = ok and ratio <= 2.0
                details.append(f"a={a} cold ratio {ratio:.2f}")
    report(7, "sharpness probe growth split", ok, "; ".join(details))


def test_criterion_8_gradient_check():
    dom = ha.box_grid(9)
    rng = np.random.default_rng(321)
    form = orbit_form(dom)
    eps = 1e-5
    worst = 0.0
    for nl in (ha.cubic_model(), ha.critical_model(2.0, 1.0)):
        for a in (0.0, 1.0):
            for _ in range(20):
                x = 0.4 * rng.standard_normal(form.count.size)
                v = rng.standard_normal(form.count.size)
                dd = float(ha.grad_energy(form, x, nl, a) @ v) * form.volume
                fd = (ha.energy(form, x + eps * v, nl, a)
                      - ha.energy(form, x - eps * v, nl, a)) / (2 * eps)
                worst = max(worst, abs(dd - fd) / max(1.0, abs(fd)))
    ok = worst <= 1e-6
    report(8, "gradient vs central differences", ok, f"worst rel dev {worst:.2e}")


def test_criterion_9a_solver_cubic(solve17):
    dom, nl, u, st, elapsed = solve17
    unorm = np.sqrt(dirichlet_energy(u))
    J = field_energy(u, nl, 1.0)
    levels = [h[1] for h in st.history]
    mono = all(levels[i + 1] <= levels[i] * (1 + 1e-12) + 1e-12
               for i in range(len(levels) - 1))
    lam = ha.lambda_estimate(dom, 1.0, tol=1e-10)
    rayleigh_ok = rayleigh_quotient(u, 1.0) >= lam.value * (1 - 1e-8)
    ok = (st.converged and unorm > 1e-6
          and st.gradResidual <= 1e-6 * max(1.0, unorm)
          and J > 0 and mono and rayleigh_ok and elapsed <= 600.0)
    report("9a", "cubic saddle @17^3", ok,
           f"res {st.gradResidual:.1e}, |u| {unorm:.1f}, J {J:.1f}, "
           f"mono={mono}, rayleigh={rayleigh_ok}, {elapsed:.0f}s")


def test_criterion_9b_critical_level_bound():
    dom = ha.ball_grid(17)
    lam = ha.lambda_estimate(dom, 1.0, tol=1e-10)
    nl = ha.critical_model(lam=0.9 * lam.value, alpha0=1.0)
    rep = ha.validate_hypotheses(nl, 1.0, lam.value, u_max=6.0, m_estimate=8.0)
    seed = ha.adams_function(ha.capacity_profile(0.25, dom, tol=1e-8))
    u, st = ha.mountain_pass_solve(nl, 1.0, dom, ha.SolveOptions(tol=1e-6),
                                   warm_start=seed.field)
    J = field_energy(u, nl, 1.0)
    bound = ha.level_bound(1.0, 1.0)
    ok = all_passed(rep) and st.converged and 0 < J < bound
    report("9b", "critical level under ceiling", ok,
           f"J {J:.3f} < {bound:.3f}, hyp={all_passed(rep)}, conv={st.converged}")


def test_criterion_10_continuation():
    dom = ha.box_grid(13)
    nl = ha.cubic_model()
    steps = ha.critical_continuation(nl, 6, dom, ha.SolveOptions(tol=1e-6))
    all_conv = len(steps) == 6 and all(s.state.converged for s in steps)
    diffs = [s.diff_from_previous for s in steps[1:]]
    tail_dec = all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 3, len(diffs) - 1))
    bounded = all(np.isfinite(s.weighted_uf) and np.isfinite(s.weighted_F) for s in steps)
    ufs = [s.weighted_uf for s in steps]
    trend = ufs[-1] <= ufs[0]
    ok = all_conv and tail_dec and bounded and trend
    report(10, "borderline-potential continuation", ok,
           f"conv={all_conv}, diffs {['%.3g' % d for d in diffs]}, bounded={bounded}")


def test_criterion_11_cli_determinism(tmp_path):
    blobs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        rc = cli.main(["sharpness", "--a", "0", "--grid", "9",
                       "--betas", "0.75*,1.25*", "--ks", "2,4",
                       "--out", str(out)])
        assert rc == 0
        blobs.append((out / "sharpness.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report(11, "byte-identical artifacts", ok, f"{len(blobs[0])} bytes")
