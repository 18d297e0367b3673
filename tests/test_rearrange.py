import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import heisadams as ha
from heisadams.rearrange import kernel_double_star, kernel_star

from oracles import distribution, lp_integral


def small_field(vals):
    n = 3
    dom = ha.box_grid(n)
    return ha.GridField(dom, np.asarray(vals, dtype=float).reshape(dom.shape))


value_arrays = arrays(np.float64, (3, 3, 3),
                      elements=st.floats(min_value=-50, max_value=50, width=64))


def test_distribution_constant_field():
    f = small_field(np.full(27, 2.5))
    vol = f.domain.domain_volume()
    assert distribution(f, 2.0) == pytest.approx(vol)
    assert distribution(f, 2.5) == 0.0
    assert distribution(f, 3.0) == 0.0


def test_distribution_gauge_kernel_oracle():
    # lambda(s) for gauge^-2 at s = 4 is |{rho < 1/2}| = V/16 = pi^2/32
    # (the closed form (c0/Q) s^(-Q/(Q-2)) evaluated at s = 4)
    dom = ha.ball_grid(49)
    f = ha.gauge_power_field(dom, 2.0)
    lam = distribution(f, 4.0)
    assert lam == pytest.approx(np.pi ** 2 / 32, rel=0.02)
    # monotone in the level, pinned at the extremes
    ss = [0.5, 1.0, 2.0, 4.0, 8.0]
    lams = [distribution(f, s) for s in ss]
    assert all(lams[i + 1] <= lams[i] for i in range(len(lams) - 1))
    assert distribution(f, 0.5) == pytest.approx(dom.domain_volume(), rel=1e-12)
    assert distribution(f, float(f.masked().max())) == 0.0


def test_rearrangement_constant_and_two_cell():
    f = small_field(np.full(27, 3.0))
    prof = ha.decreasing_rearrangement(f)
    assert np.all(prof.values == 3.0)
    assert prof.totalMeasure == pytest.approx(f.domain.domain_volume())

    # two-value field: 3 then 1, equal volumes
    vals = np.concatenate([np.full(13, 3.0), np.full(14, 1.0)])
    f = small_field(vals)
    prof = ha.decreasing_rearrangement(f)
    v = f.domain.cell_volume
    assert prof.f_star(0.5 * v) == 3.0
    assert prof.f_star(13.5 * v) == 1.0


def test_fstar_closed_form_oracle():
    dom = ha.ball_grid(49)
    f = ha.gauge_power_field(dom, 2.0)
    prof = ha.decreasing_rearrangement(f)
    ts = np.linspace(0.1 * prof.totalMeasure, 0.9 * prof.totalMeasure, 97)
    rel = np.abs(prof.f_star(ts) / kernel_star(ts) - 1.0)
    assert rel.max() <= 0.02


def test_double_star_constant():
    f = small_field(np.full(27, 2.0))
    prof = ha.decreasing_rearrangement(f)
    for t in (0.1, 0.5, 1.0):
        assert ha.double_star(prof, t * prof.totalMeasure) == pytest.approx(2.0)


def test_double_star_step_profile():
    prof = ha.RearrangementProfile(
        measures=np.array([1.0, 2.0]), values=np.array([3.0, 1.0]), totalMeasure=2.0)
    assert ha.double_star(prof, 2.0) == pytest.approx(2.0)
    assert ha.double_star(prof, 1.0) == pytest.approx(3.0)
    assert ha.double_star(prof, 1.5) == pytest.approx((3.0 + 0.5) / 1.5)
    with pytest.raises(ValueError):
        ha.double_star(prof, 0.0)


def test_kernel_double_star_identity_machine_precision():
    # (1/t) int_0^t (c0/4s)^(1/2) ds = 2 (c0/4t)^(1/2): exact antiderivative
    ts = np.linspace(0.01, 5.0, 500)
    assert np.max(np.abs(kernel_double_star(ts) / (2 * kernel_star(ts)) - 1.0)) < 1e-14


def test_double_star_dominates_f_star():
    rng = np.random.default_rng(0)
    f = small_field(rng.uniform(-1, 3, 27))
    prof = ha.decreasing_rearrangement(f)
    ts = np.linspace(0.05, 1.0, 40) * prof.totalMeasure
    ds = np.array([ha.double_star(prof, t) for t in ts])
    assert np.all(ds >= prof.f_star(ts) - 1e-12)
    assert np.all(np.diff(ds) <= 1e-12)  # f** non-increasing


@given(value_arrays)
@settings(max_examples=60, deadline=None)
def test_equimeasurability_identity(vals):
    """int |f|^p over the grid equals int (f*)^p over measure, p in {1,2,3}."""
    f = small_field(vals)
    prof = ha.decreasing_rearrangement(f)
    vol = f.domain.cell_volume
    for p in (1, 2, 3):
        grid_side = float(np.sum(np.sort(np.abs(f.values.ravel()) ** p))) * vol
        prof_side = lp_integral(prof, p)
        scale = max(1.0, abs(grid_side))
        assert abs(grid_side - prof_side) <= 1e-12 * scale


@given(value_arrays)
@settings(max_examples=40, deadline=None)
def test_monotone_map_equivariance(vals):
    """(phi o f)* = phi o (f*) exactly for non-decreasing phi with phi(0)=0."""
    f = small_field(np.abs(vals))
    for phi in (lambda v: v ** 2, lambda v: np.maximum(v - 1.0, 0.0), np.sqrt):
        lhs = ha.decreasing_rearrangement(ha.GridField(f.domain, phi(f.values))).values
        rhs = phi(ha.decreasing_rearrangement(f).values)
        assert np.array_equal(lhs, rhs)


def test_hardy_littlewood_trivial_cases():
    rng = np.random.default_rng(1)
    f = small_field(rng.uniform(0, 2, 27))
    ones = small_field(np.ones(27))
    assert ha.hardy_littlewood_slack(f, ones) == pytest.approx(0.0, abs=1e-12)
    assert ha.hardy_littlewood_slack(f, f) == pytest.approx(0.0, abs=1e-12)


@given(value_arrays, value_arrays)
@settings(max_examples=100, deadline=None)
def test_hardy_littlewood_nonnegative(fv, gv):
    f, g = small_field(fv), small_field(gv)
    slack = ha.hardy_littlewood_slack(f, g)
    scale = max(1.0, float(np.abs(fv).max() * np.abs(gv).max()))
    assert slack >= -1e-12 * scale


def test_hardy_littlewood_domain_mismatch():
    f = small_field(np.ones(27))
    g = ha.GridField(ha.box_grid(5), np.ones((5, 5, 5)))
    with pytest.raises(ValueError):
        ha.hardy_littlewood_slack(f, g)


def test_oneil_trivial_zero():
    dom = ha.group_lattice_grid(5)
    s1, s2 = ha.oneil_slack(ha.zeros(dom), 2.0, dom.domain_volume() / 2)
    assert s1 >= 0.0 and s2 >= 0.0


def test_oneil_indicator_cell():
    dom = ha.group_lattice_grid(5)
    vals = np.zeros(dom.shape)
    vals[2, 2, 2] = 1.0
    s1, s2 = ha.oneil_slack(ha.GridField(dom, vals), 2.0, dom.domain_volume() / 2)
    assert s1 >= -1e-12
    assert s2 >= -1e-12


def test_oneil_randomized_suite():
    dom = ha.group_lattice_grid(5)
    rng = np.random.default_rng(2024)
    t = dom.domain_volume() / 2
    for _ in range(50):
        f = ha.GridField(dom, rng.uniform(0.0, 1.0, dom.shape))
        s1, s2 = ha.oneil_slack(f, 2.0, t)
        scale = max(1.0, abs(s2))
        assert s1 >= -1e-9 * scale
        assert s2 >= -1e-9 * scale


def test_oneil_rejects_bad_t():
    dom = ha.group_lattice_grid(5)
    f = ha.zeros(dom)
    for t in (0.0, -1.0, dom.domain_volume() * 1.5):
        with pytest.raises(ValueError):
            ha.oneil_slack(f, 2.0, t)


def test_one_d_reduction_zero_and_constants():
    dom = ha.ball_grid(15)
    zero = ha.zeros(dom)
    s, phi, defect = ha.one_d_reduction(zero)
    assert np.all(phi == 0.0) and defect == 0.0

    one = ha.GridField(dom, np.where(dom.mask, 1.0, 0.0))
    s, phi, defect = ha.one_d_reduction(one)
    total = dom.domain_volume()
    # phi(s) = |O|^(1/2) e^(-s/2) for the constant field
    assert np.allclose(phi, np.sqrt(total) * np.exp(-s / 2), rtol=1e-12)
    assert defect / total < 0.01


def test_one_d_reduction_gauge_defect():
    dom = ha.ball_grid(33)
    f = ha.gauge_power_field(dom, 2.0)
    _, _, defect = ha.one_d_reduction(f)
    l2 = float(np.sum(f.masked() ** 2)) * dom.cell_volume
    assert defect / l2 < 0.01


def test_one_d_reduction_rejects_negative():
    dom = ha.ball_grid(9)
    f = ha.GridField(dom, np.where(dom.mask, -1.0, 0.0))
    with pytest.raises(ValueError):
        ha.one_d_reduction(f)


def test_profile_csv_export(tmp_path):
    f = small_field(np.arange(27.0))
    prof = ha.decreasing_rearrangement(f)
    p = tmp_path / "prof.csv"
    prof.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "measure,value"
    assert len(lines) == 28
    first = lines[1].split(",")
    assert float(first[1]) == 26.0  # largest value first


def test_profile_csv_is_the_per_value_rendering(tmp_path):
    """profile.csv is every measure and value rendered with %.17g, as numpy
    floats, in order: the file is byte for byte the per-value rendering."""
    dom = ha.ball_grid(9)
    f = ha.GridField(dom, np.random.default_rng(4).random(dom.shape))
    prof = ha.decreasing_rearrangement(f)
    p = tmp_path / "profile.csv"
    prof.to_csv(p)
    want = "measure,value\n" + "".join(
        "%.17g,%.17g\n" % (m, v) for m, v in zip(prof.measures, prof.values))
    assert p.read_bytes() == want.encode()
