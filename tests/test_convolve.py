import numpy as np
import pytest

import heisadams as ha
from heisadams.grids import gauge_power_cell_averages
from heisadams.group import gauge_arr, group_mul_arr, kernel_offsets

from oracles import origin_cell


def test_rejects_bad_alpha():
    dom = ha.box_grid(5)
    f = ha.zeros(dom)
    for alpha in (0.0, -1.0, 4.0, 5.0):
        with pytest.raises(ValueError):
            ha.riesz_convolve(f, alpha)


def test_zero_input_zero_output():
    dom = ha.box_grid(5)
    out = ha.riesz_convolve(ha.zeros(dom), 2.0)
    assert np.all(out.values == 0.0)


def test_linearity():
    dom = ha.box_grid(5)
    rng = np.random.default_rng(11)
    f = ha.GridField(dom, rng.standard_normal(dom.shape))
    g = ha.GridField(dom, rng.standard_normal(dom.shape))
    a3 = ha.riesz_convolve(ha.GridField(dom, 3.0 * f.values + g.values), 2.0)
    ref = 3.0 * ha.riesz_convolve(f, 2.0).values + ha.riesz_convolve(g, 2.0).values
    assert np.allclose(a3.values, ref, rtol=1e-13, atol=1e-13)


def test_point_mass_reproduces_kernel():
    """A unit mass at the origin cell yields gauge(xi)^(alpha-4) * cellVolume
    exactly away from the origin (a single-term sum)."""
    dom = ha.box_grid(5)
    vals = np.zeros(dom.shape)
    oc = origin_cell(dom)
    vals[oc] = 1.0
    out = ha.riesz_convolve(ha.GridField(dom, vals), 2.0)
    rho = dom.gauge()
    expect = np.where(rho > 0, rho, np.inf) ** -2.0 * dom.cell_volume
    off = rho > 0
    assert np.abs(out.values[off] - expect[off]).max() == 0.0
    # the self cell is the finite subsampled kernel average
    assert np.isfinite(out.values[oc]) and out.values[oc] > 0


def test_right_translation_equivariance_exact():
    """(K * f)(xi g) == (K * f(. g))(xi) exactly on a subgroup lattice.

    Needs ht = 2 hx hy so cell centers close under the group product and a
    compactly supported f so both sums range over the full support.
    """
    dom = ha.group_lattice_grid(9)
    hx, hy, ht = dom.spacing
    xs, ys, ts = dom.axes()
    rng = np.random.default_rng(3)
    vals = np.zeros(dom.shape)
    vals[3:6, 3:6, 3:6] = rng.standard_normal((3, 3, 3))
    f = ha.GridField(dom, vals)
    U = ha.riesz_convolve(f, 2.0)

    X, Y, T = dom.coords()

    def to_idx(c, axis):
        return np.rint((c - axis[0]) / (axis[1] - axis[0])).astype(int)

    for g in ((hx, 0.0, 0.0), (0.0, hy, 0.0), (0.0, 0.0, ht), (hx, -hy, ht)):
        # the lattice index of eta * g; f_g(eta) = f(eta * g) by exact shifts
        ex, ey, et = group_mul_arr(X, Y, T, *g)
        fi, fj, fk = to_idx(ex, xs), to_idx(ey, ys), to_idx(et, ts)
        ok = (fi >= 0) & (fi < 9) & (fj >= 0) & (fj < 9) & (fk >= 0) & (fk < 9)
        fg = np.zeros(dom.shape)
        fg[ok] = f.values[fi[ok], fj[ok], fk[ok]]
        # shifted support must stay inside the lattice for exactness
        assert fg.sum() != 0.0
        Ug = ha.riesz_convolve(ha.GridField(dom, fg), 2.0)

        sel = np.zeros(dom.shape, bool)
        sel[2:-2, 2:-2, 2:-2] = True
        sel &= ok
        diff = np.abs(U.values[fi[sel], fj[sel], fk[sel]] - Ug.values[sel])
        assert diff.max() <= 1e-12


def _loop_reference(f, alpha, tgt):
    """The Riesz sum written out one target cell at a time over all sources."""
    src = f.domain
    sx, sy, st = (c[src.mask] for c in src.coords())
    fv = f.values[src.mask]
    diag = float(gauge_power_cell_averages(src.spacing, (0.0, 0.0, 0.0), alpha - 4.0, 2))
    tx, ty, tt = (c[tgt.mask] for c in tgt.coords())
    out = np.zeros(tx.size)
    for i in range(tx.size):
        r = gauge_arr(*kernel_offsets(tx[i], ty[i], tt[i], sx, sy, st))
        with np.errstate(divide="ignore"):
            ker = r ** (alpha - 4.0)
        ker[r == 0.0] = diag
        out[i] = np.dot(ker, fv) * src.cell_volume
    vals = np.zeros(tgt.shape)
    vals[tgt.mask] = out
    return vals


@pytest.mark.parametrize("make", [lambda: ha.box_grid(1), lambda: ha.box_grid(8),
                                  lambda: ha.ball_grid(9), lambda: ha.group_lattice_grid(10)],
                         ids=["box1", "box8", "ball9", "lattice10"])
def test_self_convolution_is_the_loop_bit_for_bit(make):
    """The mirrored evaluation on the source domain equals the per-target
    loop exactly: on a single cell (only the diagonal), on cell counts that
    fill the last block of rows (box 8) and that do not (ball 9, lattice 10),
    and on a masked domain.  A second domain object with the same cells takes
    the unmirrored blocks and agrees too."""
    dom = make()
    rng = np.random.default_rng(5)
    f = ha.GridField(dom, np.where(dom.mask, rng.standard_normal(dom.shape), 0.0))
    for alpha in (1.0, 2.0, 3.0):
        out = ha.riesz_convolve(f, alpha)
        assert out.domain is dom
        assert np.array_equal(out.values, _loop_reference(f, alpha, dom))
        assert np.array_equal(ha.riesz_convolve(f, alpha, target=dom).values, out.values)
        assert np.array_equal(ha.riesz_convolve(f, alpha, target=make()).values, out.values)


@pytest.mark.parametrize("make", [lambda: ha.box_grid(8), lambda: ha.ball_grid(9)],
                         ids=["box8", "ball9"])
def test_riesz_potential_is_self_adjoint(make):
    """<I f, g> = <f, I g>: the kernel is symmetric in the two cells."""
    dom = make()
    rng = np.random.default_rng(8)
    f, g = (ha.GridField(dom, np.where(dom.mask, rng.standard_normal(dom.shape), 0.0))
            for _ in range(2))
    for alpha in (1.0, 2.0, 3.0):
        lhs = float(np.sum(ha.riesz_convolve(f, alpha).values * g.values))
        rhs = float(np.sum(f.values * ha.riesz_convolve(g, alpha).values))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


def test_target_domain_restriction():
    src = ha.box_grid(5)
    tgt = ha.box_grid(3, extent=0.5)
    rng = np.random.default_rng(2)
    f = ha.GridField(src, rng.uniform(0, 1, src.shape))
    out = ha.riesz_convolve(f, 2.0, target=tgt)
    assert out.domain is tgt
    assert np.isfinite(out.values).all()
    assert np.array_equal(out.values, _loop_reference(f, 2.0, tgt))


def test_exponential_integrability_probe():
    """Empirical trace of the exponential bound for the normalized potential:
    (1/|O|) int exp((4/c0)|I_2*f|^2 / ||f||_2^2) stays modest over random f.

    The supremum statement is not a finite computation; this records that the
    discrete functional is finite and stable across seeded samples.
    """
    dom = ha.box_grid(9)
    rng = np.random.default_rng(123)
    c0 = 2 * np.pi ** 2
    vol = dom.cell_volume
    values = []
    for _ in range(10):
        f = ha.GridField(dom, rng.standard_normal(dom.shape))
        l2 = np.sqrt(np.sum(f.values ** 2) * vol)
        U = ha.riesz_convolve(f, 2.0)
        integrand = np.exp((4.0 / c0) * (U.values / l2) ** 2)
        values.append(float(np.sum(integrand) * vol) / dom.domain_volume())
    assert all(np.isfinite(v) for v in values)
    assert max(values) < 100.0
