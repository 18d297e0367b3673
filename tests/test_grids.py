import dataclasses
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import heisadams as ha
from heisadams.group import gauge_arr, kernel_offsets
from heisadams.io import atomic_write_bytes, atomic_write_text

from oracles import origin_cell


def test_cell_centers_hit_origin_for_odd_counts():
    dom = ha.box_grid(9)
    xs, ys, ts = dom.axes()
    assert xs[4] == 0.0 and ts[4] == 0.0
    assert origin_cell(dom) == (4, 4, 4)
    assert dom.contains_origin()


def test_even_counts_have_no_origin_cell():
    dom = ha.box_grid(8)
    assert origin_cell(dom) is None
    xs, _, _ = dom.axes()
    assert np.all(xs != 0.0)


def test_spacing_and_volume():
    dom = ha.box_grid(10, extent=2.0)
    hx, hy, ht = dom.spacing
    assert hx == pytest.approx(0.4)
    assert dom.cell_volume == pytest.approx(0.4 ** 3)
    assert dom.domain_volume() == pytest.approx(4.0 ** 3)


def test_ball_mask_volume():
    dom = ha.ball_grid(33)
    # cell-center count times volume approximates pi^2/2
    assert dom.domain_volume() == pytest.approx(np.pi ** 2 / 2, rel=5e-3)
    # the gauge ball of radius 1 fills [-1,1]^2 x [-1,1] snugly
    assert dom.extents == (1.0, 1.0, 1.0)


def test_free_mask_is_eroded_interior():
    dom = ha.box_grid(7)
    free = dom.free_mask()
    assert not free[0].any() and not free[-1].any()
    assert free[1:-1, 1:-1, 1:-1].all()
    ball = ha.ball_grid(9)
    bfree = ball.free_mask()
    assert (bfree & ~ball.mask).sum() == 0
    assert bfree.sum() < ball.mask.sum()


def test_domain_is_frozen():
    dom = ha.box_grid(9)
    free = dom.free_mask()
    with pytest.raises(dataclasses.FrozenInstanceError):
        dom.mask = dom.gauge() <= 0.6
    with pytest.raises(ValueError):
        dom.mask[...] = dom.gauge() <= 0.6
    assert dom.mask.all()
    m = np.ones(dom.shape, dtype=bool)
    held = ha.GridDomain(shape=dom.shape, extents=dom.extents, mask=m)
    m[0] = False
    assert held.mask.all()
    assert dom.free_mask() is free and int(free.sum()) == 343
    ball = ha.ball_grid(9)
    assert np.array_equal(ball.mask, ball.gauge() <= 1.0)
    assert np.all(ball.singular_weight(1.0)[~ball.mask] == 0.0)


@given(st.tuples(*[st.integers(1, 7)] * 3), st.data())
@settings(max_examples=60, deadline=None)
def test_domain_mask_is_a_frozen_copy_for_any_shape_and_mask(shape, data):
    mask = data.draw(st.none() | arrays(bool, shape))
    dom = ha.GridDomain(shape=shape, extents=(1.0, 2.0, 0.5), mask=mask)
    want = np.ones(shape, dtype=bool) if mask is None else mask.copy()
    assert np.array_equal(dom.mask, want) and not dom.mask.flags.writeable
    if mask is not None:
        mask ^= True
        assert np.array_equal(dom.mask, want)
    with pytest.raises(ValueError):
        dom.mask[...] = False
    for name in ("mask", "shape", "extents"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dom, name, getattr(dom, name))
    free = dom.free_mask()
    assert free.shape == shape and not (free & ~dom.mask).any()


def test_group_lattice_spacing():
    dom = ha.group_lattice_grid(7)
    hx, hy, ht = dom.spacing
    assert ht == pytest.approx(2 * hx * hy, rel=1e-14)


def test_singular_weight_basics():
    dom = ha.box_grid(9)
    w0 = dom.singular_weight(0.0)
    assert np.all(w0 == 1.0)
    w2 = dom.singular_weight(2.0)
    # off the averaged head the weight is the center gauge power: pick a grid
    # fine enough that the cell centered at (1,0,0) lies outside the head
    fine = ha.GridDomain(shape=(25, 25, 25), extents=(1.25, 1.25, 1.25))
    ww = fine.singular_weight(2.0)
    xs, _, _ = fine.axes()
    i = int(np.argmin(np.abs(xs - 1.0)))
    j = fine.shape[1] // 2
    assert xs[i] == pytest.approx(1.0)
    assert ww[i, j, j] == pytest.approx(1.0, rel=1e-12)
    # caching returns the same array
    assert dom.singular_weight(2.0) is w2


def test_singular_weight_rejects_supercritical():
    dom = ha.box_grid(9)
    with pytest.raises(ValueError):
        dom.singular_weight(4.0)
    # a domain not containing the origin tolerates a >= 4
    # origin is not a cell center and contains_origin is still true for the
    # cell straddling it, so shift the mask off the middle instead
    m = np.zeros((6, 6, 6), dtype=bool)
    m[4:, 4:, 4:] = True
    shifted = ha.GridDomain(shape=(6, 6, 6), extents=(1.0, 1.0, 1.0), mask=m)
    # weights on a mask away from the origin stay finite for a = 4 readings
    # (ruled in by the contains-origin test)
    assert not (np.abs(shifted.gauge()[m]) < 1e-12).any()


def test_weighted_ball_integral_oracle(ball33):
    # sum of rho^-2 weights over the unit ball vs the polar value pi^2
    one = ha.GridField(ball33, np.where(ball33.mask, 1.0, 0.0))
    val = ha.integrate_weighted(one, 2.0)
    assert val == pytest.approx(np.pi ** 2, rel=0.02)


def test_integrate_weighted_trivial_cases():
    dom = ha.box_grid(7)
    one = ha.GridField(dom, np.ones(dom.shape))
    assert ha.integrate_weighted(one, 0.0) == pytest.approx(8.0, rel=1e-12)
    zero = ha.zeros(dom)
    assert ha.integrate_weighted(zero, 1.5) == 0.0


def test_integrate_weighted_linearity_and_monotonicity():
    dom = ha.box_grid(7)
    rng = np.random.default_rng(0)
    f = ha.GridField(dom, rng.uniform(0, 1, dom.shape))
    g = ha.GridField(dom, f.values + rng.uniform(0, 1, dom.shape))
    a = 1.0
    assert ha.integrate_weighted(ha.GridField(dom, 3.0 * f.values), a) == pytest.approx(
        3.0 * ha.integrate_weighted(f, a), rel=1e-12)
    assert ha.integrate_weighted(g, a) >= ha.integrate_weighted(f, a)


def test_field_serialization_roundtrip(tmp_path):
    dom = ha.box_grid(6, extent=1.5)
    rng = np.random.default_rng(1)
    f = ha.GridField(dom, rng.standard_normal(dom.shape))
    p = tmp_path / "field.bin"
    ha.save_field(f, p)
    g = ha.load_field(p)
    assert np.array_equal(f.values, g.values)
    assert g.domain.shape == dom.shape
    assert g.domain.extents == pytest.approx(dom.extents)
    assert g.domain.spacing == pytest.approx(dom.spacing)


def test_field_serialization_keeps_ball_mask(tmp_path):
    dom = ha.ball_grid(9)
    rng = np.random.default_rng(2)
    f = ha.GridField(dom, np.where(dom.mask, rng.standard_normal(dom.shape), 0.0))
    p = tmp_path / "ball.bin"
    ha.save_field(f, p)
    assert p.stat().st_size % 8 == 0
    g = ha.load_field(p)
    assert int(g.domain.mask.sum()) == int(dom.mask.sum()) == 461
    assert np.array_equal(g.domain.mask, dom.mask)
    assert np.array_equal(g.domain.free_mask(), dom.free_mask())
    assert np.array_equal(f.values, g.values)
    assert g.domain.extents == pytest.approx(dom.extents)


@st.composite
def masked_fields(draw):
    """A field on a random small box, with a random mask or none; the cell
    counts run through values that are not multiples of 8."""
    shape = tuple(draw(st.integers(1, 7)) for _ in range(3))
    extents = tuple(draw(st.floats(1e-3, 1e3)) for _ in range(3))
    mask = draw(st.none() | arrays(bool, shape))
    values = draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False)))
    return ha.GridField(ha.GridDomain(shape=shape, extents=extents, mask=mask), values)


@given(masked_fields())
@settings(max_examples=60, deadline=None)
def test_field_roundtrip_is_exact_for_any_shape_and_mask(tmp_path_factory, f):
    p = tmp_path_factory.mktemp("roundtrip") / "field.bin"
    ha.save_field(f, p)
    assert p.stat().st_size % 8 == 0
    g = ha.load_field(p)
    assert g.domain.shape == f.domain.shape
    assert g.domain.extents == f.domain.extents
    assert g.domain.spacing == f.domain.spacing
    assert np.array_equal(g.domain.mask, f.domain.mask)
    assert g.values.tobytes() == f.values.tobytes()


def test_field_binary_layout_is_x_fastest(tmp_path):
    dom = ha.box_grid(3)
    vals = np.arange(27, dtype=float).reshape(dom.shape)
    p = tmp_path / "f.bin"
    ha.save_field(ha.GridField(dom, vals), p)
    raw = p.read_bytes()
    payload = np.frombuffer(raw[8 + 3 * 8 + 6 * 8:], dtype="<f8")
    assert payload[0] == vals[0, 0, 0]
    assert payload[1] == vals[1, 0, 0]  # x varies fastest


def test_gauge_power_field_is_finite(ball33):
    f = ha.gauge_power_field(ball33, 2.0)
    assert np.isfinite(f.values).all()
    # origin cell is the largest value and is the subsampled cell average
    oc = origin_cell(ball33)
    assert f.values[oc] == f.masked().max()


def _old_cell_average(dom, i, j, k, exponent, q):
    """The midpoint subsampling as singular_weight and the Riesz diagonal
    kernel each wrote it before sharing one helper."""
    xs, ys, ts = dom.axes()
    hx, hy, ht = dom.spacing
    ox = (-0.5 + (np.arange(q) + 0.5) / q) * hx
    oy = (-0.5 + (np.arange(q) + 0.5) / q) * hy
    ot = (-0.5 + (np.arange(q) + 0.5) / q) * ht
    OX, OY, OT = np.meshgrid(ox, oy, ot, indexing="ij")
    if i is None:
        return float(np.mean(gauge_arr(OX, OY, OT) ** exponent))
    return float(np.mean(gauge_arr(xs[i] + OX, ys[j] + OY, ts[k] + OT) ** exponent))


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.group_lattice_grid(9)],
                         ids=["box9", "lattice9"])
def test_cell_average_helper_is_bit_identical(dom):
    # singular_weight averages the head only on the positive octant and
    # mirrors it: octant head cells keep the old per-cell average bit for bit,
    # every other cell is its mirror image, and far cells are the bare power
    from heisadams.grids import _HEAD_CELLS, _SUBSAMPLES, gauge_power_cell_averages
    rho = dom.gauge()
    X, Y, T = dom.coords()
    head = rho <= _HEAD_CELLS * max(dom.spacing)
    octant = (X >= 0) & (Y >= 0) & (T >= 0)
    assert (head & octant).any() and (head & ~octant).any()
    # each cell's mirror image in the octant (an octant cell is its own)
    mirror = tuple(np.where(c < 0, n - 1 - i, i)
                   for c, i, n in zip((X, Y, T), np.indices(dom.shape), dom.shape))
    for a in (1.0, 2.5, 3.5):
        w = dom.singular_weight(a)
        for i, j, k in zip(*np.where(head & octant)):
            assert w[i, j, k] == _old_cell_average(dom, i, j, k, -a, _SUBSAMPLES)
        assert np.array_equal(w, w[mirror])
        assert np.array_equal(w[~head], rho[~head] ** -a)
    f = ha.GridField(dom, np.random.default_rng(4).standard_normal(dom.shape))
    for alpha in (1.0, 2.0, 3.0):
        diag = _old_cell_average(dom, None, None, None, alpha - 4.0, 2)
        assert gauge_power_cell_averages(dom.spacing, (0.0, 0.0, 0.0), alpha - 4.0, 2) == diag
        # the Riesz sum written out with the old diagonal kernel
        X, Y, T = dom.coords()
        want = np.zeros(dom.shape)
        for idx in np.ndindex(dom.shape):
            wx, wy, wt = kernel_offsets(X[idx], Y[idx], T[idx], X.ravel(), Y.ravel(), T.ravel())
            r = gauge_arr(wx, wy, wt)
            with np.errstate(divide="ignore"):
                ker = r ** (alpha - 4.0)
            ker[r == 0.0] = diag
            want[idx] = np.dot(ker, f.values.ravel()) * dom.cell_volume
        assert np.array_equal(ha.riesz_convolve(f, alpha).values, want)


def _per_column_averages(spacing, centers, exponent, q):
    """gauge_power_cell_averages as it was written before its one broadcast:
    one subsample per column of a (..., q^3) array."""
    offsets = [(-0.5 + (np.arange(q) + 0.5) / q) * h for h in spacing]
    OX, OY, OT = np.meshgrid(*offsets, indexing="ij")
    X, Y, T = (np.asarray(c) for c in centers)
    sub = np.empty(X.shape + (q ** 3,))
    for k, (ox, oy, ot) in enumerate(zip(OX.ravel(), OY.ravel(), OT.ravel())):
        sub[..., k] = gauge_arr(X + ox, Y + oy, T + ot) ** exponent
    return np.mean(sub, axis=-1)


def test_cell_average_broadcast_equals_per_column_loop():
    from heisadams.grids import gauge_power_cell_averages
    rng = np.random.default_rng(38)
    for shape in [(200,), (7, 5)]:
        spacing = tuple(rng.uniform(0.05, 0.5, 3))
        centers = tuple(rng.uniform(-1.0, 1.0, shape) for _ in range(3))
        for q, exponent in [(4, -1.0), (4, -3.5), (2, -2.0), (3, 1.5)]:
            got = gauge_power_cell_averages(spacing, centers, exponent, q)
            assert got.shape == shape
            assert np.array_equal(got, _per_column_averages(spacing, centers, exponent, q))


@pytest.mark.parametrize("dom", [ha.box_grid(9), ha.box_grid(12),
                                 ha.GridDomain((13, 13, 11), (1.0, 0.5, 0.7)),
                                 ha.ball_grid(17), ha.group_lattice_grid(9)],
                         ids=["box9", "box12", "box13x13x11", "ball17", "lattice9"])
def test_singular_weight_is_exactly_even(dom):
    from heisadams.grids import _HEAD_CELLS, _SUBSAMPLES
    rho = dom.gauge()
    head = rho <= _HEAD_CELLS * max(dom.spacing)
    for a in (0.0, 1.0, 2.5, 3.5, 23 / 6):
        w = dom.singular_weight(a)
        for axis in range(3):
            assert np.array_equal(w, np.flip(w, axis))
        # the per-cell loop: each head cell averaged on its own, unmirrored
        want = np.where(head, 1.0, rho) ** -a
        for i, j, k in zip(*np.where(head)):
            want[i, j, k] = _old_cell_average(dom, i, j, k, -a, _SUBSAMPLES)
        want[~dom.mask] = 0.0
        assert np.all(np.abs(w - want) <= 5e-16 * want)


def test_cached_arrays_are_read_only():
    # a write into a cached array would change what every later solve reads
    from heisadams.operators import orbit_form
    dom = ha.box_grid(9)
    form = orbit_form(dom)
    getters = {
        "X": lambda: dom.coords()[0],
        "Y": lambda: dom.coords()[1],
        "T": lambda: dom.coords()[2],
        "gauge": dom.gauge,
        "free_mask": dom.free_mask,
        "singular_weight": lambda: dom.singular_weight(2.0),
        "form.weight": lambda: form.weight(2.0),
    }
    for name, get in getters.items():
        arr = get()
        assert get() is arr, name
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0
    assert form.weight(2.0 + 1e-14) is form.weight(2.0)


def _writers():
    from heisadams.extremals import ProbeRow, probe_to_csv
    dom = ha.ball_grid(5)
    f = ha.GridField(dom, np.where(dom.mask, 1.5, 0.0))
    rows = [ProbeRow(k=2, beta=1.0, a=0.0, value=2.0, normEstimate=3.0, converged=True,
                     plateau_cells=1, resolved_rings=0)]
    return {
        "save_field": lambda p: ha.save_field(f, p),
        "probe_to_csv": lambda p: probe_to_csv(rows, p),
        "profile_to_csv": lambda p: ha.decreasing_rearrangement(f).to_csv(p),
    }


# (leading bytes, sha256) of each writer's output for the _writers() inputs:
# floats as %.17g, ints as digits, one header line, "\n" line ends
_WRITER_BYTES = {
    "probe_to_csv": (b"k,beta,a,value,normEstimate\n2,1,0,2,3\n",
                     "d302e451e225b4bd0d9c504ee6ed1a84b4ce17c42bffdc313349535e3eab9be9"),
    "profile_to_csv": (b"measure,value\n0.064000000000000015,1.5\n",
                       "70ab95d2cfd8f80bd36091776b857c281f7a28689db9256c5606a35947fe8dce"),
    "save_field": (b"HGRD0001\x05\x00\x00\x00\x00\x00\x00\x00",
                   "44fbaba915d9cdbaf454662f5565f38aa0810d41afcace0c75e5854317f694bf"),
}


@pytest.mark.parametrize("name", sorted(_writers()))
def test_writers_bytes_are_pinned(name, tmp_path):
    p = tmp_path / "artifact"
    _writers()[name](p)
    data = p.read_bytes()
    head, digest = _WRITER_BYTES[name]
    assert data.startswith(head)
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(_writers()))
def test_writers_are_atomic(name, tmp_path, monkeypatch):
    """A write that fails before the rename leaves the previous file intact
    and no temporary file behind."""
    write = _writers()[name]
    p = tmp_path / "artifact"
    p.write_bytes(b"previous contents")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        write(p)
    assert p.read_bytes() == b"previous contents"
    assert sorted(x.name for x in tmp_path.iterdir()) == ["artifact"]
    monkeypatch.undo()
    write(p)
    assert p.read_bytes() != b"previous contents"


@given(st.binary(max_size=2048))
@settings(max_examples=60, deadline=None)
def test_atomic_write_bytes_reads_back_exactly(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("atomic")
    p = d / "artifact.bin"
    atomic_write_bytes(p, b"previous contents")
    atomic_write_bytes(p, data)
    assert p.read_bytes() == data
    assert [x.name for x in d.iterdir()] == ["artifact.bin"]


@given(st.text(max_size=512))
@settings(max_examples=60, deadline=None)
def test_atomic_write_text_reads_back_exactly(tmp_path_factory, text):
    d = tmp_path_factory.mktemp("atomic")
    p = d / "artifact.txt"
    atomic_write_text(p, text)
    with open(p, encoding="utf-8", newline="") as fh:
        assert fh.read() == text
    assert [x.name for x in d.iterdir()] == ["artifact.txt"]
