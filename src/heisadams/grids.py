"""Cell-centered grids for box and Koranyi-ball domains in H^1.

A GridDomain is an axis-aligned box [-Lx,Lx] x [-Ly,Ly] x [-Lt,Lt] cut into
nx*ny*nt cells; fields live at cell centers and every cell carries volume
hx*hy*ht.  Centers are generated from integer offsets so that for odd cell
counts the middle cell sits exactly at the origin.

Boundary handling: values outside the domain mask are identically zero, and
the outermost in-mask ring is clamped to zero as well ("free" cells are the
eroded mask).  Together with zero ghost layers this discretizes u = 0 and a
vanishing one-sided normal difference on the boundary, which keeps the
discrete quadratic form exactly consistent with its gradient (see operators).

A domain is frozen, its mask a read-only copy fixed at construction, because
the domain caches what derives from it (free cells, weights, the assembled
operator, capacity solves) in one dict, _cache.  The arrays it hands out
from that cache (coords, gauge, free_mask, each singular weight) are
read-only too, so no caller can change what later solves read.

The gauge, the cell centres (_centers negates bit for bit) and the
subsample offsets of a cell are all even in x, y and t, so the singular
weight is built on the closed positive octant (cells with X, Y, T >= 0)
alone and mirrored across the three coordinate planes: it is exactly even.

The t-spacing may differ from the horizontal spacing; ht = 2*hx*hy makes the
cell centers a subgroup of the group, which some exactness tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .group import gauge_arr
from .io import atomic_write_bytes

_MAGIC = b"HGRD0001"

_HEAD_CELLS = 6.0    # gauge radius, in cells, of singular_weight's averaged head
_SUBSAMPLES = 4      # midpoint subsamples per axis in a head cell


def _centers(n: int, half_extent: float) -> np.ndarray:
    h = 2.0 * half_extent / n
    # (2i - (n-1)) * h/2 is exactly 0 at the middle cell of an odd axis
    return (2.0 * np.arange(n) - (n - 1)) * (h / 2.0)


def gauge_power_cell_averages(spacing, centers, exponent: float, q: int) -> np.ndarray:
    """Cell averages of gauge^exponent by q^3 midpoint subsampling.

    centers = (X, Y, T), arrays (or scalars) of one shape, which the result
    takes; with q even no subsample lands on a center itself.  All q^3
    subsamples are evaluated in one broadcast along a trailing axis, and
    each cell's mean sums them in the order of np.meshgrid(..., "ij").
    """
    offsets = [(-0.5 + (np.arange(q) + 0.5) / q) * h for h in spacing]
    OX, OY, OT = (o.ravel() for o in np.meshgrid(*offsets, indexing="ij"))
    X, Y, T = (np.asarray(c)[..., None] for c in centers)
    return np.mean(gauge_arr(X + OX, Y + OY, T + OT) ** exponent, axis=-1)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridDomain:
    """Discretized box with an optional membership mask (e.g. a gauge ball)."""

    shape: tuple[int, int, int]
    extents: tuple[float, float, float]
    mask: np.ndarray | None = None          # cells belonging to Omega; default all
    _cache: dict = dc_field(default_factory=dict, repr=False)

    def __post_init__(self):
        mask = (np.ones(self.shape, dtype=bool) if self.mask is None
                else np.array(self.mask, dtype=bool))
        if mask.shape != self.shape:
            raise ValueError("mask shape does not match grid shape")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    # -- geometry ------------------------------------------------------------

    @property
    def spacing(self) -> tuple[float, float, float]:
        nx, ny, nt = self.shape
        Lx, Ly, Lt = self.extents
        return (2.0 * Lx / nx, 2.0 * Ly / ny, 2.0 * Lt / nt)

    @property
    def cell_volume(self) -> float:
        hx, hy, ht = self.spacing
        return hx * hy * ht

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nx, ny, nt = self.shape
        Lx, Ly, Lt = self.extents
        return _centers(nx, Lx), _centers(ny, Ly), _centers(nt, Lt)

    def coords(self):
        """Meshgrids (X, Y, T) of cell centers, cached."""
        if "XYZ" not in self._cache:
            xs, ys, ts = self.axes()
            self._cache["XYZ"] = tuple(_read_only(c) for c in
                                       np.meshgrid(xs, ys, ts, indexing="ij"))
        return self._cache["XYZ"]

    def gauge(self) -> np.ndarray:
        if "gauge" not in self._cache:
            X, Y, T = self.coords()
            self._cache["gauge"] = _read_only(gauge_arr(X, Y, T))
        return self._cache["gauge"]

    def contains_origin(self) -> bool:
        X, Y, T = self.coords()
        hx, hy, ht = self.spacing
        inside = (np.abs(X) <= hx / 2) & (np.abs(Y) <= hy / 2) & (np.abs(T) <= ht / 2)
        return bool((inside & self.mask).any())

    # -- dof structure ---------------------------------------------------------

    def free_mask(self) -> np.ndarray:
        """Cells that carry degrees of freedom: mask eroded by one cell.

        The removed ring is the discrete Dirichlet boundary (clamped to 0).
        """
        if "free" not in self._cache:
            m = self.mask
            er = m.copy()
            er[1:, :, :] &= m[:-1, :, :]
            er[:-1, :, :] &= m[1:, :, :]
            er[:, 1:, :] &= m[:, :-1, :]
            er[:, :-1, :] &= m[:, 1:, :]
            er[:, :, 1:] &= m[:, :, :-1]
            er[:, :, :-1] &= m[:, :, 1:]
            er[0, :, :] = er[-1, :, :] = False
            er[:, 0, :] = er[:, -1, :] = False
            er[:, :, 0] = er[:, :, -1] = False
            self._cache["free"] = _read_only(er)
        return self._cache["free"]

    def domain_volume(self) -> float:
        return float(self.mask.sum()) * self.cell_volume

    # -- singular weight -------------------------------------------------------

    def singular_weight(self, a: float) -> np.ndarray:
        """Per-cell weights for the measure rho^-a d xi, cached per a and
        read-only.

        Off the singular head the weight is gauge(center)^-a.  Cells whose
        center lies within _HEAD_CELLS * max(h) of the origin in gauge
        distance get the cell average of rho^-a by _SUBSAMPLES^3 midpoint
        subsampling (an even count, so no subsample ever lands on the
        origin); this removes the O(h) quadrature excess a bare midpoint
        value would leave next to the singular sheet |z|^4 = t^2 scale.
        Both are evaluated on the closed positive octant only, the cells
        from index n // 2 on along each axis, and copied to the mirror
        cells, w[i] = w[n - 1 - i] for i < n // 2 along each axis in turn:
        the weights are exactly even in x, y and t.
        """
        if a < 0:
            raise ValueError("weight exponent a must be >= 0")
        if a >= 4.0 and self.contains_origin():
            raise ValueError(f"rho^-{a} is not integrable over a domain containing 0")
        key = ("weight", round(float(a), 12))
        if key in self._cache:
            return self._cache[key]
        octant = tuple(slice(n // 2, None) for n in self.shape)
        rho = self.gauge()[octant]
        head = rho <= _HEAD_CELLS * max(self.spacing)
        w = np.empty(self.shape)
        wo = w[octant]
        wo[~head] = rho[~head] ** (-a)
        wo[head] = gauge_power_cell_averages(
            self.spacing, tuple(c[octant][head] for c in self.coords()), -a, _SUBSAMPLES)
        for axis, n in enumerate(self.shape):
            low = (slice(None),) * axis + (slice(None, n // 2),)
            w[low] = np.flip(w, axis)[low]
        w[~self.mask] = 0.0
        self._cache[key] = _read_only(w)
        return w


def box_grid(n: int, extent: float = 1.0) -> GridDomain:
    """Full box [-extent,extent]^3, n cells per axis."""
    return GridDomain(shape=(n, n, n), extents=(extent, extent, extent))


def ball_grid(n: int) -> GridDomain:
    """Unit Koranyi ball {(|z|^4+t^2)^(1/4) <= 1}, masked out of its bounding
    box [-1,1]^3, n cells per axis."""
    box = GridDomain(shape=(n, n, n), extents=(1.0, 1.0, 1.0))
    return GridDomain(shape=box.shape, extents=box.extents, mask=box.gauge() <= 1.0)


def group_lattice_grid(n: int) -> GridDomain:
    """Box grid on [-1,1]^2 whose centers form a subgroup: ht = 2*hx*hy
    exactly, n cells per axis."""
    hx = 2.0 / n
    ht = 2.0 * hx * hx
    return GridDomain(shape=(n, n, n), extents=(1.0, 1.0, n * ht / 2.0))


def orbit_images(domain: GridDomain, cells: np.ndarray) -> np.ndarray:
    """Flat indices of the 8 images of each cell under the symmetry group of L.

    The group is generated by the quarter turn (x, y, t) -> (-y, x, t) and
    the reflection (x, y, t) -> (x, -y, -t); on indices these are
    R: (i, j, k) -> (n-1-j, i, k) and S: (i, j, k) -> (i, n-1-j, nt-1-k).
    Returns an (8, len(cells)) int32 array whose row 0 is cells itself;
    row r is R^r and row 4 + r is S R^r.  The quarter turn maps the grid to
    itself only when the x and y axes agree; otherwise ValueError.
    """
    nx, ny, nt = domain.shape
    if nx != ny or domain.extents[0] != domain.extents[1]:
        raise ValueError(f"the x and y axes differ ({domain.shape}, {domain.extents}): "
                         "the quarter turn is not a symmetry of the grid")
    i, j, k = (c.astype(np.int32) for c in np.unravel_index(cells, domain.shape))
    out = np.empty((8, len(i)), dtype=np.int32)
    for r in range(4):
        out[r] = (i * ny + j) * nt + k
        out[4 + r] = (i * ny + (ny - 1 - j)) * nt + (nt - 1 - k)
        i, j = nx - 1 - j, i
    return out


@dataclass
class GridField:
    """Real values at the cell centers of a GridDomain."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.domain.shape:
            raise ValueError("field values do not match grid shape")

    def masked(self) -> np.ndarray:
        return self.values[self.domain.mask]


def zeros(domain: GridDomain) -> GridField:
    return GridField(domain, np.zeros(domain.shape))


def gauge_power_field(domain: GridDomain, a: float) -> GridField:
    """The field rho^-a with the singular head cell-averaged.

    This is the canonical discrete stand-in for gauge^-a in oracle tests; it
    reuses the singular-weight construction so the origin cell is finite.
    """
    return GridField(domain, domain.singular_weight(a).copy())


# -- serialization -----------------------------------------------------------

def save_field(f: GridField, path: str | Path) -> None:
    """Flat binary layout: magic, dims (int64), extents+spacing (float64),
    then values in x-fastest order.  Little-endian throughout.  A domain
    whose mask is not the full box appends the mask as bits (np.packbits,
    x-fastest), zero-padded to a multiple of 8 bytes."""
    dom = f.domain
    nx, ny, nt = dom.shape
    header = np.array([nx, ny, nt], dtype="<i8").tobytes()
    geom = np.array(list(dom.extents) + list(dom.spacing), dtype="<f8").tobytes()
    payload = np.asarray(f.values, dtype="<f8").ravel(order="F").tobytes()
    trailer = b""
    if not dom.mask.all():
        bits = np.packbits(dom.mask.ravel(order="F")).tobytes()
        trailer = bits + bytes(-len(bits) % 8)
    atomic_write_bytes(path, _MAGIC + header + geom + payload + trailer)


def load_field(path: str | Path) -> GridField:
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a grid-field file")
    off = len(_MAGIC)
    dims = np.frombuffer(raw, dtype="<i8", count=3, offset=off)
    off += 3 * 8
    geom = np.frombuffer(raw, dtype="<f8", count=6, offset=off)
    off += 6 * 8
    shape = tuple(int(d) for d in dims)
    ncell = shape[0] * shape[1] * shape[2]
    vals = np.frombuffer(raw, dtype="<f8", count=ncell, offset=off)
    off += ncell * 8
    mask = None
    if len(raw) > off:
        nbits = -(-ncell // 8)
        if len(raw) - off != nbits + (-nbits % 8):
            raise ValueError(f"{path}: mask section has the wrong length")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8, count=nbits, offset=off),
                             count=ncell)
        mask = bits.astype(bool).reshape(shape, order="F")
    dom = GridDomain(shape=shape, extents=(geom[0], geom[1], geom[2]), mask=mask)
    return GridField(dom, vals.reshape(shape, order="F").copy())
