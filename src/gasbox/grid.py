"""Node-centered Cartesian grid on a closed box, with difference operators.

Layout
------
Each axis with N >= 2 intervals carries N+1 nodes x_0..x_N at uniform
spacing h = extent/N.  Every node owns a control volume bounded by the
face coordinates x_{i+1/2} = (x_i + x_{i+1})/2; the boundary faces
coincide with the walls (x_{-1/2} = x_0, x_{N+1/2} = x_N), so boundary
control volumes are half-width and the volumes partition the box.

An axis may instead be degenerate (N = 0): a single node spanning the
full extent.  No fluxes are ever computed along a degenerate axis, which
is how 1D and 2D problems are run.

Scalar fields are numpy arrays of shape ``grid.shape`` (one value per
node, C order, last index fastest); 5-component fields prepend the
component axis, shape ``(5,) + grid.shape``.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "build_grid",
    "grid_shape",
    "diff_plus",
    "diff_minus",
    "sbp_residual",
    "discrete_norm",
    "gradient_norm_l2",
]


@dataclass(frozen=True)
class Grid:
    """Immutable grid geometry; safe to share between threads.

    Attributes
    ----------
    n_intervals : per-axis interval counts (0 marks a degenerate axis)
    extent : box side lengths
    nodes : per-axis node coordinate arrays, lengths n+1 (or 1)
    faces : per-axis face coordinates including the wall faces,
        lengths n+2 (or 2); ``faces[ax][i]`` is x_{i-1/2}
    widths : per-axis dual (control-volume) widths, lengths n+1 (or 1)
    spacing : per-axis uniform node spacing h (extent for degenerate axes)
    cell_volumes : V, shape ``shape``
    face_area_x/y/z : wall-parallel control-surface areas; e.g.
        ``face_area_x[j, k]`` multiplies every x-face flux in column (j, k)
    """

    n_intervals: tuple
    extent: tuple
    nodes: tuple
    faces: tuple
    widths: tuple
    spacing: tuple
    cell_volumes: np.ndarray
    face_area_x: np.ndarray
    face_area_y: np.ndarray
    face_area_z: np.ndarray
    h_max: float
    active_axes: tuple = field(default=())

    @property
    def shape(self):
        return tuple(w.size for w in self.widths)

    @property
    def ndim_active(self):
        return len(self.active_axes)

    @property
    def box_volume(self):
        return self.extent[0] * self.extent[1] * self.extent[2]

    def face_area(self, axis):
        return (self.face_area_x, self.face_area_y, self.face_area_z)[axis]

    def width_along(self, axis):
        """Dual widths broadcast against full node arrays along ``axis``."""
        w = self.widths[axis]
        shape = [1, 1, 1]
        shape[axis] = w.size
        return w.reshape(shape)

    @cached_property
    def inv_widths(self):
        """Per axis, 1 / :meth:`width_along`; computed once per grid."""
        out = tuple(1.0 / self.width_along(ax) for ax in range(3))
        for a in out:
            a.setflags(write=False)
        return out

    @cached_property
    def wall_mask(self):
        """Boolean mask of the wall nodes (first/last index along active
        axes); computed once per grid."""
        mask = np.zeros(self.shape, dtype=bool)
        for ax in self.active_axes:
            _slab(mask, ax, 0, 1)[...] = True
            _slab(mask, ax, -1, None)[...] = True
        mask.setflags(write=False)
        return mask


def _axis_geometry(n, length):
    if n == 0:
        nodes = np.array([0.5 * length])
        faces = np.array([0.0, length])
    else:
        nodes = np.linspace(0.0, length, n + 1)
        faces = np.concatenate(([nodes[0]], 0.5 * (nodes[:-1] + nodes[1:]), [nodes[-1]]))
    widths = np.diff(faces)
    for a in (nodes, faces, widths):
        a.setflags(write=False)
    return nodes, faces, widths


def grid_shape(n_per_axis, extent=(1.0, 1.0, 1.0)):
    """``(n_per_axis, extent)`` as tuples, checked as :func:`build_grid`
    needs them; ValueError names the rule a value breaks.

    N = 1 is rejected: both nodes would be wall nodes and the interior
    flux stencil would be empty.
    """
    if np.isscalar(n_per_axis):
        n_per_axis = (int(n_per_axis),) * 3
    n_per_axis = tuple(int(n) for n in n_per_axis)
    if len(n_per_axis) != 3:
        raise ValueError("n_per_axis must be a scalar or a length-3 sequence")
    extent = tuple(float(e) for e in extent)
    for n in n_per_axis:
        if n < 0 or n == 1:
            raise ValueError(f"intervals per axis must be >= 2 (or 0 to collapse an axis), got {n}")
    if not any(n_per_axis):
        raise ValueError("at least one axis must be non-degenerate")
    for e in extent:
        if not 0.0 < e < np.inf:
            raise ValueError(f"box extent must be positive and finite, got {e}")
    return n_per_axis, extent


def build_grid(n_per_axis, extent=(1.0, 1.0, 1.0)):
    """Build a uniform node-centered grid.

    ``n_per_axis`` gives the interval count N per axis (N+1 nodes); a
    trailing axis may be 0 to collapse it.  The rules are those of
    :func:`grid_shape`.
    """
    n_per_axis, extent = grid_shape(n_per_axis, extent)

    nodes, faces, widths, spacing = [], [], [], []
    for n, length in zip(n_per_axis, extent):
        nd, fc, w = _axis_geometry(n, length)
        nodes.append(nd)
        faces.append(fc)
        widths.append(w)
        spacing.append(length / n if n > 0 else length)

    wx, wy, wz = widths
    area_x = np.multiply.outer(wy, wz)
    area_y = np.multiply.outer(wx, wz)
    area_z = np.multiply.outer(wx, wy)
    volumes = wx[:, None, None] * area_x[None, :, :]
    for a in (area_x, area_y, area_z, volumes):
        a.setflags(write=False)

    active = tuple(ax for ax, n in enumerate(n_per_axis) if n > 0)
    h_max = max(spacing[ax] for ax in active)

    return Grid(
        n_intervals=n_per_axis,
        extent=extent,
        nodes=tuple(nodes),
        faces=tuple(faces),
        widths=tuple(widths),
        spacing=tuple(spacing),
        cell_volumes=volumes,
        face_area_x=area_x,
        face_area_y=area_y,
        face_area_z=area_z,
        h_max=h_max,
        active_axes=active,
    )


def _slab(arr, axis, lo, hi):
    index = [slice(None)] * arr.ndim
    index[axis] = slice(lo, hi)
    return arr[tuple(index)]


def diff_plus(a, grid, axis, divided=True):
    """Forward difference along ``axis``, defined on faces i+1/2, i = 0..N-1.

    Output is one shorter than the input along ``axis``.  With
    ``divided`` the difference is divided by the node spacing h.
    """
    a = np.asarray(a)
    ax = axis + max(a.ndim - 3, 0)  # allow a leading component axis
    d = _slab(a, ax, 1, None) - _slab(a, ax, None, -1)
    if divided:
        d = d / grid.spacing[axis]
    return d


def diff_minus(a, grid, axis, divided=True):
    """Backward difference along ``axis`` with the wall convention D- a_0 = 0.

    Output has the same shape as the input; slot 0 along ``axis`` is 0.
    """
    a = np.asarray(a)
    out = np.zeros_like(a, dtype=float)
    ax = axis + max(a.ndim - 3, 0)
    d = _slab(a, ax, 1, None) - _slab(a, ax, None, -1)
    if divided:
        d = d / grid.spacing[axis]
    _slab(out, ax, 1, None)[...] = d
    return out


def sbp_residual(a, b_face, grid, axis):
    """Defect of the summation-by-parts identity along one axis.

    ``a`` is a nodal field; ``b_face`` holds one value per face including
    the two wall faces, so it is one longer than ``a`` along ``axis``.
    The identity

        sum_i a_i (b_{i+1/2} - b_{i-1/2})
            = -a_0 b_{-1/2} + a_N b_{N+1/2} - sum_{i<N} (a_{i+1} - a_i) b_{i+1/2}

    holds per grid line; returns |lhs - rhs| with both sides summed over
    the whole field.
    """
    a = np.asarray(a, dtype=float)
    b_face = np.asarray(b_face, dtype=float)
    lhs = np.sum(a * (_slab(b_face, axis, 1, None) - _slab(b_face, axis, None, -1)))
    first = np.take(a, 0, axis=axis)
    last = np.take(a, -1, axis=axis)
    b_lo = np.take(b_face, 0, axis=axis)
    b_hi = np.take(b_face, -1, axis=axis)
    interior = _slab(b_face, axis, 1, -1)
    da = _slab(a, axis, 1, None) - _slab(a, axis, None, -1)
    rhs = np.sum(last * b_hi) - np.sum(first * b_lo) - np.sum(da * interior)
    return abs(float(lhs - rhs))


def discrete_norm(a, grid, p=2):
    """Volume-weighted l^p norm of a nodal field; p may be inf."""
    a = np.asarray(a, dtype=float)
    if np.isinf(p):
        return float(np.max(np.abs(a)))
    if p < 1:
        raise ValueError("norm order must satisfy p >= 1")
    return float(np.sum(grid.cell_volumes * np.abs(a) ** p) ** (1.0 / p))


def gradient_norm_l2(a, grid):
    """l2 norm of the forward-difference gradient.

    Per axis the face values D+ a (i = 0..N-1) are weighted by the volume
    of the left node; degenerate axes contribute nothing.
    """
    a = np.asarray(a, dtype=float)
    total = 0.0
    for ax in grid.active_axes:
        d = diff_plus(a, grid, ax)
        v = _slab(grid.cell_volumes, ax, None, -1)
        total += float(np.sum(v * d * d))
    return float(np.sqrt(total))
