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
    "grid_sequence",
    "diff_plus",
    "sbp_residual",
    "discrete_norm",
    "gradient_norm_l2",
]


@dataclass(frozen=True)
class Grid:
    """Immutable grid geometry.

    Attributes
    ----------
    extent : box side lengths
    nodes : per-axis node coordinate arrays, lengths n+1 (or 1)
    widths : per-axis dual (control-volume) widths, lengths n+1 (or 1):
        the distance between the faces x_{i-1/2} and x_{i+1/2}
    spacing : per-axis uniform node spacing h (extent for degenerate axes)
    cell_volumes : V, shape ``shape``
    face_areas : per axis, the areas of the faces normal to it; e.g.
        ``face_areas[0][j, k]`` multiplies every x-face flux in column (j, k)
    active_axes : the axes with n >= 2, along which fluxes are computed
    """

    extent: tuple
    nodes: tuple
    widths: tuple
    spacing: tuple
    cell_volumes: np.ndarray
    face_areas: tuple
    active_axes: tuple = field(default=())

    @cached_property
    def shape(self):
        return tuple(w.size for w in self.widths)

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
    for a in (nodes, widths):
        a.setflags(write=False)
    return nodes, widths


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
    # a wall cell is half as wide as an interior one: the face areas and
    # volumes of build_grid lie between the products of these widths
    for wx, wy, wz in ([e / n / k if n else e for n, e in zip(n_per_axis, extent)] for k in (1.0, 2.0)):
        if not all(0.0 < a < np.inf for a in (wy * wz, wx * wz, wx * wy, wx * wy * wz)):
            raise ValueError(f"box extent {extent} makes a cell volume or face area zero or infinite")
    return n_per_axis, extent


def grid_sequence(ns):
    """Interval counts of a grid-refinement study as a tuple, checked: at
    least two, each >= 2 and each double the one before."""
    ns = tuple(int(n) for n in ns)
    if len(ns) < 2 or ns[0] < 2:
        raise ValueError(f"need at least two grids of >= 2 intervals, got {ns}")
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ValueError(f"grid sequence must refine by exactly 2 (got {a} -> {b})")
    return ns


def build_grid(n_per_axis, extent=(1.0, 1.0, 1.0)):
    """Build a uniform node-centered grid.

    ``n_per_axis`` gives the interval count N per axis (N+1 nodes); a
    trailing axis may be 0 to collapse it.  The rules are those of
    :func:`grid_shape`.
    """
    n_per_axis, extent = grid_shape(n_per_axis, extent)

    nodes, widths, spacing = [], [], []
    for n, length in zip(n_per_axis, extent):
        nd, w = _axis_geometry(n, length)
        nodes.append(nd)
        widths.append(w)
        spacing.append(length / n if n > 0 else length)

    wx, wy, wz = widths
    area_x = np.multiply.outer(wy, wz)
    area_y = np.multiply.outer(wx, wz)
    area_z = np.multiply.outer(wx, wy)
    volumes = wx[:, None, None] * area_x[None, :, :]
    for a in (area_x, area_y, area_z, volumes):
        a.setflags(write=False)

    return Grid(
        extent=extent,
        nodes=tuple(nodes),
        widths=tuple(widths),
        spacing=tuple(spacing),
        cell_volumes=volumes,
        face_areas=(area_x, area_y, area_z),
        active_axes=tuple(ax for ax, n in enumerate(n_per_axis) if n > 0),
    )


def _slab(arr, axis, lo, hi):
    index = [slice(None)] * arr.ndim
    index[axis] = slice(lo, hi)
    return arr[tuple(index)]


def diff_plus(a, grid, axis):
    """Forward difference along ``axis`` divided by the node spacing h,
    defined on faces i+1/2, i = 0..N-1: one shorter than ``a`` along ``axis``."""
    a = np.asarray(a)
    ax = axis + max(a.ndim - 3, 0)  # allow a leading component axis
    return (_slab(a, ax, 1, None) - _slab(a, ax, None, -1)) / grid.spacing[axis]


def sbp_residual(a, b_face, grid, axis):
    """Defect of the summation-by-parts identity along one axis.

    ``a`` is a nodal field; ``b_face`` holds one value per face including
    the two wall faces, so it is one longer than ``a`` along ``axis``.
    The identity

        sum_i a_i (b_{i+1/2} - b_{i-1/2})
            = -a_0 b_{-1/2} + a_N b_{N+1/2} - sum_{i<N} (a_{i+1} - a_i) b_{i+1/2}

    holds per grid line; returns |lhs - rhs| with both sides summed over
    the whole field.  A leading sample axis (``a`` of shape ``(k,) +
    grid.shape``) gives k residuals, each that of its sample alone.
    """
    a = np.asarray(a, dtype=float)
    b_face = np.asarray(b_face, dtype=float)
    ax = axis + a.ndim - 3  # after a leading sample axis, if any
    nodes, planes = tuple(range(a.ndim - 3, a.ndim)), tuple(range(a.ndim - 3, a.ndim - 1))
    lhs = np.sum(a * (_slab(b_face, ax, 1, None) - _slab(b_face, ax, None, -1)), axis=nodes)
    first, last = np.take(a, 0, axis=ax), np.take(a, -1, axis=ax)
    b_lo, b_hi = np.take(b_face, 0, axis=ax), np.take(b_face, -1, axis=ax)
    da = _slab(a, ax, 1, None) - _slab(a, ax, None, -1)
    rhs = (np.sum(last * b_hi, axis=planes) - np.sum(first * b_lo, axis=planes)
           - np.sum(da * _slab(b_face, ax, 1, -1), axis=nodes))
    out = np.abs(lhs - rhs)
    return float(out) if out.ndim == 0 else out


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
