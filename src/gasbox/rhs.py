"""Semi-discrete tendency assembly with the closed-box wall closures.

The update for every node is

    du/dt = - sum over active axes of  (F_{+} - F_{-}) / width,

where F are total face fluxes (convective minus diffusive) on the faces
of the node's control volume.  Wall closures:

* wall faces carry zero mass and energy flux, both convective (no-slip
  kills the transport) and diffusive (homogeneous Neumann for density and
  temperature);
* momentum rows of every wall node are frozen (tendency forced to exact
  zero), which is the flux-mirroring convention in disguise: with zero
  initial wall momentum the no-slip state persists for all time;
* fluxes tangential to a wall are computed normally.

Fields must be admissible on entry: positive, finite density and
pressure everywhere, zero momentum on wall nodes.
"""

import numpy as np

from .fluxes import LambdaVariant, _gradient_vector, _radiation_row, convective_flux, diffusion_coeffs
from .thermo import PrimitiveFields, face_means, primitives_from_conserved

__all__ = [
    "apply_boundary_state",
    "face_blocks",
    "face_fluxes",
    "assemble_rhs",
]


# Faces per block of every face loop (:func:`face_blocks`): small
# temporaries are reused by the allocator from block to block and stay in
# cache, where whole-slab ones (~100 MB at 64^3) were faulted in afresh by
# every evaluation.
_BLOCK_FACES = 1 << 15


def _walk_plan(grid):
    """The face walk on ``grid``, planned on its first walk and kept on the
    grid, so a change of ``_BLOCK_FACES`` reaches only grids not walked yet:
    ``(blocks, wall planes)``.  Per block: its axis, the cuts of its faces'
    two sides and of its nodes (each for node and stacked arrays), and the
    cuts, slabs and inverse dual widths the scatter of :func:`assemble_rhs` reads."""
    if (plan := grid.__dict__.get("_walk_plan")) is not None:
        return plan
    shape, blocks, walls = grid.shape, [], []
    for ax in grid.active_axes:
        along = (slice(None),) * (ax + 1)  # cuts along ax of a stacked array
        ends = [along + (cut,) for cut in (slice(1, -1), slice(0, 1), slice(-1, None))]
        inv_widths = 1.0 / grid.widths[ax].reshape([-1 if a == ax else 1 for a in range(3)])
        scatter = (*ends, along + (slice(1, None),), along + (slice(None, -1),),
                   *(inv_widths[end[1:]] for end in ends))
        walls += ends[1:]
        # a block is a run of whole planes along the first axis b other than ax
        b = 1 if ax == 0 else 0
        step = max(1, _BLOCK_FACES * shape[b] // grid.cell_volumes.size)
        for lo in range(0, shape[b], step):
            index = (slice(None),) * b + (slice(lo, lo + step),)
            sides = [index[:ax] + (slice(None),) * (ax - len(index)) + (cut,) + index[ax + 1:]
                     for cut in (slice(None, -1), slice(1, None))]  # index, cut along ax
            blocks.append((ax, *((ix, (slice(None),) + ix) for ix in (*sides, index)), scatter))
    return grid.__dict__.setdefault("_walk_plan", (tuple(blocks), tuple(walls)))


def _zero_wall_momenta(u5, grid):
    """Zero the momentum rows of the wall nodes in place, through the first and
    last plane along each active axis (~20x faster than ``grid.wall_mask``)."""
    momenta = u5[1:4]
    for plane in _walk_plan(grid)[1]:
        momenta[plane] = 0.0


def apply_boundary_state(u5, grid):
    """Return a copy with momentum zeroed on all wall nodes; rho, E untouched."""
    out = np.array(u5, dtype=float, copy=True)
    _zero_wall_momenta(out, grid)
    return out


def face_fluxes(face, grid, gas, variant):
    """(total face flux, combined diffusion coefficient tilde_nu) of one
    face bundle; the total is the convective minus the diffusive flux."""
    h = grid.spacing[face.axis]
    tilde_nu = diffusion_coeffs(face, h, variant, gas)
    flux = convective_flux(face, gas)
    # one pass of the combined coefficient over the gradient stencil
    diffusive = _gradient_vector(face, h, gas)
    diffusive *= tilde_nu
    if gas.kappa_r != 0.0:
        diffusive[4] += _radiation_row(face, h, gas)
    flux -= diffusive
    return flux, tilde_nu


def face_blocks(prim, grid):
    """Yield ``(face, index)`` for the interior faces of every active axis
    in blocks of about ``_BLOCK_FACES`` faces (its value at the grid's
    first walk), axis by axis.

    ``face`` is the block's :class:`~gasbox.thermo.FaceState`; ``index``
    cuts the block's nodes out of a node array (prepend ``slice(None)`` for
    a component axis).  A block is a run of whole planes along the first
    axis other than ``face.axis``: it holds whole grid lines along
    ``face.axis``, and ``index[-1]`` picks its rows of ``grid.face_areas[face.axis]``.
    """
    for face, (index, _), _ in _walk(prim, grid):
        yield face, index


def _walk(prim, grid):
    """Per block of the plan: its face bundle, node cuts and scatter; a
    side of a block is one cut of the node array (and of p and T)."""
    nodes, p, T = prim.nodes, prim.p, prim.T
    for ax, (lix, lvix), (rix, rvix), cuts, scatter in _walk_plan(grid)[0]:
        yield (face_means(ax, PrimitiveFields(nodes[lvix], p[lix], T[lix]),
                          PrimitiveFields(nodes[rvix], p[rix], T[rix])), cuts, scatter)


def assemble_rhs(u5, grid, gas, variant=LambdaVariant.FIRST_ORDER, forcing=None, prim=None,
                 on_block=None):
    """Tendency du/dt of the full scheme on an admissible field.

    Raises :class:`~gasbox.thermo.PositivityError` if the state is not
    admissible (checked by the primitive conversion unless ``prim`` hands
    in the primitives of ``u5``).  ``forcing``, an evaluated source array
    of ``u5``'s shape, is added before the wall momentum rows are frozen.
    ``on_block(face, index, flux, tilde_nu)``, if given, is called for each
    block of :func:`face_blocks` with the results of :func:`face_fluxes`,
    which it must not write.
    """
    u5 = np.asarray(u5, dtype=float)
    if prim is None:
        prim = primitives_from_conserved(u5, gas)
    tend = np.zeros(u5.shape)
    for face, (index, rows), scatter in _walk(prim, grid):
        flux, tilde_nu = face_fluxes(face, grid, gas, variant)
        if on_block is not None:
            on_block(face, index, flux, tilde_nu)
        # du/dt -= (F_{i+1/2} - F_{i-1/2}) / width in place on the block's
        # nodes, the wall faces carrying no flux
        interior, first, last, above, below, w_int, w_first, w_last = scatter
        block = tend[rows]
        diff = np.subtract(flux[above], flux[below])
        block[interior] -= np.multiply(diff, w_int, out=diff)
        block[first] -= flux[first] * w_first
        block[last] += flux[last] * w_last
        # free this block's face bundle before the next one is built
        del face, flux, tilde_nu, diff
    if forcing is not None:
        tend += forcing
    _zero_wall_momenta(tend, grid)
    return tend
