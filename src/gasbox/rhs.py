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
from .grid import _slab
from .thermo import PrimitiveFields, face_means, primitives_from_conserved

__all__ = [
    "apply_boundary_state",
    "face_states",
    "face_blocks",
    "face_fluxes",
    "assemble_rhs",
]


# Faces per block of every face loop (:func:`face_blocks`): small
# temporaries are reused by the allocator from block to block and stay in
# cache, where whole-slab ones (~100 MB at 64^3) were faulted in afresh by
# every evaluation.
_BLOCK_FACES = 1 << 15


def _zero_wall_momenta(u5, grid):
    """Zero the momentum rows of the wall nodes in place, through the first and
    last plane along each active axis (~20x faster than ``grid.wall_mask``)."""
    for ax in grid.active_axes:
        _slab(u5[1:4], ax + 1, 0, 1)[...] = 0.0
        _slab(u5[1:4], ax + 1, -1, None)[...] = 0.0


def apply_boundary_state(u5, grid):
    """Return a copy with momentum zeroed on all wall nodes; rho, E untouched."""
    out = np.array(u5, dtype=float, copy=True)
    _zero_wall_momenta(out, grid)
    return out


def _side(prim, axis, lo, hi):
    """Slab view ``lo:hi`` along ``axis`` of every per-node field."""
    ix = (slice(None),) * axis + (slice(lo, hi),)
    return PrimitiveFields(
        rho=prim.rho[ix], vel=tuple(c[ix] for c in prim.vel), p=prim.p[ix], T=prim.T[ix],
        beta=prim.beta[ix], log_rho=prim.log_rho[ix], log_beta=prim.log_beta[ix],
        inv_beta=prim.inv_beta[ix], speed_sq=prim.speed_sq[ix],
        momenta=tuple(c[ix] for c in prim.momenta), rho_speed_sq=prim.rho_speed_sq[ix],
        T4=None if prim.T4 is None else prim.T4[ix])


def face_states(prim, axis):
    """Face bundle (:class:`~gasbox.thermo.FaceState`) of the interior
    faces along ``axis``, with left/right views into ``prim``."""
    return face_means(axis, _side(prim, axis, None, -1), _side(prim, axis, 1, None))


def face_fluxes(face, grid, gas, variant):
    """(total face flux, diffusion coefficients) of one face bundle; the
    total is the convective minus the diffusive flux."""
    h = grid.spacing[face.axis]
    coeffs = diffusion_coeffs(face, h, variant, gas)
    flux = convective_flux(face, gas)
    # one pass of the combined coefficient over the gradient stencil; the
    # split into physical and artificial parts is for the diagnostics
    diffusive = _gradient_vector(face, h, gas)
    diffusive *= coeffs.tilde_nu
    if gas.kappa_r != 0.0:
        diffusive[4] += _radiation_row(face, h, gas)
    flux -= diffusive
    return flux, coeffs


def face_blocks(prim, grid):
    """Yield ``(face, index)`` for the interior faces of every active axis
    in blocks of about ``_BLOCK_FACES`` faces, axis by axis.

    ``face`` is the block's :class:`~gasbox.thermo.FaceState`; ``index``
    cuts the block's nodes out of a node array (prepend ``slice(None)`` for
    a component axis).  A block is a run of whole planes along the first
    axis other than ``face.axis``: it holds whole grid lines along
    ``face.axis``, and ``index[-1]`` picks its rows of ``grid.face_area``.
    """
    for ax in grid.active_axes:
        b = 1 if ax == 0 else 0
        step = max(1, _BLOCK_FACES * grid.shape[b] // prim.rho.size)
        for lo in range(0, grid.shape[b], step):
            block = prim if step >= grid.shape[b] else _side(prim, b, lo, lo + step)
            yield face_states(block, ax), (slice(None),) * b + (slice(lo, lo + step),)


def assemble_rhs(u5, grid, gas, variant=LambdaVariant.FIRST_ORDER, forcing=None, prim=None,
                 on_block=None):
    """Tendency du/dt of the full scheme on an admissible field.

    Raises :class:`~gasbox.thermo.PositivityError` if the state is not
    admissible (checked by the primitive conversion unless ``prim`` hands
    in the primitives of ``u5``).  ``forcing``, an evaluated source array
    of ``u5``'s shape, is added before the wall momentum rows are frozen.
    ``on_block(face, index, flux, coeffs)``, if given, is called for each
    block of :func:`face_blocks` with the results of :func:`face_fluxes`,
    which it must not write.
    """
    u5 = np.asarray(u5, dtype=float)
    if prim is None:
        prim = primitives_from_conserved(u5, gas)
    tend = np.zeros_like(u5)
    for face, index in face_blocks(prim, grid):
        # du/dt -= (F_{i+1/2} - F_{i-1/2}) / width in place on the block's
        # view, the wall faces carrying no flux
        ax, c = face.axis, face.axis + 1
        flux, coeffs = face_fluxes(face, grid, gas, variant)
        if on_block is not None:
            on_block(face, index, flux, coeffs)
        block = tend[(slice(None),) + index]
        inv_w = grid.inv_widths[ax]
        diff = np.subtract(_slab(flux, c, 1, None), _slab(flux, c, None, -1))
        _slab(block, c, 1, -1)[...] -= np.multiply(diff, _slab(inv_w, ax, 1, -1), out=diff)
        _slab(block, c, 0, 1)[...] -= _slab(flux, c, 0, 1) * _slab(inv_w, ax, 0, 1)
        _slab(block, c, -1, None)[...] += _slab(flux, c, -1, None) * _slab(inv_w, ax, -1, None)
        # free this block's face bundle before the next one is built
        del face, flux, coeffs
    return _add_forcing(tend, forcing, grid)


def _add_forcing(tend, forcing, grid):
    """Add ``forcing`` (None for none) to the tendency ``tend`` in place,
    then freeze its wall momentum rows; returns ``tend``."""
    if forcing is not None:
        tend += forcing
    _zero_wall_momenta(tend, grid)
    return tend
