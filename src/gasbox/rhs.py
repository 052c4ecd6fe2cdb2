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

from dataclasses import fields

import numpy as np

from .fluxes import LambdaVariant, convective_flux, diffusion_coeffs, split_diffusive_flux
from .grid import _slab
from .thermo import PrimitiveFields, face_means, primitives_from_conserved

__all__ = [
    "boundary_node_mask",
    "apply_boundary_state",
    "face_states",
    "face_fluxes",
    "assemble_rhs",
]


# Faces per block of the tendency loop: small temporaries are reused by the
# allocator from block to block and stay in cache, where whole-slab ones
# (~100 MB at 64^3) were faulted in afresh by every evaluation.
_BLOCK_FACES = 1 << 15


def boundary_node_mask(grid):
    """Boolean mask of wall nodes (first/last index along active axes)."""
    mask = np.zeros(grid.shape, dtype=bool)
    for ax in grid.active_axes:
        idx = [slice(None)] * 3
        idx[ax] = 0
        mask[tuple(idx)] = True
        idx[ax] = -1
        mask[tuple(idx)] = True
    return mask


def apply_boundary_state(u5, grid):
    """Return a copy with momentum zeroed on all wall nodes; rho, E untouched."""
    out = np.array(u5, dtype=float, copy=True)
    mask = boundary_node_mask(grid)
    out[1:4, mask] = 0.0
    return out


def _side(prim, axis, lo, hi):
    """Slab view ``lo:hi`` along ``axis`` of every per-node field."""
    index = (slice(None),) * axis + (slice(lo, hi),)

    def cut(a):
        if a is None:
            return None
        if isinstance(a, tuple):
            return tuple(c[index] for c in a)
        return a[index]

    return PrimitiveFields(**{f.name: cut(getattr(prim, f.name)) for f in fields(prim)})


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
    flux -= split_diffusive_flux(face, coeffs, h, gas)[0]
    return flux, coeffs


def assemble_rhs(u5, grid, gas, variant=LambdaVariant.FIRST_ORDER, source=None, t=0.0,
                 prim=None, tilde_nu_max=None):
    """Tendency du/dt of the full scheme on an admissible field.

    Raises :class:`~gasbox.thermo.PositivityError` if the state is not
    admissible (checked by the primitive conversion unless ``prim`` hands
    in the primitives of ``u5``).  ``source(grid, t)``, if given, is added
    before the wall momentum rows are frozen.  If ``tilde_nu_max`` is a
    list, the largest combined face diffusion coefficient of each active
    axis is appended to it.
    """
    u5 = np.asarray(u5, dtype=float)
    if prim is None:
        prim = primitives_from_conserved(u5, gas)
    tend = np.zeros_like(u5)
    for ax in grid.active_axes:
        # faces normal to ``ax`` in blocks of whole planes along axis ``b``;
        # du/dt -= (F_{i+1/2} - F_{i-1/2}) / width in place on slab views,
        # the wall faces carrying no flux
        b, c = (1 if ax == 0 else 0), ax + 1
        step = max(1, _BLOCK_FACES * grid.shape[b] // prim.rho.size)
        width = grid.width_along(ax)
        coeff_max = []
        for lo in range(0, grid.shape[b], step):
            face = face_states(_side(prim, b, lo, lo + step), ax)
            flux, coeffs = face_fluxes(face, grid, gas, variant)
            coeff_max.append(float(np.max(coeffs.tilde_nu)))
            block = _slab(tend, b + 1, lo, lo + step)
            inner = _slab(block, c, 1, -1)
            inner -= (_slab(flux, c, 1, None) - _slab(flux, c, None, -1)) / _slab(width, ax, 1, -1)
            _slab(block, c, 0, 1)[...] -= _slab(flux, c, 0, 1) / _slab(width, ax, 0, 1)
            _slab(block, c, -1, None)[...] += _slab(flux, c, -1, None) / _slab(width, ax, -1, None)
        if tilde_nu_max is not None:
            tilde_nu_max.append(max(coeff_max))
    if source is not None:
        tend += source(grid, t)
    tend[1:4, boundary_node_mask(grid)] = 0.0
    return tend
