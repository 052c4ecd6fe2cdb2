"""Ideal-gas state algebra and entropy quantities.

Conserved fields are arrays (rho, m1, m2, m3, E) stacked along a leading
component axis.  Primitive quantities are kept together with
beta = 1/(2 R T) = rho/(2 p), which appears in every flux formula; it is
computed once here so all downstream formulas share one value.

The entropy machinery uses the specific entropy s = log(p / rho^gamma)
and the scaled entropy function

    U = -rho s / (gamma - 1),

whose gradient with respect to the conserved variables is exactly the
variable vector

    w = (gamma/(gamma-1) - s/(gamma-1) - beta |v|^2,
         2 beta u, 2 beta v, 2 beta w, -2 beta).

The unscaled -rho s differs from U only by the constant positive factor
(gamma - 1), so monotonicity statements transfer either way; the scaled
form is the one for which w . du/dt = dU/dt holds identically.
"""

from dataclasses import dataclass, field
import warnings

import numpy as np

from .means import PairMeans, _pair_fields

__all__ = [
    "GasParams",
    "PositivityError",
    "PrimitiveFields",
    "FaceState",
    "primitives",
    "primitives_from_conserved",
    "face_means",
    "conserved_from_primitives",
    "specific_entropy",
    "entropy_function",
    "entropy_variables",
    "delta_w",
]


class PositivityError(Exception):
    """Nonpositive or non-finite density, pressure, temperature or beta at
    some cell.

    Recoverable: the time integrator catches it to reject a step.  Carries
    the offending quantity name, cell index and value for diagnostics.
    """

    def __init__(self, quantity, index, value):
        self.quantity = quantity
        self.index = index
        self.value = value
        super().__init__(f"inadmissible {quantity} = {value:.6g} at cell {index}"
                         " (must be positive and finite)")


@dataclass(frozen=True)
class GasParams:
    """Physical constants of the gas and its diffusion model.

    gamma must lie in (1, 5/3] (ideal-gas validity window); mu0 is the
    rarefied-gas diffusion coefficient, mu1 the dense-gas one (normally
    mu0 >> mu1), kappa_r the radiative temperature-diffusion coefficient.
    c_v is stored once as R/(gamma-1) so every formula shares the value.
    """

    gamma: float = 1.4
    R: float = 1.0
    mu0: float = 0.0
    mu1: float = 0.0
    kappa_r: float = 0.0
    c_v: float = field(init=False)

    def __post_init__(self):
        for name in ("gamma", "R", "mu0", "mu1", "kappa_r"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 1.0 < self.gamma <= 5.0 / 3.0:
            raise ValueError(f"gamma must satisfy 1 < gamma <= 5/3 (ideal-gas validity), got {self.gamma}")
        if self.R <= 0.0:
            raise ValueError("gas constant R must be positive")
        for name in ("mu0", "mu1", "kappa_r"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.mu1 > self.mu0 > 0.0 or (self.mu0 == 0.0 and self.mu1 > 0.0):
            warnings.warn("mu1 exceeds mu0; the diffusion model expects mu0 >> mu1", stacklevel=2)
        object.__setattr__(self, "c_v", self.R / (self.gamma - 1.0))


# Rows of the node array of :class:`PrimitiveFields`, ordered so that two
# contiguous slices cover what a face block reads: the jump rows _RHO..
# (rho through T^4) and the sum rows .._LOG_RHO (|v|^2 through the velocity).
_SPEED_SQ, _RHO, _BETA, _VEL, _LOG_RHO, _LOG_BETA, _INV_BETA, _MOMENTA, _RHO_SPEED_SQ, _T4 = (
    0, 1, 2, slice(3, 6), 6, 7, 8, slice(9, 12), 12, 13)


def _row(row):
    index = (row, Ellipsis)  # a 0-d row of a 0-d field is still an array
    return property(lambda self: self.nodes[index])


@dataclass(frozen=True)
class PrimitiveFields:
    """Primitive view of a conserved field.

    ``nodes`` stacks, one row each, every per-node quantity the face
    formulas read, computed once per node: the primitive variables, the
    logs feeding the face log means, 1/beta, |v|^2, the momenta, rho |v|^2
    and, when radiation is on, T^4.  The attributes are views of its rows
    (``T4`` is None without radiation); p and T are arrays of their own.
    """

    nodes: np.ndarray
    p: np.ndarray
    T: np.ndarray

    rho = _row(_RHO)
    beta = _row(_BETA)
    vel = _row(_VEL)  # (u, v, w) stacked, shape (3,) + rho.shape
    speed_sq = _row(_SPEED_SQ)
    log_rho = _row(_LOG_RHO)
    log_beta = _row(_LOG_BETA)
    inv_beta = _row(_INV_BETA)
    momenta = _row(_MOMENTA)  # (rho u, rho v, rho w) stacked like vel
    rho_speed_sq = _row(_RHO_SPEED_SQ)

    @property
    def T4(self):
        return self.nodes[_T4, ...] if len(self.nodes) > _T4 else None


def _first_bad_index(mask):
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _require_admissible(quantity, values):
    """Raise :class:`PositivityError` unless every value is positive and finite."""
    # NaN fails both comparisons, so one min and one max cover every case;
    # the methods skip np.min's dispatch, half the cost on small arrays
    if not (values.min() > 0.0 and values.max() < np.inf):
        idx = _first_bad_index(~((values > 0.0) & (values < np.inf)))
        raise PositivityError(quantity, idx, float(values[idx]))


def _node_array(rho, gas):
    """An empty node array for densities ``rho``, holding rho already."""
    nodes = np.empty((_T4 + (gas.kappa_r != 0.0),) + rho.shape)
    nodes[_RHO] = rho
    return nodes


def _fields(nodes, p, gas):
    """Fill the rows of ``nodes`` that follow from its rho, velocity and
    |v|^2 rows and the pressure ``p``; p, T and beta are checked."""
    rho = nodes[_RHO, ...]
    _require_admissible("pressure", p)
    T = p / (rho * gas.R)
    beta = np.divide(rho, 2.0 * p, out=nodes[_BETA, ...])
    _require_admissible("temperature", T)
    _require_admissible("beta", beta)
    np.log(nodes[_RHO:_BETA + 1], out=nodes[_LOG_RHO:_LOG_BETA + 1])
    np.divide(1.0, beta, out=nodes[_INV_BETA, ...])
    np.multiply(rho, nodes[_VEL], out=nodes[_MOMENTA])
    np.multiply(rho, nodes[_SPEED_SQ, ...], out=nodes[_RHO_SPEED_SQ, ...])
    if gas.kappa_r != 0.0:
        nodes[_T4] = T ** 4  # not np.power(out=): a 0-d T is a scalar, whose power differs
    return PrimitiveFields(nodes, p, T)


def _sum_sq(vec, out=None):
    """|vec|^2 of a stacked (3, ...) vector field, summed in the order x, y, z."""
    sq = vec * vec
    out = np.add(sq[0], sq[1], out=out)
    out += sq[2]
    return out


def primitives_from_conserved(u5, gas):
    """Convert a conserved array (5, ...) to primitive fields.

    Raises :class:`PositivityError` (with the first offending cell) unless
    density, pressure, temperature and beta are positive and finite
    everywhere; any non-finite conserved entry ends up in one of them.
    Every face formula relies on this gate instead of checking again.
    """
    u5 = np.asarray(u5, dtype=float)
    rho = u5[0]
    _require_admissible("density", rho)
    nodes = _node_array(rho, gas)
    vel = np.divide(u5[1:4], rho, out=nodes[_VEL])
    speed_sq = _sum_sq(vel, out=nodes[_SPEED_SQ, ...])
    p = (gas.gamma - 1.0) * (u5[4] - 0.5 * rho * speed_sq)
    return _fields(nodes, p, gas)


def primitives(rho, vel, p, gas):
    """Build :class:`PrimitiveFields` directly from rho, velocity and pressure."""
    rho = np.asarray(rho, dtype=float)
    vel = [np.broadcast_to(np.asarray(c, dtype=float), rho.shape) for c in vel]
    p = np.asarray(p, dtype=float)
    _require_admissible("density", rho)
    nodes = _node_array(rho, gas)
    nodes[_VEL] = vel
    _sum_sq(nodes[_VEL], out=nodes[_SPEED_SQ, ...])
    return _fields(nodes, p, gas)


@dataclass(frozen=True)
class FaceState:
    """The face bundle of one set of faces normal to ``axis``: the only
    place a jump or a mean of the two sides of a face is formed.

    The fields are rows of one jump array and one mean array, or formed
    from them when the bundle is built.
    """

    axis: int
    left: PrimitiveFields
    right: PrimitiveFields
    rho: PairMeans  # rows of one stacked pair, so both log means are one chain
    beta: PairMeans
    vel_bar: np.ndarray  # stacked (3, ...) like PrimitiveFields.vel
    vel_jump: np.ndarray
    vel_jump_sq: np.ndarray  # |jump v|^2
    inv_beta_jump: np.ndarray
    momentum_jump: np.ndarray  # stacked like vel_jump
    rho_speed_sq_jump: np.ndarray
    T4_jump: np.ndarray  # None when kappa_r == 0
    ke_bar: np.ndarray  # mean(|v|^2 / 2), the specific kinetic energy
    p_face: np.ndarray  # mean(rho) / (2 mean(beta))
    inv_log_mean_beta: np.ndarray  # 1 / logmean(beta)
    normal_momentum_bar: np.ndarray  # mean(rho u_n), the convective mass flux


def face_means(axis, left, right):
    """Build the :class:`FaceState` of faces with ``left``/``right`` states.

    Every jump is one subtract over the jump rows of the two node arrays,
    every mean one add over their sum rows, and both log means one chain
    over the stacked rho and beta rows.
    """
    lnodes, rnodes = left.nodes, right.nodes
    jump = np.empty_like(rnodes)  # row _SPEED_SQ is not a jump row and stays unset
    np.subtract(rnodes[_RHO:], lnodes[_RHO:], out=jump[_RHO:])
    bar = np.add(lnodes[:_LOG_RHO], rnodes[:_LOG_RHO])
    ke_bar = 0.25 * bar[_SPEED_SQ]
    bar[_RHO:] *= 0.5
    pair = _pair_fields(jump[_RHO:_BETA + 1], jump[_LOG_RHO:_LOG_BETA + 1], bar[_RHO:_BETA + 1])
    rho, beta = (PairMeans(*(field[i] for field in pair)) for i in (0, 1))
    vel_jump = jump[_VEL]
    return FaceState(
        axis=axis, left=left, right=right, rho=rho, beta=beta,
        vel_bar=bar[_VEL],
        vel_jump=vel_jump,
        vel_jump_sq=_sum_sq(vel_jump),
        inv_beta_jump=jump[_INV_BETA],
        momentum_jump=jump[_MOMENTA],
        rho_speed_sq_jump=jump[_RHO_SPEED_SQ],
        T4_jump=jump[_T4] if len(jump) > _T4 else None,
        ke_bar=ke_bar,
        p_face=rho.bar / (2.0 * beta.bar),
        inv_log_mean_beta=1.0 / beta.ln,
        normal_momentum_bar=0.5 * (left.momenta[axis] + right.momenta[axis]),
    )


def conserved_from_primitives(rho, vel, p, gas):
    """Assemble the conserved array (5, ...) from rho, velocity and pressure."""
    rho = np.asarray(rho, dtype=float)
    u, v, w = (np.asarray(c, dtype=float) for c in vel)
    p = np.asarray(p, dtype=float)
    energy = p / (gas.gamma - 1.0) + 0.5 * rho * (u * u + v * v + w * w)
    return np.stack([rho, rho * u, rho * v, rho * w, energy])


def specific_entropy(prim, gas):
    """s = log(p / rho^gamma)."""
    return np.log(prim.p) - gas.gamma * prim.log_rho


def entropy_function(prim, gas):
    """Scaled entropy function U = -rho s / (gamma - 1)."""
    return -prim.rho * specific_entropy(prim, gas) / (gas.gamma - 1.0)


def entropy_variables(prim, gas):
    """Entropy-variable vector w (5, ...) in the beta scaling."""
    s = specific_entropy(prim, gas)
    gm1 = gas.gamma - 1.0
    w1 = gas.gamma / gm1 - s / gm1 - prim.beta * prim.speed_sq
    return np.concatenate([[w1], 2.0 * prim.beta * prim.vel, [-2.0 * prim.beta]])


def delta_w(face, gas):
    """Jump of the entropy variables across the faces of a :class:`FaceState`.

    Equals entropy_variables(right) - entropy_variables(left) identically
    (the log means turn the entropy-log jumps into algebraic quotients);
    this mean form is the one whose contraction with the fluxes telescopes
    in the entropy estimate.
    """
    d_beta = face.beta.jump
    beta_bar = face.beta.bar
    w1 = (face.rho.jump / face.rho.ln
          + (face.inv_log_mean_beta / (gas.gamma - 1.0) - 2.0 * face.ke_bar) * d_beta)
    kinetic = 2.0 * face.vel_bar * beta_bar * face.vel_jump
    w1 = w1 - kinetic[0] - kinetic[1] - kinetic[2]
    momentum_rows = 2.0 * beta_bar * face.vel_jump + 2.0 * face.vel_bar * d_beta
    return np.concatenate([[w1], momentum_rows, [-2.0 * d_beta]])
