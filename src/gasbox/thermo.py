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
from functools import cached_property
import warnings

import numpy as np

from .means import PairMeans, pair_means

__all__ = [
    "GasParams",
    "PositivityError",
    "PrimitiveFields",
    "FaceState",
    "primitives",
    "primitives_from_conserved",
    "check_admissible",
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


@dataclass(frozen=True)
class PrimitiveFields:
    """Primitive view of a conserved field: arrays of identical shape.

    Besides the primitive variables it carries every per-node quantity the
    face formulas read, computed once per node: the logs feeding the face
    log means, 1/beta, |v|^2, the momenta, rho |v|^2 and, when radiation
    is on, T^4 (None otherwise).
    """

    rho: np.ndarray
    vel: tuple  # (u, v, w)
    p: np.ndarray
    T: np.ndarray
    beta: np.ndarray
    log_rho: np.ndarray
    log_beta: np.ndarray
    inv_beta: np.ndarray
    speed_sq: np.ndarray
    momenta: tuple  # (rho u, rho v, rho w)
    rho_speed_sq: np.ndarray
    T4: np.ndarray  # None when kappa_r == 0


def _first_bad_index(mask):
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _require_admissible(quantity, values):
    """Raise :class:`PositivityError` unless every value is positive and finite."""
    # NaN fails both comparisons, so one min and one max cover every case
    if not (np.min(values) > 0.0 and np.max(values) < np.inf):
        idx = _first_bad_index(~((values > 0.0) & (values < np.inf)))
        raise PositivityError(quantity, idx, float(values[idx]))


def _temperature_beta(rho, p, gas):
    """T and beta at admissible densities ``rho``; p, T and beta are checked."""
    _require_admissible("pressure", p)
    T = p / (rho * gas.R)
    beta = rho / (2.0 * p)
    _require_admissible("temperature", T)
    _require_admissible("beta", beta)
    return T, beta


def _fields(rho, vel, speed_sq, p, gas):
    T, beta = _temperature_beta(rho, p, gas)
    return PrimitiveFields(
        rho=rho, vel=vel, p=p, T=T, beta=beta,
        log_rho=np.log(rho),
        log_beta=np.log(beta),
        inv_beta=1.0 / beta,
        speed_sq=speed_sq,
        momenta=tuple(rho * c for c in vel),
        rho_speed_sq=rho * speed_sq,
        T4=T ** 4 if gas.kappa_r != 0.0 else None,
    )


def _speed_sq(vel):
    u, v, w = vel
    return u * u + v * v + w * w


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
    vel = tuple(u5[c] / rho for c in (1, 2, 3))
    speed_sq = _speed_sq(vel)
    p = (gas.gamma - 1.0) * (u5[4] - 0.5 * rho * speed_sq)
    return _fields(rho, vel, speed_sq, p, gas)


def check_admissible(rho, p, gas):
    """Raise :class:`PositivityError` unless density, pressure, temperature
    and beta are positive and finite everywhere: the rule of
    :func:`primitives_from_conserved`, without building the fields."""
    _require_admissible("density", rho)
    _temperature_beta(rho, p, gas)


def primitives(rho, vel, p, gas):
    """Build :class:`PrimitiveFields` directly from rho, velocity and pressure."""
    rho = np.asarray(rho, dtype=float)
    vel = tuple(np.broadcast_to(np.asarray(c, dtype=float), rho.shape).copy() for c in vel)
    p = np.asarray(p, dtype=float)
    _require_admissible("density", rho)
    return _fields(rho, vel, _speed_sq(vel), p, gas)


@dataclass(frozen=True)
class FaceState:
    """The face bundle of one set of faces normal to ``axis``: the only
    place a jump or a mean of the two sides of a face is formed.

    The fields hold what every face walk reads; the cached properties,
    like the log means of :class:`~gasbox.means.PairMeans`, hold what only
    some walks read and are computed on first read.
    """

    axis: int
    left: PrimitiveFields
    right: PrimitiveFields
    rho: PairMeans
    beta: PairMeans
    vel_bar: tuple
    vel_jump: tuple
    vel_jump_sq: np.ndarray  # |jump v|^2
    inv_beta_jump: np.ndarray
    T4_jump: np.ndarray  # None when kappa_r == 0
    p_face: np.ndarray  # mean(rho) / (2 mean(beta))

    @cached_property
    def inv_log_mean_beta(self):  # 1 / logmean(beta)
        return 1.0 / self.beta.ln

    @cached_property
    def ke_bar(self):  # mean(|v|^2 / 2), the specific kinetic energy
        return 0.25 * (self.left.speed_sq + self.right.speed_sq)

    @cached_property
    def normal_momentum_bar(self):  # mean(rho u_n), the convective mass flux
        return 0.5 * (self.left.momenta[self.axis] + self.right.momenta[self.axis])

    @cached_property
    def momentum_jump(self):
        return tuple(r - l for l, r in zip(self.left.momenta, self.right.momenta))


def face_means(axis, left, right):
    """Build the :class:`FaceState` of faces with ``left``/``right`` states."""
    rho = pair_means(left.rho, right.rho, left.log_rho, right.log_rho)
    beta = pair_means(left.beta, right.beta, left.log_beta, right.log_beta)
    vel_jump = tuple(r - l for l, r in zip(left.vel, right.vel))
    return FaceState(
        axis=axis, left=left, right=right, rho=rho, beta=beta,
        vel_bar=tuple(0.5 * (l + r) for l, r in zip(left.vel, right.vel)),
        vel_jump=vel_jump,
        vel_jump_sq=vel_jump[0] * vel_jump[0] + vel_jump[1] * vel_jump[1] + vel_jump[2] * vel_jump[2],
        inv_beta_jump=right.inv_beta - left.inv_beta,
        T4_jump=None if left.T4 is None else right.T4 - left.T4,
        p_face=rho.bar / (2.0 * beta.bar),
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
    u, v, w = prim.vel
    w1 = gas.gamma / gm1 - s / gm1 - prim.beta * prim.speed_sq
    return np.stack([w1, 2.0 * prim.beta * u, 2.0 * prim.beta * v, 2.0 * prim.beta * w, -2.0 * prim.beta])


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
    momentum_rows = []
    for d_u, u_bar in zip(face.vel_jump, face.vel_bar):
        w1 = w1 - 2.0 * u_bar * beta_bar * d_u
        momentum_rows.append(2.0 * beta_bar * d_u + 2.0 * u_bar * d_beta)
    return np.stack([w1, *momentum_rows, -2.0 * d_beta])
