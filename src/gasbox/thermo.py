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

from .means import PairMeans, arith_mean, pair_means

__all__ = [
    "GasParams",
    "PositivityError",
    "PrimitiveFields",
    "FaceState",
    "EntropyQuantities",
    "primitives",
    "primitives_from_conserved",
    "face_means",
    "conserved_from_primitives",
    "specific_entropy",
    "entropy_function",
    "entropy_quantities",
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

    @property
    def c_p(self):
        return self.gamma * self.c_v


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


def _fields(rho, vel, speed_sq, p, gas):
    T = p / (rho * gas.R)
    beta = rho / (2.0 * p)
    _require_admissible("temperature", T)
    _require_admissible("beta", beta)
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
    _require_admissible("pressure", p)
    return _fields(rho, vel, speed_sq, p, gas)


def primitives(rho, vel, p, gas):
    """Build :class:`PrimitiveFields` directly from rho, velocity and pressure."""
    rho = np.asarray(rho, dtype=float)
    vel = tuple(np.broadcast_to(np.asarray(c, dtype=float), rho.shape).copy() for c in vel)
    p = np.asarray(p, dtype=float)
    _require_admissible("density", rho)
    _require_admissible("pressure", p)
    return _fields(rho, vel, _speed_sq(vel), p, gas)


@dataclass(frozen=True)
class FaceState:
    """The face bundle of one set of faces normal to ``axis``.

    Holds the primitive states on both sides and the face means every
    flux, diffusion coefficient and diagnostic reads, each computed once:
    arithmetic and log means of rho and beta (with their jumps), the
    velocity means and the face pressure mean(rho) / (2 mean(beta)).
    """

    axis: int
    left: PrimitiveFields
    right: PrimitiveFields
    rho: PairMeans
    beta: PairMeans
    vel_bar: tuple
    p_face: np.ndarray

    @cached_property
    def inv_log_mean_beta(self):
        """1 / logmean(beta), which the convective energy row, the pressure
        diffusion and the entropy-variable jump multiply by; computed on
        first read, so the walks that never read it do not pay for it."""
        return 1.0 / self.beta.ln


def face_means(axis, left, right):
    """Build the :class:`FaceState` of faces with ``left``/``right`` states."""
    rho = pair_means(left.rho, right.rho, left.log_rho, right.log_rho)
    beta = pair_means(left.beta, right.beta, left.log_beta, right.log_beta)
    return FaceState(
        axis=axis, left=left, right=right, rho=rho, beta=beta,
        vel_bar=tuple(arith_mean(l, r) for l, r in zip(left.vel, right.vel)),
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


@dataclass(frozen=True)
class EntropyQuantities:
    """Specific entropy, entropy function/flux, variables and potentials."""

    s: np.ndarray
    U: np.ndarray
    F: tuple
    w: np.ndarray
    psi: tuple


def entropy_quantities(prim, gas):
    """All entropy quantities of a primitive field at once.

    U = -rho s/(gamma-1) and F = -m s/(gamma-1) form the entropy pair for
    the variable vector w; the potentials are the momentum components.
    """
    s = specific_entropy(prim, gas)
    F = tuple(-m * s / (gas.gamma - 1.0) for m in prim.momenta)
    return EntropyQuantities(s=s, U=entropy_function(prim, gas), F=F,
                             w=entropy_variables(prim, gas), psi=prim.momenta)


def delta_w(face, gas):
    """Jump of the entropy variables across the faces of a :class:`FaceState`.

    Equals entropy_variables(right) - entropy_variables(left) identically
    (the log means turn the entropy-log jumps into algebraic quotients);
    this mean form is the one whose contraction with the fluxes telescopes
    in the entropy estimate.
    """
    gm1 = gas.gamma - 1.0
    left, right = face.left, face.right
    d_rho = face.rho.jump
    d_beta = face.beta.jump
    beta_bar = face.beta.bar

    speed_sq_bar = arith_mean(left.speed_sq, right.speed_sq)
    w1 = d_rho / face.rho.ln + (face.inv_log_mean_beta / gm1 - speed_sq_bar) * d_beta
    momentum_rows = []
    for ul, ur, u_bar in zip(left.vel, right.vel, face.vel_bar):
        w1 = w1 - 2.0 * u_bar * beta_bar * (ur - ul)
        momentum_rows.append(2.0 * beta_bar * (ur - ul) + 2.0 * u_bar * d_beta)
    return np.stack([w1, *momentum_rows, -2.0 * d_beta])
