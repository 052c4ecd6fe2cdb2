"""Two-point face fluxes: convective part, diffusion coefficients and
diffusive part.

Every function takes the face bundle (:class:`~gasbox.thermo.FaceState`)
of a set of faces: the primitive states on both sides, arrays of any
matching shape (so the same code serves randomized pair sweeps and whole
face slabs), the axis whose velocity component is normal to the faces,
and the face means every formula below reads.  Flux vectors are stacked
along a leading component axis: (mass, x-, y-, z-momentum, energy).

The convective flux is the kinetic-energy/entropy-compatible two-point
flux built from arithmetic means and the logarithmic mean of
beta = rho/(2p).  The diffusive flux applies one coefficient to the
forward differences of all conserved quantities; it splits into the
physical part (coefficient nu = mu0/log-mean(rho) + mu1*mean(rho)) and a
vanishing upwind-type part (coefficient h*lambda) whose size is
controlled by a density-jump sensor.  Two sensors are provided: the
default carries a 1/2 floor (formally first order); the alternative
floorless sensor vanishes with the jump (formally second order).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .means import arith_mean

__all__ = [
    "LambdaVariant",
    "DiffusionCoeffs",
    "density_jump_sensor",
    "lambda_alt_coeffs",
    "physical_coeff",
    "diffusion_coeffs",
    "convective_flux",
    "frak_p",
    "split_diffusive_flux",
]


class LambdaVariant(enum.Enum):
    """Artificial-diffusion sensor choice."""

    FIRST_ORDER = "first-order"    # max(1/2, |jump of log rho|)
    SECOND_ORDER = "second-order"  # max(|(mean-logmean)/jump|, |jump of log rho|)


# The floorless sensor needs (mean(rho) - logmean(rho)) / (rho_R - rho_L),
# which cancels catastrophically for small jumps.  For |zeta| below this
# cutoff (zeta = jump / (2 mean)) an odd series in zeta is used instead.
_RATIO_SERIES_CUTOFF = 1.0e-2


def _mean_logmean_jump_ratio(rho):
    """(arith mean - log mean) / jump of a positive pair; 0 at equal values.

    ``rho`` holds the pair's means and jumps (:class:`~gasbox.means.PairMeans`).
    Expanding both means in zeta = (b - a)/(b + a) gives

        ratio = (zeta/2) * (1/3 + z/5 + z^2/7 + z^3/9)
                         / (1 + z/3 + z^2/5 + z^3/7 + z^4/9),    z = zeta^2,

    accurate to ~1e-15 relative for |zeta| < 1e-2; outside that window the
    direct formula has already lost at most ~4 digits to cancellation.
    The value is bounded by 1/2 in magnitude and has the sign of the jump.
    """
    d_rho = rho.jump
    zeta = d_rho / (2.0 * rho.bar)
    z = zeta * zeta
    num = 1.0 / 3.0 + z * (1.0 / 5.0 + z * (1.0 / 7.0 + z * (1.0 / 9.0)))
    den = 1.0 + z * (1.0 / 3.0 + z * (1.0 / 5.0 + z * (1.0 / 7.0 + z * (1.0 / 9.0))))
    series = 0.5 * zeta * num / den

    safe = np.where(d_rho == 0.0, 1.0, d_rho)
    direct = (rho.bar - rho.ln) / safe
    out = np.where(np.abs(zeta) < _RATIO_SERIES_CUTOFF, series, direct)
    return np.where(d_rho == 0.0, 0.0, out)


def density_jump_sensor(rho, variant):
    """Sensor R multiplying |normal velocity| in the diffusion coefficient.

    ``rho`` holds the face means and jumps of the densities
    (``FaceState.rho``, or :func:`~gasbox.means.pair_means` of a pair).
    """
    dlog = np.abs(rho.log_jump)
    if variant is LambdaVariant.FIRST_ORDER:
        return np.maximum(0.5, dlog)
    return np.maximum(np.abs(_mean_logmean_jump_ratio(rho)), dlog)


def lambda_alt_coeffs(face, variant, gas):
    """Effective coefficients of the rewritten mass flux, both nonnegative.

    mean(rho u) - lambda * jump(rho) equals
      mean(rho) mean(u) - lambda_a * jump(rho)      and
      geomean(rho) mean(u) - lambda_c * jump(rho);
    the sensor dominates the extra mean-difference ratios, so both
    coefficients stay nonnegative.
    """
    ax = face.axis
    lam = diffusion_coeffs(face, 1.0, variant, gas).lambda_face
    lam_a = lam - 0.25 * (face.right.vel[ax] - face.left.vel[ax])
    # (mean - geomean)/jump == (sqrt(b) - sqrt(a)) / (2 (sqrt(b) + sqrt(a)));
    # the term is subtracted: splitting mean(rho) into geomean + difference
    # moves the difference into the coefficient with a minus sign, and the
    # sensor bounds its magnitude either way
    sl = np.sqrt(face.left.rho)
    sr = np.sqrt(face.right.rho)
    lam_c = lam_a - face.vel_bar[ax] * (sr - sl) / (2.0 * (sr + sl))
    return lam_a, lam_c


@dataclass(frozen=True)
class DiffusionCoeffs:
    """Per-face diffusion coefficients: physical, artificial and combined."""

    nu_face: np.ndarray
    lambda_face: np.ndarray
    tilde_nu: np.ndarray  # nu_face + h * lambda_face
    r_star: np.ndarray    # sensor value actually used


def physical_coeff(face, gas):
    """Physical diffusion coefficient nu = mu0 / logmean(rho) + mu1 mean(rho)."""
    return gas.mu0 / face.rho.ln + gas.mu1 * face.rho.bar


def diffusion_coeffs(face, h_axis, variant, gas):
    """All face diffusion coefficients of one face bundle.

    lambda = |mean(u_n)| R + |jump of u_n| / 4 with R the density-jump
    sensor; the combined coefficient is nu + h lambda.
    """
    nu = physical_coeff(face, gas)
    sensor = density_jump_sensor(face.rho, variant)
    ax = face.axis
    lam = np.abs(face.vel_bar[ax]) * sensor + 0.25 * np.abs(face.right.vel[ax] - face.left.vel[ax])
    return DiffusionCoeffs(
        nu_face=np.asarray(nu, dtype=float),
        lambda_face=np.asarray(lam, dtype=float),
        tilde_nu=np.asarray(nu + h_axis * lam, dtype=float),
        r_star=np.asarray(sensor, dtype=float),
    )


def convective_flux(face, gas):
    """Entropy-compatible convective two-point flux through the faces.

    mass      mean(rho u_n)
    momentum  mean(v_c) mean(rho u_n) + p_face on the normal row
    energy    mean(rho u_n) [1/(2(gamma-1) logmean(beta))
                             - mean(|v|^2)/2 + |mean v|^2] + p_face mean(u_n)

    Reduces to the exact analytic flux when both states agree.
    """
    ax = face.axis
    left, right = face.left, face.right
    rho_un_mean = arith_mean(left.momenta[ax], right.momenta[ax])
    p_face = face.p_face
    vel_bar = face.vel_bar
    speed_sq_bar = arith_mean(left.speed_sq, right.speed_sq)
    mean_vel_sq = vel_bar[0] * vel_bar[0] + vel_bar[1] * vel_bar[1] + vel_bar[2] * vel_bar[2]

    momentum = [vb * rho_un_mean for vb in vel_bar]
    momentum[ax] = momentum[ax] + p_face
    energy = (
        rho_un_mean / (2.0 * (gas.gamma - 1.0) * face.beta.ln)
        - 0.5 * speed_sq_bar * rho_un_mean
        + mean_vel_sq * rho_un_mean
        + p_face * vel_bar[ax]
    )
    return np.stack([rho_un_mean, *momentum, energy])


def frak_p(face, h_axis):
    """Pressure-diffusion scalar of the energy flux.

    (1 / (2 logmean(beta))) D+ rho + (mean(rho)/2) D+ (1/beta); direction
    enters only through the axis of the face bundle.
    """
    d_rho = face.rho.jump / h_axis
    d_inv_beta = (face.right.inv_beta - face.left.inv_beta) / h_axis
    return d_rho / (2.0 * face.beta.ln) + 0.5 * face.rho.bar * d_inv_beta


def _gradient_vector(face, h_axis, gas):
    """Gradient stencil of the conserved variables; multiplying it by a
    diffusion coefficient yields the diffusive flux (radiation excluded)."""
    left, right = face.left, face.right
    d_rho = face.rho.jump / h_axis
    rows = [d_rho]
    for ml, mr in zip(left.momenta, right.momenta):
        rows.append((mr - ml) / h_axis)
    d_rho_speed_sq = (right.rho_speed_sq - left.rho_speed_sq) / h_axis
    du, dv, dw = (ur - ul for ul, ur in zip(left.vel, right.vel))
    energy = (
        frak_p(face, h_axis) / (gas.gamma - 1.0)
        + 0.5 * d_rho_speed_sq
        - 0.25 * (du * du + dv * dv + dw * dw) * d_rho
    )
    rows.append(energy)
    return np.stack(rows)


def _radiation_row(face, h_axis, gas):
    return gas.kappa_r * (face.right.T4 - face.left.T4) / h_axis


def split_diffusive_flux(face, coeffs, h_axis, gas):
    """Diffusive flux split into its physical and artificial parts.

    Returns (total, nu_part, lambda_part) where the lambda part is the
    flux evaluated with coefficient h*lambda and no radiation, the nu part
    uses nu and carries the radiation term, and the total is formed as
    their sum (so the decomposition is bitwise by construction).
    """
    grad = _gradient_vector(face, h_axis, gas)
    lambda_part = (h_axis * coeffs.lambda_face) * grad
    nu_part = np.multiply(coeffs.nu_face, grad, out=grad)
    if gas.kappa_r != 0.0:
        nu_part[4] += _radiation_row(face, h_axis, gas)
    return nu_part + lambda_part, nu_part, lambda_part
