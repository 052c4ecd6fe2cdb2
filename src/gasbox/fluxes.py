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
    lam_a = lam - 0.25 * face.vel_jump[ax]
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


def physical_coeff(face, gas):
    """Physical diffusion coefficient nu = mu0 / logmean(rho) + mu1 mean(rho)."""
    return gas.mu0 / face.rho.ln + gas.mu1 * face.rho.bar


def diffusion_coeffs(face, h_axis, variant, gas):
    """All face diffusion coefficients of one face bundle.

    lambda = |mean(u_n)| R + |jump of u_n| / 4 with R the density-jump
    sensor; the combined coefficient is nu + h lambda.
    """
    nu = physical_coeff(face, gas)
    ax = face.axis
    lam = np.abs(face.vel_bar[ax]) * density_jump_sensor(face.rho, variant)
    lam += 0.25 * np.abs(face.vel_jump[ax])
    return DiffusionCoeffs(
        nu_face=np.asarray(nu, dtype=float),
        lambda_face=np.asarray(lam, dtype=float),
        tilde_nu=np.asarray(nu + h_axis * lam, dtype=float),
    )


def _internal_energy_factor(face, gas):
    """1 / (2 (gamma-1) logmean(beta)), the convective internal energy per unit mass flux."""
    return face.inv_log_mean_beta * (0.5 / (gas.gamma - 1.0))


def convective_flux(face, gas):
    """Entropy-compatible convective two-point flux through the faces.

    mass      mean(rho u_n)
    momentum  mean(v_c) mean(rho u_n) + p_face on the normal row
    energy    mean(rho u_n) [1/(2(gamma-1) logmean(beta))
                             - mean(|v|^2)/2 + |mean v|^2] + p_face mean(u_n)

    Reduces to the exact analytic flux when both states agree.
    """
    ax = face.axis
    vel_bar = face.vel_bar
    out = np.empty((5,) + np.shape(face.p_face))
    out[0] = rho_un_mean = face.normal_momentum_bar
    for row, vb in zip(out[1:4], vel_bar):
        np.multiply(vb, rho_un_mean, out=row)
    out[ax + 1] += face.p_face
    bracket = (_internal_energy_factor(face, gas) - face.ke_bar
               + (vel_bar[0] * vel_bar[0] + vel_bar[1] * vel_bar[1] + vel_bar[2] * vel_bar[2]))
    np.multiply(bracket, rho_un_mean, out=out[4])
    out[4] += face.p_face * vel_bar[ax]
    return out


def frak_p(face, h_axis):
    """Pressure-diffusion scalar of the energy flux.

    (1 / (2 logmean(beta))) D+ rho + (mean(rho)/2) D+ (1/beta); direction
    enters only through the axis of the face bundle.
    """
    return 0.5 * ((face.rho.jump / h_axis) * face.inv_log_mean_beta
                  + (face.inv_beta_jump / h_axis) * face.rho.bar)


def _gradient_vector(face, h_axis, gas):
    """Gradient stencil of the conserved variables; multiplying it by a
    diffusion coefficient yields the diffusive flux (radiation excluded)."""
    out = np.empty((5,) + np.shape(face.rho.jump))
    d_rho = np.divide(face.rho.jump, h_axis, out=out[0])
    for row, d_m in zip(out[1:4], face.momentum_jump):
        np.divide(d_m, h_axis, out=row)
    energy = np.divide(frak_p(face, h_axis), gas.gamma - 1.0, out=out[4])
    # the jump of rho |v|^2 has this one reader, so it is formed here
    energy += 0.5 * ((face.right.rho_speed_sq - face.left.rho_speed_sq) / h_axis)
    energy -= 0.25 * face.vel_jump_sq * d_rho
    return out


def _radiation_row(face, h_axis, gas):
    return gas.kappa_r * face.T4_jump / h_axis


def split_diffusive_flux(face, coeffs, h_axis, gas):
    """Diffusive flux split into its physical and artificial parts.

    Returns (total, nu_part, lambda_part) where the lambda part is the
    flux evaluated with coefficient h*lambda and no radiation, the nu part
    uses nu and carries the radiation term, and the total is formed as
    their sum (so the decomposition is bitwise by construction).  The
    time loop does not call it: :func:`~gasbox.rhs.face_fluxes` applies
    the combined coefficient ``tilde_nu`` to the same gradient stencil in
    one pass, which equals the total up to a few ulp of reassociation.
    """
    grad = _gradient_vector(face, h_axis, gas)
    lambda_part = (h_axis * coeffs.lambda_face) * grad
    nu_part = np.multiply(coeffs.nu_face, grad, out=grad)
    if gas.kappa_r != 0.0:
        nu_part[4] += _radiation_row(face, h_axis, gas)
    return nu_part + lambda_part, nu_part, lambda_part
