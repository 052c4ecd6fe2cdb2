"""Discrete balance monitors and verification oracles.

Everything the scheme guarantees structurally is computable here:

* conserved totals and positivity extrema per step,
* the per-face entropy dissipation (each term sign-definite),
* the face inequality ("shuffle" gap) that makes the convective flux
  entropy-compatible with the artificial diffusion,
* the kinetic-energy balance, an algebraic identity of the scheme,
* the internal-energy balance implied by it,
* the global entropy balance combining all of the above,
* grid self-convergence and manufactured-solution error tables,
* time-integrated norm reports mirroring the a priori estimate list.

Balance residuals are evaluated in volume form (undivided differences
times face areas) because that form is exact at the half-width wall
cells; per-volume forms only coincide in the interior.  All residuals
are normalized by a per-node scale max(1, |largest summand|).
"""

import io
from dataclasses import dataclass

import numpy as np

from .fluxes import (
    LambdaVariant,
    _gradient_vector,
    _radiation_row,
    convective_flux,
    diffusion_coeffs,
    frak_p,
    physical_coeff,
)
from .grid import _slab, discrete_norm, gradient_norm_l2
from .means import arith_mean
from .rhs import _side, assemble_rhs, face_fluxes, face_states
from .thermo import delta_w, entropy_quantities, primitives_from_conserved

__all__ = [
    "DiagnosticsRecord",
    "CSV_HEADER",
    "totals",
    "write_csv",
    "entropy_dissipation",
    "shuffle_gap",
    "shuffle_gap_and_scale",
    "ke_balance_residual",
    "internal_energy_residual",
    "entropy_balance_residual",
    "ConvergenceRow",
    "convergence_study",
    "richardson_errors",
    "format_convergence_table",
    "apriori_norm_report",
    "format_apriori_report",
]


# ---------------------------------------------------------------------------
# per-step record


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Totals and monitors of one field at one instant."""

    t: float
    dt: float
    total_mass: float
    total_momentum: tuple
    total_energy: float
    total_entropy: float
    total_kinetic: float
    min_rho: float
    min_temp: float
    max_speed: float
    entropy_dissipation: float
    norm_rho_l2: float
    norm_grad_log_rho: float
    norm_rho_grad_vel: float
    norm_grad_temp32: float

    def row(self):
        return [
            self.t, self.dt, self.total_mass, *self.total_momentum,
            self.total_energy, self.total_entropy, self.total_kinetic,
            self.min_rho, self.min_temp, self.max_speed,
            self.entropy_dissipation, self.norm_rho_l2,
            self.norm_grad_log_rho, self.norm_rho_grad_vel,
            self.norm_grad_temp32,
        ]


# Column order is frozen; bump the version tag when it changes.
CSV_VERSION = "gasbox-diagnostics-v1"
CSV_HEADER = (
    "t,dt,mass,momentum_x,momentum_y,momentum_z,energy,entropy,kinetic,"
    "min_rho,min_temp,max_speed,entropy_dissipation,"
    "l2_rho,l2_grad_log_rho,l2_rho_grad_vel,l2_grad_temp32"
)


def totals(u5, grid, gas, t=0.0, dt=float("nan")):
    """One :class:`DiagnosticsRecord`; reductions run in fixed array order."""
    u5 = np.asarray(u5, dtype=float)
    prim = primitives_from_conserved(u5, gas)
    ent = entropy_quantities(prim, gas)
    vol = grid.cell_volumes
    speed = np.sqrt(prim.speed_sq)

    rho_bar_grad_vel_sq = 0.0
    for ax in grid.active_axes:
        left, right = _side(prim, ax, None, -1), _side(prim, ax, 1, None)
        rho_bar = arith_mean(left.rho, right.rho)
        g = sum(((r - l) / grid.spacing[ax]) ** 2 for l, r in zip(left.vel, right.vel))
        v_left = _slab(vol, ax, None, -1)
        rho_bar_grad_vel_sq += float(np.sum(v_left * rho_bar ** 2 * g))

    return DiagnosticsRecord(
        t=float(t),
        dt=float(dt),
        total_mass=float(np.sum(vol * u5[0])),
        total_momentum=tuple(float(np.sum(vol * u5[c])) for c in (1, 2, 3)),
        total_energy=float(np.sum(vol * u5[4])),
        total_entropy=float(np.sum(vol * ent.U)),
        total_kinetic=float(np.sum(vol * 0.5 * prim.rho * prim.speed_sq)),
        min_rho=float(np.min(prim.rho)),
        min_temp=float(np.min(prim.T)),
        max_speed=float(np.max(speed)),
        entropy_dissipation=entropy_dissipation(u5, grid, gas, prim=prim),
        norm_rho_l2=discrete_norm(prim.rho, grid, 2),
        norm_grad_log_rho=gradient_norm_l2(prim.log_rho, grid),
        norm_rho_grad_vel=float(np.sqrt(rho_bar_grad_vel_sq)),
        norm_grad_temp32=gradient_norm_l2(prim.T ** 1.5, grid),
    )


def write_csv(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {CSV_VERSION}\n{CSV_HEADER}\n")
        for rec in records:
            fh.write(",".join(f"{x:.17g}" for x in rec.row()) + "\n")


# ---------------------------------------------------------------------------
# face-level entropy quantities


def _dissipation_bracket(face, h_axis, gas):
    """Sign-definite bracket multiplying the diffusion coefficient in the
    entropy contraction, plus the radiative term (already coefficient-free):

        B = jump(rho) D+rho / logmean(rho)
            + 2 mean(beta) mean(rho) sum_c jump(u_c) D+u_c
            - (mean(rho)/(gamma-1)) jump(beta) D+(1/beta)
        R = -2 kappa_r jump(beta) D+(T^4)

    Every term is nonnegative for admissible states.
    """
    left, right = face.left, face.right
    d_rho = face.rho.jump
    bracket = d_rho * (d_rho / h_axis) / face.rho.ln
    rho_bar = face.rho.bar
    vel_part = sum((ur - ul) * ((ur - ul) / h_axis) for ul, ur in zip(left.vel, right.vel))
    bracket = bracket + 2.0 * face.beta.bar * rho_bar * vel_part
    d_beta = face.beta.jump
    d_inv_beta = (right.inv_beta - left.inv_beta) / h_axis
    bracket = bracket - (rho_bar / (gas.gamma - 1.0)) * d_beta * d_inv_beta
    radiation = 0.0
    if gas.kappa_r != 0.0:
        radiation = -2.0 * gas.kappa_r * d_beta * (right.T4 - left.T4) / h_axis
    return bracket, radiation


def _face_dissipation(face, grid, gas):
    """sum over the faces of one bundle of S * (B nu + R)."""
    bracket, radiation = _dissipation_bracket(face, grid.spacing[face.axis], gas)
    face_sum = np.sum(physical_coeff(face, gas) * bracket + radiation, axis=face.axis)
    return float(np.sum(grid.face_area(face.axis) * face_sum))


def entropy_dissipation(u5, grid, gas, prim=None):
    """Total physical entropy dissipation sum_faces S * (B nu + R), >= 0.

    This is the contraction of the entropy-variable jumps with the
    physical (non-vanishing) diffusive fluxes, radiation included.
    """
    if prim is None:
        prim = primitives_from_conserved(np.asarray(u5, dtype=float), gas)
    total = 0.0
    for ax in grid.active_axes:
        total += _face_dissipation(face_states(prim, ax), grid, gas)
    return total


def _convective_minus_lambda(face, variant, gas):
    """f^c - f^lambda as a face-local quantity (the grid spacing cancels)."""
    lam = diffusion_coeffs(face, 1.0, variant, gas).lambda_face
    return convective_flux(face, gas) - lam * _gradient_vector(face, 1.0, gas)


def shuffle_gap(face, variant, gas):
    """Entropy-compatibility gap of the faces of a face bundle:

        gap = jump(rho u_n) - jump(w) . (f^c - f^lambda)  >= 0 (up to rounding).
    """
    gap, _ = shuffle_gap_and_scale(face, variant, gas)
    return gap


def shuffle_gap_and_scale(face, variant, gas):
    """Gap together with the local magnitude to normalize tolerances by."""
    flux = _convective_minus_lambda(face, variant, gas)
    contraction = np.sum(delta_w(face, gas) * flux, axis=0)
    d_psi = face.right.momenta[face.axis] - face.left.momenta[face.axis]
    scale = np.maximum(1.0, np.maximum(np.abs(d_psi), np.abs(contraction)))
    return d_psi - contraction, scale


# ---------------------------------------------------------------------------
# kinetic / internal energy balances (volume form, exact at wall cells)


def _pad_faces(face_vals, axis):
    """Extend an interior-face array with zero wall faces along ``axis``."""
    shape = list(face_vals.shape)
    shape[axis] += 2
    ext = np.zeros(shape, dtype=float)
    _slab(ext, axis, 1, -1)[...] = face_vals
    return ext


def _face_area_expand(grid, axis):
    area = grid.face_area(axis)
    return np.expand_dims(area, axis)


def _two_face_node_sum(face_vals, grid, axis):
    """0.5 * S * (value on the node's minus face + value on its plus face),
    with wall faces contributing zero (the wall difference convention)."""
    ext = _pad_faces(face_vals, axis)
    n = ext.shape[axis]
    acc = 0.5 * (_slab(ext, axis, 0, n - 1) + _slab(ext, axis, 1, n))
    return _face_area_expand(grid, axis) * acc


def _ke_pieces(u5, grid, gas, variant):
    """Shared assembly for the kinetic- and internal-energy residuals."""
    u5 = np.asarray(u5, dtype=float)
    prim = primitives_from_conserved(u5, gas)
    tend = assemble_rhs(u5, grid, gas, variant, prim=prim)
    u, v, w = prim.vel
    dK = -0.5 * prim.speed_sq * tend[0] + u * tend[1] + v * tend[2] + w * tend[3]
    vol_dK = grid.cell_volumes * dK

    ke_div = np.zeros(grid.shape)
    pdv = np.zeros(grid.shape)
    dis = np.zeros(grid.shape)
    ie_conv_div = np.zeros(grid.shape)
    ie_diff_div = np.zeros(grid.shape)
    scale = np.maximum(1.0, np.abs(vol_dK))

    for ax in grid.active_axes:
        face = face_states(prim, ax)
        left, right = face.left, face.right
        h = grid.spacing[ax]
        total, coeffs = face_fluxes(face, grid, gas, variant)

        speed_sq_bar = arith_mean(left.speed_sq, right.speed_sq)
        ke_flux = -0.5 * speed_sq_bar * total[0]
        for c in range(3):
            ke_flux = ke_flux + face.vel_bar[c] * total[c + 1]
        term = _face_area_expand(grid, ax) * np.diff(_pad_faces(ke_flux, ax), axis=ax)
        ke_div += term
        scale = np.maximum(scale, np.abs(term))

        d_un = right.vel[ax] - left.vel[ax]
        term = _two_face_node_sum(face.p_face * d_un, grid, ax)
        pdv += term
        scale = np.maximum(scale, np.abs(term))

        jump_sq = sum((ur - ul) ** 2 for ul, ur in zip(left.vel, right.vel))
        term = _two_face_node_sum(coeffs.tilde_nu * face.rho.bar * jump_sq / h, grid, ax)
        dis += term
        scale = np.maximum(scale, np.abs(term))

        rho_un_mean = arith_mean(left.momenta[ax], right.momenta[ax])
        ie_conv = rho_un_mean / (2.0 * (gas.gamma - 1.0) * face.beta.ln)
        ie_conv_div += _face_area_expand(grid, ax) * np.diff(_pad_faces(ie_conv, ax), axis=ax)

        ie_diff = coeffs.tilde_nu * frak_p(face, h) / (gas.gamma - 1.0)
        if gas.kappa_r != 0.0:
            ie_diff = ie_diff + _radiation_row(face, h, gas)
        ie_diff_div += _face_area_expand(grid, ax) * np.diff(_pad_faces(ie_diff, ax), axis=ax)

    return prim, tend, vol_dK, ke_div, pdv, dis, ie_conv_div, ie_diff_div, scale


def ke_balance_residual(u5, grid, gas, variant=LambdaVariant.FIRST_ORDER):
    """Max-norm defect of the kinetic-energy balance, scale-normalized.

    The balance (per node, volume form)

        V dK/dt + sum_ax S jump(KE flux) - pdv = -dis

    is an algebraic identity of the scheme for admissible fields, wall
    nodes included; the return value measures rounding only.
    """
    _, _, vol_dK, ke_div, pdv, dis, _, _, scale = _ke_pieces(u5, grid, gas, variant)
    resid = vol_dK + ke_div - pdv + dis
    return float(np.max(np.abs(resid) / scale))


def internal_energy_residual(u5, grid, gas, variant=LambdaVariant.FIRST_ORDER):
    """Max-norm defect of the implied internal-energy balance.

    Subtracting the kinetic-energy balance from the total-energy row of
    the scheme leaves

        V d(p/(gamma-1))/dt + V pdv - V dis
            + sum_ax S jump(conv. internal-energy flux)
            = sum_ax S jump(coefficient * pressure-diffusion flux
                                + radiative flux),

    again exactly; the z-direction pieces enter with the z difference.
    """
    _, tend, vol_dK, _, pdv, dis, ie_conv_div, ie_diff_div, scale = _ke_pieces(
        u5, grid, gas, variant)
    vol_ie_t = grid.cell_volumes * tend[4] - vol_dK
    resid = vol_ie_t + pdv - dis + ie_conv_div - ie_diff_div
    scale = np.maximum(scale, np.abs(ie_conv_div))
    scale = np.maximum(scale, np.abs(ie_diff_div))
    scale = np.maximum(scale, np.abs(vol_ie_t))
    return float(np.max(np.abs(resid) / scale))


def entropy_balance_residual(u5, grid, gas, variant=LambdaVariant.FIRST_ORDER):
    """Defect of the global entropy balance

        sum V w.du/dt + (physical dissipation) + (shuffle slack) = 0,

    returned normalized; the two nonnegative parts are returned as well,
    so callers can assert the inequality d/dt sum V U <= 0.
    """
    u5 = np.asarray(u5, dtype=float)
    prim = primitives_from_conserved(u5, gas)
    tend = assemble_rhs(u5, grid, gas, variant, prim=prim)
    w = entropy_quantities(prim, gas).w
    production = float(np.sum(grid.cell_volumes * np.sum(w * tend, axis=0)))

    dissipation = slack = 0.0
    for ax in grid.active_axes:
        face = face_states(prim, ax)
        dissipation += _face_dissipation(face, grid, gas)
        gap, _ = shuffle_gap_and_scale(face, variant, gas)
        slack += float(np.sum(grid.face_area(ax) * np.sum(gap, axis=ax)))

    scale = max(1.0, abs(production), dissipation, abs(slack))
    residual = abs(production + dissipation + slack) / scale
    return residual, production, dissipation, slack


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    h: float
    err_l1: float
    err_l2: float
    order_l1: float
    order_l2: float


def _field_norms(diff, grid):
    vol = grid.cell_volumes
    l1 = float(sum(np.sum(vol * np.abs(diff[c])) for c in range(diff.shape[0])))
    l2 = float(np.sqrt(sum(np.sum(vol * diff[c] ** 2) for c in range(diff.shape[0]))))
    return l1, l2


def _restrict(fine, factor, active_axes):
    index = [slice(None)] * fine.ndim
    for ax in active_axes:
        index[ax + 1] = slice(None, None, factor)
    return fine[tuple(index)]


def convergence_study(ns, solve, exact=None):
    """Error table over a nested grid sequence.

    ``ns`` must double from entry to entry.  ``solve(n)`` returns
    (grid, conserved field) at the common final time.  With ``exact``
    (a callable grid -> conserved field) errors are measured against it;
    without, successive solutions are compared on the coarse nodes
    (Richardson mode), so the last row has no error of its own.
    Observed order is log2 of the error ratio between a row and the next.
    """
    ns = [int(n) for n in ns]
    if len(ns) < 2:
        raise ValueError("need at least two grids")
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ValueError(f"grid sequence must refine by exactly 2 (got {a} -> {b})")

    solutions = [solve(n) for n in ns]
    errors = []
    if exact is not None:
        for grid_n, u_n in solutions:
            errors.append(_field_norms(u_n - exact(grid_n), grid_n))
    else:
        for (grid_c, u_c), (_, u_f) in zip(solutions, solutions[1:]):
            errors.append(_field_norms(u_c - _restrict(u_f, 2, grid_c.active_axes), grid_c))

    rows = []
    for k, (e1, e2) in enumerate(errors):
        if k + 1 < len(errors):
            o1 = np.log2(e1 / errors[k + 1][0])
            o2 = np.log2(e2 / errors[k + 1][1])
        else:
            o1 = o2 = float("nan")
        grid_k = solutions[k][0]
        h_k = max(grid_k.spacing[ax] for ax in grid_k.active_axes)
        rows.append(ConvergenceRow(n=ns[k], h=h_k, err_l1=e1, err_l2=e2,
                                   order_l1=float(o1), order_l2=float(o2)))
    return rows


def richardson_errors(ns, solve):
    """Alias for the exact-solution-free mode of :func:`convergence_study`."""
    return convergence_study(ns, solve, exact=None)


def format_convergence_table(rows):
    out = io.StringIO()
    out.write(f"{'N':>6} {'h':>12} {'L1 error':>14} {'order':>7} {'L2 error':>14} {'order':>7}\n")
    for r in rows:
        o1 = f"{r.order_l1:7.3f}" if np.isfinite(r.order_l1) else "      -"
        o2 = f"{r.order_l2:7.3f}" if np.isfinite(r.order_l2) else "      -"
        out.write(f"{r.n:>6} {r.h:>12.5e} {r.err_l1:>14.6e} {o1} {r.err_l2:>14.6e} {o2}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# a priori norm report


def apriori_norm_report(history, grid, gas):
    """Time series and time integrals of the monitored norms.

    ``history`` is a list of (t, conserved field) pairs.  Values are
    reported, never asserted: the estimates they mirror come with
    unquantified constants.  Time integrals use the trapezoid rule on the
    sampled instants.
    """
    if not history:
        raise ValueError("empty history")
    times = np.array([t for t, _ in history])
    sup = {}
    integrands = {}

    def track_sup(key, value):
        sup[key] = max(sup.get(key, -np.inf), value)

    def track_int(key, value):
        integrands.setdefault(key, []).append(value)

    for _, u5 in history:
        prim = primitives_from_conserved(np.asarray(u5, dtype=float), gas)
        vol = grid.cell_volumes
        track_sup("mass (L1 of rho)", float(np.sum(vol * prim.rho)))
        track_sup("L4 norm of rho", discrete_norm(prim.rho, grid, 4))
        track_sup("L1 of rho log rho", float(np.sum(vol * np.abs(prim.rho * prim.log_rho))))
        track_sup("L1 of 1/rho", float(np.sum(vol / prim.rho)))
        track_sup("L1 of sqrt(T)", float(np.sum(vol * np.sqrt(prim.T))))
        track_sup("L2^2 of sqrt(rho) v", float(np.sum(vol * prim.rho * prim.speed_sq)))

        track_int("grad rho (L2^2)", gradient_norm_l2(prim.rho, grid) ** 2)
        track_int("grad log rho (L2^2)", gradient_norm_l2(prim.log_rho, grid) ** 2)
        track_int("grad rho^{5/2} (L2^2)", gradient_norm_l2(prim.rho ** 2.5, grid) ** 2)
        track_int("grad 1/rho (L2^2)", gradient_norm_l2(1.0 / prim.rho, grid) ** 2)
        track_int("grad T^{3/2} (L2^2)", gradient_norm_l2(prim.T ** 1.5, grid) ** 2)
        track_int("entropy dissipation", entropy_dissipation(u5, grid, gas, prim=prim))

    integrals = {key: float(np.trapezoid(np.array(vals), times)) for key, vals in integrands.items()}
    return {"sup": sup, "time_integrals": integrals, "t_span": (float(times[0]), float(times[-1]))}


def format_apriori_report(report):
    out = io.StringIO()
    t0, t1 = report["t_span"]
    out.write(f"a priori norm report over t in [{t0:g}, {t1:g}]\n")
    out.write("sup over sampled instants:\n")
    for key, val in report["sup"].items():
        out.write(f"  {key:<28} {val:.6e}\n")
    out.write("time integrals (trapezoid):\n")
    for key, val in report["time_integrals"].items():
        out.write(f"  {key:<28} {val:.6e}\n")
    return out.getvalue()
