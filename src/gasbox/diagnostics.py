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
    _internal_energy_factor,
    _radiation_row,
    convective_flux,
    diffusion_coeffs,
    frak_p,
    physical_coeff,
)
from .grid import _slab, discrete_norm, gradient_norm_l2, grid_sequence
from .rhs import assemble_rhs, face_blocks
from .thermo import delta_w, entropy_function, entropy_variables, primitives_from_conserved

__all__ = [
    "DiagnosticsRecord",
    "CSV_HEADER",
    "totals",
    "write_csv",
    "shuffle_gap_and_scale",
    "balance_residuals",
    "ke_balance_residual",
    "entropy_balance_residual",
    "ConvergenceRow",
    "convergence_study",
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
        """The CSV columns: the fields in order, the momentum spread out."""
        return [x for v in vars(self).values() for x in (v if isinstance(v, tuple) else (v,))]


# Column order is frozen; bump the version tag when it changes.
CSV_VERSION = "gasbox-diagnostics-v1"
CSV_HEADER = (
    "t,dt,mass,momentum_x,momentum_y,momentum_z,energy,entropy,kinetic,"
    "min_rho,min_temp,max_speed,entropy_dissipation,"
    "l2_rho,l2_grad_log_rho,l2_rho_grad_vel,l2_grad_temp32"
)


def totals(u5, grid, gas, t=0.0, dt=float("nan"), prim=None):
    """One :class:`DiagnosticsRecord`; reductions run in fixed array order.

    ``prim``, the primitives of ``u5``, is converted unless handed in.  The
    face terms come from one walk over the face blocks.
    """
    u5 = np.asarray(u5, dtype=float)
    if prim is None:
        prim = primitives_from_conserved(u5, gas)
    vol = grid.cell_volumes

    dissipation = rho_bar_grad_vel_sq = 0.0
    for face, index in face_blocks(prim, grid):
        ax = face.axis
        dissipation += _face_dissipation(face, index, grid, gas)
        g = face.vel_jump_sq / grid.spacing[ax] ** 2
        rho_bar_grad_vel_sq += float(np.sum(_slab(vol[index], ax, None, -1) * face.rho.bar ** 2 * g))

    return DiagnosticsRecord(
        t=float(t),
        dt=float(dt),
        total_mass=float(np.sum(vol * u5[0])),
        total_momentum=tuple(float(np.sum(vol * u5[c])) for c in (1, 2, 3)),
        total_energy=float(np.sum(vol * u5[4])),
        total_entropy=float(np.sum(vol * entropy_function(prim, gas))),
        total_kinetic=float(np.sum(vol * 0.5 * prim.rho * prim.speed_sq)),
        min_rho=float(np.min(prim.rho)),
        min_temp=float(np.min(prim.T)),
        max_speed=float(np.sqrt(np.max(prim.speed_sq))),
        entropy_dissipation=dissipation,
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
    d_rho = face.rho.jump
    bracket = d_rho * (d_rho / h_axis) / face.rho.ln
    rho_bar = face.rho.bar
    bracket = bracket + 2.0 * face.beta.bar * rho_bar * (face.vel_jump_sq / h_axis)
    d_beta = face.beta.jump
    bracket = bracket - (rho_bar / (gas.gamma - 1.0)) * d_beta * (face.inv_beta_jump / h_axis)
    radiation = 0.0
    if gas.kappa_r != 0.0:
        radiation = -2.0 * gas.kappa_r * d_beta * face.T4_jump / h_axis
    return bracket, radiation


def _area_sum(face_vals, face, index, grid):
    """sum over the faces of one block of :func:`face_blocks` of S * ``face_vals``."""
    area = grid.face_area(face.axis)[index[-1]]
    return float(np.sum(area * np.sum(face_vals, axis=face.axis)))


def _face_dissipation(face, index, grid, gas):
    """sum over the faces of one block of S * (B nu + R)."""
    bracket, radiation = _dissipation_bracket(face, grid.spacing[face.axis], gas)
    return _area_sum(physical_coeff(face, gas) * bracket + radiation, face, index, grid)


def shuffle_gap_and_scale(face, variant, gas):
    """Entropy-compatibility gap of the faces of a face bundle,

        gap = jump(rho u_n) - jump(w) . (f^c - f^lambda)  >= 0 (up to rounding),

    together with the local magnitude to normalize tolerances by.
    """
    # f^c - f^lambda as a face-local quantity (the grid spacing cancels)
    lam = diffusion_coeffs(face, 1.0, variant, gas).lambda_face
    flux = convective_flux(face, gas) - lam * _gradient_vector(face, 1.0, gas)
    contraction = np.sum(delta_w(face, gas) * flux, axis=0)
    d_psi = face.momentum_jump[face.axis]
    scale = np.maximum(1.0, np.maximum(np.abs(d_psi), np.abs(contraction)))
    return d_psi - contraction, scale


# ---------------------------------------------------------------------------
# energy and entropy balances (volume form, exact at wall cells)


def _pad_faces(face_vals, axis):
    """Extend an interior-face array with zero wall faces along ``axis``."""
    shape = list(face_vals.shape)
    shape[axis] += 2
    ext = np.zeros(shape)
    _slab(ext, axis, 1, -1)[...] = face_vals
    return ext


def _node_difference(face_vals, area, axis):
    """S * (value on the node's plus face - value on its minus face), with
    wall faces contributing zero."""
    return area * np.diff(_pad_faces(face_vals, axis), axis=axis)


def _two_face_node_sum(face_vals, area, axis):
    """0.5 * S * (value on the node's minus face + value on its plus face),
    with wall faces contributing zero (the wall difference convention)."""
    ext = _pad_faces(face_vals, axis)
    return area * (0.5 * (_slab(ext, axis, None, -1) + _slab(ext, axis, 1, None)))


@dataclass(frozen=True)
class BalanceResiduals:
    """The tendency of a field and its balance defects (:func:`balance_residuals`)."""

    tend: np.ndarray
    ke: float
    ie: float
    entropy: float
    production: float
    dissipation: float
    slack: float


def balance_residuals(u5, grid, gas, variant=LambdaVariant.FIRST_ORDER):
    """The tendency of ``u5`` under ``variant`` and the defects of the
    kinetic-energy, internal-energy and entropy balances, from one
    assembly: the monitors read the face fluxes of :func:`assemble_rhs`.

    The kinetic-energy balance (per node, volume form)

        V dK/dt + sum_ax S jump(KE flux) - pdv = -dis

    is an algebraic identity of the scheme for admissible fields, wall
    nodes included.  Subtracting it from the total-energy row of the
    scheme leaves the internal-energy balance

        V d(p/(gamma-1))/dt + V pdv - V dis
            + sum_ax S jump(conv. internal-energy flux)
            = sum_ax S jump(coefficient * pressure-diffusion flux
                                + radiative flux),

    again exactly; the z-direction pieces enter with the z difference.
    ``ke`` and ``ie`` are their max-norm defects, scale-normalized; both
    measure rounding only.  The global entropy balance

        sum V w.du/dt + (physical dissipation) + (shuffle slack) = 0

    gives ``entropy``, its normalized defect, with ``production`` (the
    first sum) and the two nonnegative parts, so callers can assert the
    inequality d/dt sum V U <= 0.
    """
    prim = primitives_from_conserved(np.asarray(u5, dtype=float), gas)
    ke_div, pdv, dis, ie_conv_div, ie_diff_div = np.zeros((5,) + grid.shape)
    scale = np.ones(grid.shape)
    dissipation = slack = 0.0

    # each block holds whole lines along its axis, so the node terms it
    # writes into its view of the node arrays are complete for that axis
    def on_block(face, index, total, coeffs):
        nonlocal dissipation, slack
        ax = face.axis
        h = grid.spacing[ax]
        area = np.expand_dims(grid.face_area(ax)[index[-1]], ax)

        ke_flux = sum((face.vel_bar[c] * total[c + 1] for c in range(3)),
                      -face.ke_bar * total[0])
        terms = (_node_difference(ke_flux, area, ax),
                 _two_face_node_sum(face.p_face * face.vel_jump[ax], area, ax),
                 _two_face_node_sum(coeffs.tilde_nu * face.rho.bar * face.vel_jump_sq / h, area, ax))
        for acc, term in zip((ke_div, pdv, dis), terms):
            acc[index] += term
            np.maximum(scale[index], np.abs(term), out=scale[index])

        ie_conv = face.normal_momentum_bar * _internal_energy_factor(face, gas)
        ie_conv_div[index] += _node_difference(ie_conv, area, ax)

        ie_diff = coeffs.tilde_nu * frak_p(face, h) / (gas.gamma - 1.0)
        if gas.kappa_r != 0.0:
            ie_diff = ie_diff + _radiation_row(face, h, gas)
        ie_diff_div[index] += _node_difference(ie_diff, area, ax)

        dissipation += _face_dissipation(face, index, grid, gas)
        slack += _area_sum(shuffle_gap_and_scale(face, variant, gas)[0], face, index, grid)

    tend = assemble_rhs(u5, grid, gas, variant, prim=prim, on_block=on_block)
    vol = grid.cell_volumes
    u, v, w = prim.vel
    vol_dK = vol * (-0.5 * prim.speed_sq * tend[0] + u * tend[1] + v * tend[2] + w * tend[3])
    np.maximum(scale, np.abs(vol_dK), out=scale)
    ke = float(np.max(np.abs(vol_dK + ke_div - pdv + dis) / scale))

    vol_ie_t = vol * tend[4] - vol_dK
    resid = vol_ie_t + pdv - dis + ie_conv_div - ie_diff_div
    for part in (ie_conv_div, ie_diff_div, vol_ie_t):
        np.maximum(scale, np.abs(part), out=scale)
    ie = float(np.max(np.abs(resid) / scale))

    production = float(np.sum(vol * np.sum(entropy_variables(prim, gas) * tend, axis=0)))
    entropy = abs(production + dissipation + slack) / max(1.0, abs(production), dissipation, abs(slack))
    return BalanceResiduals(tend, ke, ie, entropy, production, dissipation, slack)


def ke_balance_residual(u5, grid, gas, variant=LambdaVariant.FIRST_ORDER):
    """``ke`` of :func:`balance_residuals`."""
    return balance_residuals(u5, grid, gas, variant).ke


def entropy_balance_residual(u5, grid, gas, variant=LambdaVariant.FIRST_ORDER):
    """``(entropy, production, dissipation, slack)`` of :func:`balance_residuals`."""
    r = balance_residuals(u5, grid, gas, variant)
    return r.entropy, r.production, r.dissipation, r.slack


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

    ``ns`` must pass :func:`~gasbox.grid.grid_sequence`.  ``solve(n)``
    returns (grid, conserved field) at the common final time.  With ``exact``
    (a callable grid -> conserved field) errors are measured against it;
    without, successive solutions are compared on the coarse nodes
    (Richardson mode), so the last row has no error of its own.
    Observed order is log2 of the error ratio between a row and the next.
    """
    ns = grid_sequence(ns)
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


def apriori_norm_report(history, grid, gas, records=None):
    """Time series and time integrals of the monitored norms.

    ``history`` is a list of (t, conserved field) pairs.  The entropy
    dissipation and the norms of grad log rho and grad T^{3/2} are read
    from the :class:`DiagnosticsRecord` of each instant: from ``records``
    (a run's records when it kept its history), else from :func:`totals`
    of the state.  Values are reported, never asserted: the estimates they
    mirror come with unquantified constants.  Time integrals use the
    trapezoid rule on the sampled instants.
    """
    if not history:
        raise ValueError("empty history")
    times = np.array([t for t, _ in history])
    if records is not None and [r.t for r in records] != [float(t) for t in times]:
        raise ValueError("records and history are not taken at the same instants")
    sups, integrands = [], []
    for k, (t, u5) in enumerate(history):
        prim = primitives_from_conserved(np.asarray(u5, dtype=float), gas)
        vol = grid.cell_volumes
        sups.append({
            "mass (L1 of rho)": float(np.sum(vol * prim.rho)),
            "L4 norm of rho": discrete_norm(prim.rho, grid, 4),
            "L1 of rho log rho": float(np.sum(vol * np.abs(prim.rho * prim.log_rho))),
            "L1 of 1/rho": float(np.sum(vol / prim.rho)),
            "L1 of sqrt(T)": float(np.sum(vol * np.sqrt(prim.T))),
            "L2^2 of sqrt(rho) v": float(np.sum(vol * prim.rho * prim.speed_sq)),
        })
        rec = totals(u5, grid, gas, t, prim=prim) if records is None else records[k]
        integrands.append({
            "grad rho (L2^2)": gradient_norm_l2(prim.rho, grid) ** 2,
            "grad log rho (L2^2)": rec.norm_grad_log_rho ** 2,
            "grad rho^{5/2} (L2^2)": gradient_norm_l2(prim.rho ** 2.5, grid) ** 2,
            "grad 1/rho (L2^2)": gradient_norm_l2(1.0 / prim.rho, grid) ** 2,
            "grad T^{3/2} (L2^2)": rec.norm_grad_temp32 ** 2,
            "entropy dissipation": rec.entropy_dissipation,
        })

    sup = {key: max(s[key] for s in sups) for key in sups[0]}
    integrals = {key: float(np.trapezoid(np.array([i[key] for i in integrands]), times))
                 for key in integrands[0]}
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
