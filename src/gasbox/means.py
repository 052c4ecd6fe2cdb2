"""Two-point face averages: arithmetic, logarithmic and geometric means.

All functions accept scalars or numpy arrays of matching shape (the two
arguments are the values on either side of a face) and broadcast like
ufuncs.  The logarithmic mean uses a series expansion near equal
arguments to avoid the 0/0 cancellation in (b - a) / (log b - log a).
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "arith_mean",
    "log_mean",
    "PairMeans",
    "pair_means",
    "geo_mean",
    "split_average_residual",
]

# Switch to the series branch when zeta^2 < _SERIES_CUTOFF, with
# zeta = (b - a)/(b + a).  A four-term expansion then carries a relative
# truncation error below 1e-16 (next term is zeta^8/9 < 1e-17).
_SERIES_CUTOFF = 1.0e-4


def arith_mean(a, b):
    """Arithmetic mean (a + b) / 2."""
    return 0.5 * (np.asarray(a, dtype=float) + np.asarray(b, dtype=float))


def _log_mean(total, jump, log_jump):
    """Log mean from a + b, b - a and log b - log a (no argument checks),
    returned with zeta = (b - a)/(a + b) and z = zeta^2.

    Series branch (a + b) / (2 + 2 z/3 + 2 z^2/5 + 2 z^3/7) for z below
    the cutoff, direct quotient otherwise.
    """
    zeta = jump / total
    z = zeta * zeta
    out = np.asarray(total / (2.0 + z * (2.0 / 3.0 + z * (2.0 / 5.0 + z * (2.0 / 7.0)))))
    # above the cutoff the pair differs by > 2%, so log_jump != 0
    np.divide(jump, log_jump, out=out, where=z >= _SERIES_CUTOFF)
    return out, zeta, z


def log_mean(a, b):
    """Logarithmic mean (b - a) / (log b - log a), equal to a when a == b.

    Both arguments must be positive.  Near a == b the direct quotient
    loses all significant digits, so for zeta^2 = ((b-a)/(b+a))^2 below
    1e-4 the value is computed from

        (a + b) / (2 + 2 z/3 + 2 z^2/5 + 2 z^3/7),   z = zeta^2,

    which is the expansion of the exact quotient in zeta.  The result is
    bitwise symmetric in (a, b) on both branches.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("log_mean requires strictly positive arguments")

    # log(b) - log(a) rather than log(b/a): the difference of the two
    # rounded logs negates exactly under argument swap.
    out = _log_mean(a + b, b - a, np.log(b) - np.log(a))[0]
    out = np.where(a == b, a, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PairMeans:
    """Means of positive pairs (a, b), the jumps they come from, and the
    series variables of the log mean, which the density sensor reuses."""

    jump: np.ndarray      # b - a
    log_jump: np.ndarray  # log b - log a
    bar: np.ndarray       # arithmetic mean
    ln: np.ndarray        # logarithmic mean
    zeta: np.ndarray      # (b - a)/(a + b)
    z: np.ndarray         # zeta^2


def _pair_fields(jump, log_jump, bar, total):
    """The :class:`PairMeans` fields from the jumps, the mean and the sum a + b."""
    return (jump, log_jump, bar) + _log_mean(total, jump, log_jump)


def pair_means(a, b, log_a, log_b):
    """Arithmetic and logarithmic means of positive pairs from their logs.

    The arguments are not checked: callers pass values validated as
    positive and finite (see ``thermo.primitives_from_conserved``) and
    their precomputed logs, so each log is taken once per value rather
    than once per pair.  The log mean equals :func:`log_mean` of the
    same pair bitwise.
    """
    return PairMeans(*_pair_fields(b - a, log_b - log_a, 0.5 * (total := a + b), total))


def geo_mean(a, b):
    """Geometric mean sqrt(a * b); accepts zero, rejects negative input."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("geo_mean requires nonnegative arguments")
    out = np.sqrt(a * b)
    return float(out) if out.ndim == 0 else out


def split_average_residual(a_pair, b_pair):
    """Defect of the product-average splitting identity.

    For nodal pairs a = (aL, aR), b = (bL, bR) the identity

        mean(a*b) = mean(a)*mean(b) + (aR - aL)*(bR - bL) / 4

    holds algebraically; the return value |lhs - rhs| measures only
    floating-point rounding.
    """
    a_l, a_r = (np.asarray(x, dtype=float) for x in a_pair)
    b_l, b_r = (np.asarray(x, dtype=float) for x in b_pair)
    lhs = 0.5 * (a_l * b_l + a_r * b_r)
    rhs = arith_mean(a_l, a_r) * arith_mean(b_l, b_r) + 0.25 * (a_r - a_l) * (b_r - b_l)
    out = np.abs(lhs - rhs)
    return float(out) if out.ndim == 0 else out
