"""Assembly of specular directional derivatives, gradients, and Jacobians.

Operations here take analytic one-sided derivatives (or raw function
evaluations, for the finite-difference estimator) and combine them through
the scalar kernels.  The zero direction has derivative zero by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scalar import INFINITY_THRESHOLD, afun, afun_array, ensure_extended, promote_extended


_SQUARED_THRESHOLD = INFINITY_THRESHOLD * INFINITY_THRESHOLD


class HypothesisViolationError(ValueError):
    """Both one-sided derivatives are infinite with the same sign."""


@dataclass(frozen=True)
class OneSidedPair:
    """Forward and backward directional derivatives, as extended reals."""

    plus: float
    minus: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "plus", ensure_extended(self.plus, "plus"))
        object.__setattr__(self, "minus", ensure_extended(self.minus, "minus"))


def specular_from_one_sided(pair: OneSidedPair, vnorm: float) -> float:
    """Specular directional derivative from a one-sided pair along a direction of norm vnorm.

    The slopes per unit length, plus / vnorm and minus / vnorm, are promoted
    to +-inf where their magnitude is at or above INFINITY_THRESHOLD; afun
    carries those limits.  The result is always finite; slopes infinite with
    the same sign violate the existence hypothesis and are rejected.
    """
    vnorm = float(vnorm)
    if not vnorm > 0.0 or math.isinf(vnorm) or math.isnan(vnorm):
        raise ValueError("vnorm must be a positive finite real")
    plus = promote_extended(pair.plus / vnorm)
    minus = promote_extended(pair.minus / vnorm)
    if math.isinf(plus) and plus == minus:
        raise HypothesisViolationError(
            f"one-sided derivatives are both {plus:+g}; specular derivative does not exist"
        )
    return vnorm * afun(plus, minus)


def specular_from_one_sided_array(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Vectorized assembly for arrays of one-sided values along unit directions.

    Where the two one-sided values agree the derivative is the classical one,
    plus itself; afun_array runs on the kink entries only.  When both
    arguments are one array of at most one dimension (no kink anywhere), that
    array itself is returned, the same bits without a copy.  That shortcut
    screens magnitudes by the squared norm, which is at least
    INFINITY_THRESHOLD ** 2 whenever one entry is at or past the threshold
    (and NaN when one is NaN), so it never admits an entry the general path
    would promote or reject; what it turns away takes the general path.
    """
    plus = np.asarray(plus, dtype=float)
    if plus is minus and plus.ndim <= 1 and plus.dot(plus) < _SQUARED_THRESHOLD:
        return plus
    minus = np.asarray(minus, dtype=float)
    if np.abs(plus).max(initial=0.0) < INFINITY_THRESHOLD and np.abs(minus).max(initial=0.0) < INFINITY_THRESHOLD:
        out = np.array(plus)  # a writable copy, even when 0-d
        kink = out != minus
        if kink.any():
            out[kink] = afun_array(out[kink], minus[kink])
        return out
    out = np.empty(plus.shape, dtype=float)
    flat_p, flat_m, flat_o = plus.ravel(), minus.ravel(), out.ravel()
    for i in range(flat_p.size):
        flat_o[i] = specular_from_one_sided(OneSidedPair(flat_p[i], flat_m[i]), 1.0)
    return out


def specular_directional(obj, x, v) -> float:
    """Specular derivative at x along v (zero for v = 0); obj must also offer ``one_sided(x, v)``."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return 0.0
    if math.isinf(vnorm) and np.isfinite(v).all():  # the squares overflowed; rescale by the largest entry
        scale = float(np.abs(v).max())
        vnorm = scale * float(np.linalg.norm(v / scale))
    return specular_from_one_sided(obj.one_sided(x, v), vnorm)


def specular_gradient(obj, x) -> np.ndarray:
    """Vector of specular partial derivatives, assembled from ``obj.one_sided_basis(x)``."""
    plus, minus = obj.one_sided_basis(np.asarray(x, dtype=float))
    # the smooth-point screen may overflow on huge partials; the general path takes those
    with np.errstate(over="ignore"):
        return specular_from_one_sided_array(plus, minus)


def specular_jacobian(components, x) -> np.ndarray:
    """Stacked specular gradients: row j is the gradient of components[j] at x."""
    x = np.asarray(x, dtype=float)
    rows = []
    for j, comp in enumerate(components):
        try:
            rows.append(specular_gradient(comp, x))
        except HypothesisViolationError as err:
            raise HypothesisViolationError(f"component {j}, {err}") from err
    return np.vstack(rows)


def default_fd_schedule() -> list[float]:
    """Dyadic step schedule 2^-k for k = 10..24 (about 1e-3 down to 6e-8)."""
    return [2.0 ** -k for k in range(10, 25)]


@dataclass(frozen=True)
class FdEstimate:
    """Finite-difference estimate with its convergence diagnostics.

    ``agreement`` is the absolute difference between the last two schedule
    values; ``last_two`` carries them whether or not the schedule converged.
    """

    value: float
    agreement: float
    h: float
    converged: bool
    last_two: tuple[float, ...]


def fd_specular_directional(f, x, v, h_schedule=None, rtol: float = 1e-6) -> FdEstimate:
    """Estimate the specular directional derivative of a callable by finite differences.

    Walks a strictly decreasing step schedule, forming at each h the chord
    slopes s+ = (f(x+hv)-f(x))/(h|v|) and s- = (f(x)-f(x-hv))/(h|v|) and the
    finite-h value |v| tan(arctan(s+)/2 + arctan(s-)/2).  Accepts the first
    step at which two consecutive values agree to ``rtol``; otherwise returns
    a non-converged estimate carrying the last two values.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        raise ValueError("direction must be nonzero")
    if h_schedule is None:
        h_schedule = default_fd_schedule()
    fx = float(f(x))
    estimates: list[float] = []
    for h in h_schedule:
        slope_plus = promote_extended((float(f(x + h * v)) - fx) / (h * vnorm))
        slope_minus = promote_extended((fx - float(f(x - h * v))) / (h * vnorm))
        est = vnorm * math.tan(0.5 * math.atan(slope_plus) + 0.5 * math.atan(slope_minus))
        estimates.append(est)
        if len(estimates) >= 2 and math.isclose(est, estimates[-2], rel_tol=rtol, abs_tol=1e-12):
            return FdEstimate(est, abs(est - estimates[-2]), h, True, (estimates[-2], est))
    agreement = abs(estimates[-1] - estimates[-2]) if len(estimates) >= 2 else math.inf
    return FdEstimate(estimates[-1], agreement, h_schedule[-1], False, tuple(estimates[-2:]))


def frechet_residual(obj, x, ell, w) -> float:
    """Gap between the chord-slope average at displacement w and the linear model ell.

    Returns |afun((f(x+w)-f(x))/|w|, (f(x)-f(x-w))/|w|) - <ell, w>/|w||.
    A sampled diagnostic: callers shrink w along fixed directions and check
    that the residual decays.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    ell = np.atleast_1d(np.asarray(ell, dtype=float))
    wnorm = float(np.linalg.norm(w))
    if wnorm == 0.0:
        raise ValueError("displacement must be nonzero")
    fx = float(obj.value(x))
    forward = promote_extended((float(obj.value(x + w)) - fx) / wnorm)
    backward = promote_extended((fx - float(obj.value(x - w))) / wnorm)
    return abs(afun(forward, backward) - float(np.dot(ell, w)) / wnorm)
