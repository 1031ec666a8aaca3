"""Assembly of specular directional derivatives, gradients, and Jacobians.

Operations here take analytic one-sided derivatives (or raw function
evaluations, for the finite-difference estimator) and combine them through
the scalar kernels.  The zero direction has derivative zero by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scalar import INFINITY_THRESHOLD, afun, afun_array, afun_tan_form, ensure_extended, promote_extended


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


def specular_with_norm(plus: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, float]:
    """(g, ||g||) for one-sided partials, float arrays of at most one dimension, along unit directions.

    The one assembly entry; ``specular_gradient`` converts an objective's partials for it.
    Where the partials agree g is the classical derivative, plus itself; afun_array runs on
    the kink entries only.  One array passed as both, with g.g below INFINITY_THRESHOLD ** 2
    (which a NaN or an entry at or past the threshold fails), is g itself, no copy.  The norm
    is sqrt(g.g), the bits of ``np.linalg.norm(g)``: +inf where a pair is infinite with one
    sign and NaN where a partial is NaN, the partials that cannot be assembled.
    """
    if plus is minus and plus.ndim <= 1:
        sq = plus.dot(plus)
        if sq < _SQUARED_THRESHOLD:
            return plus, math.sqrt(sq)
    g = _assemble(plus, minus)
    return g, math.sqrt(float(g.dot(g)))


def _assemble(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """The general path of the assembly: a new array, afun_array on the kink entries only.

    Partials at or past INFINITY_THRESHOLD are promoted to signed infinity, so
    (2e12, 3e12) agrees; an agreeing pair gives its partial, a NaN partial NaN.
    """
    if np.abs(plus).max(initial=0.0) < INFINITY_THRESHOLD and np.abs(minus).max(initial=0.0) < INFINITY_THRESHOLD:
        out = np.array(plus)  # a writable copy, even when 0-d
        kink = out != minus
    else:  # NaN fails the guard too; it is neither promoted nor a kink
        out, minus = (np.where(np.abs(a) >= INFINITY_THRESHOLD, np.copysign(np.inf, a), a) for a in (plus, minus))
        out[np.isnan(minus)] = math.nan
        kink = (out != minus) & ~np.isnan(out)
    if kink.any():
        out[kink] = afun_array(out[kink], minus[kink])
    return out


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a float array, also where the squares of its entries under- or overflow.

    Where ``np.linalg.norm(v)`` is finite and nonzero its bits are returned.
    Where it is 0 or inf although every entry is finite and one is nonzero,
    v is first rescaled by its largest magnitude, so a tiny vector is not
    taken for the zero vector nor a huge finite one for an infinite one.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if (norm == 0.0 or math.isinf(norm)) and np.isfinite(v).all():
        scale = float(np.abs(v).max(initial=0.0))
        if scale > 0.0:
            norm = scale * float(np.linalg.norm(v / scale))
    return norm


def specular_directional(obj, x, v) -> float:
    """Specular derivative at x along v (zero for v = 0); obj must also offer ``one_sided(x, v)``."""
    v = np.asarray(v, dtype=float)
    vnorm = vector_norm(v)
    if vnorm == 0.0:
        return 0.0
    return specular_from_one_sided(obj.one_sided(x, v), vnorm)


def specular_gradient(obj, x) -> np.ndarray:
    """Vector of specular partial derivatives, assembled from ``obj.one_sided_basis(x)`` made float arrays."""
    plus, minus = obj.one_sided_basis(np.asarray(x, dtype=float))
    # the smooth-point screen may overflow on huge partials; the general path takes those
    with np.errstate(over="ignore"):
        g, norm = specular_with_norm(np.asarray(plus, dtype=float), np.asarray(minus, dtype=float))
    if math.isnan(norm):
        raise ValueError("one-sided derivatives must not be NaN")
    if math.isinf(norm):
        raise HypothesisViolationError(f"one-sided derivatives are both {g[np.isinf(g)][0]:+g}; "
                                       "specular derivative does not exist")
    return g


def specular_jacobian(components, x) -> np.ndarray:
    """Stacked specular gradients: row j is the gradient of components[j] at x."""
    x = np.asarray(x, dtype=float)
    rows = []
    for j, comp in enumerate(components):
        try:
            rows.append(specular_gradient(comp, x))
        except HypothesisViolationError as err:
            raise HypothesisViolationError(f"component {j}, {err}") from err
    if not rows:
        raise ValueError("cannot stack the Jacobian of an empty component list")
    return np.vstack(rows)


FD_STEPS = tuple(2.0 ** -k for k in range(10, 25))  # the estimator's dyadic steps, about 1e-3 down to 6e-8
FD_RTOL = 1e-6  # relative agreement of two consecutive estimates that ends the walk


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


def fd_specular_directional(f, x, v) -> FdEstimate:
    """Estimate the specular directional derivative of a callable by finite differences.

    Walks the steps ``FD_STEPS``, forming at each h the chord slopes
    s+ = (f(x+hv)-f(x))/(h|v|) and s- = (f(x)-f(x-hv))/(h|v|) and the
    finite-h value |v| tan(arctan(s+)/2 + arctan(s-)/2).  Accepts the first
    step at which two consecutive values agree to ``FD_RTOL``; otherwise
    returns a non-converged estimate carrying the last two values.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    vnorm = vector_norm(v)
    if vnorm == 0.0:
        raise ValueError("direction must be nonzero")
    fx = float(f(x))
    estimates: list[float] = []
    for h in FD_STEPS:
        slope_plus = promote_extended((float(f(x + h * v)) - fx) / (h * vnorm))
        slope_minus = promote_extended((fx - float(f(x - h * v))) / (h * vnorm))
        est = vnorm * afun_tan_form(slope_plus, slope_minus)
        estimates.append(est)
        if len(estimates) >= 2 and math.isclose(est, estimates[-2], rel_tol=FD_RTOL, abs_tol=1e-12):
            return FdEstimate(est, abs(est - estimates[-2]), h, True, (estimates[-2], est))
    return FdEstimate(estimates[-1], abs(estimates[-1] - estimates[-2]), FD_STEPS[-1], False, tuple(estimates[-2:]))


def frechet_residual(obj, x, ell, w) -> float:
    """Gap between the chord-slope average at displacement w and the linear model ell.

    Returns |afun((f(x+w)-f(x))/|w|, (f(x)-f(x-w))/|w|) - <ell, w>/|w||.
    A sampled diagnostic: callers shrink w along fixed directions and check
    that the residual decays.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    ell = np.atleast_1d(np.asarray(ell, dtype=float))
    wnorm = vector_norm(w)
    if wnorm == 0.0:
        raise ValueError("displacement must be nonzero")
    fx = float(obj.value(x))
    forward = promote_extended((float(obj.value(x + w)) - fx) / wnorm)
    backward = promote_extended((fx - float(obj.value(x - w))) / wnorm)
    return abs(afun(forward, backward) - float(np.dot(ell, w)) / wnorm)
