"""Exact scalar kernels for specular slopes.

The central object is the bisecting-slope average of two slopes alpha and
beta: the tangent of the mean of their inclination angles,

    afun(alpha, beta) = (alpha*beta - 1 + sqrt((1+alpha^2)(1+beta^2))) / (alpha + beta)

with value 0 when alpha + beta = 0, extended to infinite arguments by the
limiting values.  Geometrically this is the slope of the mirror line that
reflects a chord of slope alpha into a chord of slope beta.  ``afun_tan_form``
is the trigonometric reference form used for cross-validation; ``bfun`` is
the scale-carrying variant that consumes raw chord differences.

Evaluation detail shared by afun and bfun: with e = alpha*beta - 1 and
s = alpha + beta, the identity (1+alpha^2)(1+beta^2) = e^2 + s^2 turns the
quotient into (e + hypot(e, s)) / s, and multiplying by the conjugate gives
the equivalent s / (hypot(e, s) - e).  The first form adds nonnegative terms
when e >= 0, the second when e < 0, so picking the branch by the sign of e
avoids the cancellation that makes the printed form lose all precision for
large opposite-sign slopes.  The e < 0 branch also absorbs the removable
singularity at s = 0.
"""

from __future__ import annotations

import math

import numpy as np

INFINITY_THRESHOLD = 1e12
"""Magnitude at which a one-sided slope is treated as infinite."""

# past this magnitude alpha*beta can overflow double precision
_HUGE = 1e150
_SCALE = 2.0 ** -600  # brings huge slopes into bfun's range; a power of two scales exactly


def ensure_extended(x: float, name: str = "value") -> float:
    """Validate an extended-real argument: any float except NaN."""
    x = float(x)
    if math.isnan(x):
        raise ValueError(f"{name} must not be NaN")
    return x


def promote_extended(x: float) -> float:
    """Promote magnitudes at or above INFINITY_THRESHOLD to signed infinity."""
    x = ensure_extended(x)
    if abs(x) >= INFINITY_THRESHOLD:
        return math.copysign(math.inf, x)
    return x


def afun(alpha: float, beta: float) -> float:
    """Bisecting-slope average of two extended-real slopes.

    Symmetric in its arguments.  For finite arguments the result lies between
    min(alpha, beta) and max(alpha, beta) and satisfies
    |afun(alpha, beta)| <= |alpha + beta| / 2.  Infinite arguments take the
    limiting values afun(alpha, +-inf) = alpha +- sqrt(1 + alpha^2),
    afun(+-inf, +-inf) = +-inf, and afun(+-inf, -+inf) = 0.
    """
    alpha = ensure_extended(alpha, "alpha")
    beta = ensure_extended(beta, "beta")
    if alpha > beta:  # canonical ordering makes symmetry exact
        alpha, beta = beta, alpha
    if math.isinf(alpha) or math.isinf(beta):
        if math.isinf(alpha) and math.isinf(beta):
            return 0.0 if alpha != beta else alpha
        if math.isinf(beta):
            finite, sign = alpha, beta
        else:
            finite, sign = beta, alpha
        root = math.hypot(1.0, finite)
        if (finite < 0.0) == (sign > 0.0):  # opposite signs: the conjugate form does not cancel
            return math.copysign(1.0 / (root + abs(finite)), sign)
        return finite + math.copysign(root, sign)
    if alpha == beta:
        return alpha
    s = alpha + beta
    if s == 0.0:
        return 0.0
    if -alpha > _HUGE or beta > _HUGE:
        out = bfun(alpha * _SCALE, beta * _SCALE, _SCALE)
    else:
        e = alpha * beta - 1.0
        r = abs(complex(e, s))  # libm's hypot, as np.hypot calls in the vectorized path
        out = (e + r) / s if e >= 0.0 else s / (r - e)
    # round-off must not push the result outside [alpha, beta]
    return min(max(out, alpha), beta)


def afun_tan_form(alpha: float, beta: float) -> float:
    """Reference form tan(arctan(alpha)/2 + arctan(beta)/2) for finite slopes."""
    alpha = ensure_extended(alpha, "alpha")
    beta = ensure_extended(beta, "beta")
    return math.tan(0.5 * math.atan(alpha) + 0.5 * math.atan(beta))


def bfun(a: float, b: float, c: float) -> float:
    """Scale-carrying slope average of chord differences a, b over width c > 0.

    Equals afun(a / c, b / c) without forming the ratios:

        (a*sqrt(b^2+c^2) + b*sqrt(a^2+c^2)) / (c*sqrt(a^2+c^2) + c*sqrt(b^2+c^2))

    evaluated through the conjugate split on the sign of a*b - c^2, with
    sqrt((a^2+c^2)(b^2+c^2)) = hypot(a, c) * hypot(b, c).
    """
    a = ensure_extended(a, "a")
    b = ensure_extended(b, "b")
    c = float(c)
    if math.isnan(c) or math.isinf(c) or c <= 0.0:
        raise ValueError("c must be a positive finite real")
    if a > b:
        a, b = b, a
    if a == b:
        return a / c
    s = a + b
    if s == 0.0:
        return 0.0
    root = math.hypot(a, c) * math.hypot(b, c)
    e = a * b - c * c
    if e >= 0.0:
        return (e + root) / (c * s)
    return (c * s) / (root - e)


# 0-d operands for afun_array: numpy takes them faster than Python floats, with the same bits
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_LOW, _HIGH = np.array(-_HUGE), np.array(_HUGE)


def afun_array(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Vectorized afun for extended-real slope arrays, bit-identical to afun entry by entry.

    Same branch structure and round-off clamp as the scalar form; entries with a
    slope past 1e150 (alpha*beta can overflow), infinite ones too, go to afun.  NaN is rejected.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    lo, hi = np.minimum(alpha, beta), np.maximum(alpha, beta)  # NaN in either slope is NaN in both
    tame = (lo >= _LOW) & (hi <= _HIGH)  # NaN fails it too
    if np.count_nonzero(tame) == tame.size:  # then no step below can overflow or divide by zero
        return _afun_formula(alpha, beta, lo, hi)
    if np.isnan(lo).any():
        raise ValueError("slopes must not be NaN")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _afun_formula(alpha, beta, lo, hi)
    huge = ~tame
    out[huge] = [afun(a, b) for a, b in zip(alpha[huge].tolist(), beta[huge].tolist())]
    return out


def _afun_formula(alpha: np.ndarray, beta: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """afun's finite-slope arithmetic, entry by entry, with lo and hi the entrywise min and max."""
    s = alpha + beta
    e = alpha * beta
    e -= _ONE
    r = np.hypot(e, s)
    grow = e >= _ZERO
    # each entry divides by its own branch's denominator: s, which is not 0 where alpha beta >= 1,
    # or r - e, which is at least 1 where alpha beta < 1
    out = np.where(grow, e + r, s)
    out /= np.where(grow, s, r - e)
    # the clamp is afun's min(max(out, lo), hi): a tie keeps out, signed zeros included
    np.copyto(out, lo, where=out < lo)
    np.copyto(out, hi, where=out > hi)
    np.copyto(out, alpha, where=alpha == beta)
    return out
