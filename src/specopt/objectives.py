"""Objective catalog with analytic one-sided partials.

The ``Objective`` protocol is ``dimension``, ``value(x)`` and the partials
``one_sided_basis(x)``, all that the specular gradient and the optimizers ask
of an objective; ``specular_directional`` also needs ``one_sided(x, v)``.
The elastic net and the diagonal lasso also offer
``value_and_one_sided_basis(x)``, value and partials from one residual; the
optimizers call it on every row and take its partials, float arrays, as they are.

The partials come back as a pair (plus, minus).  Where no coordinate sits at
a kink the two are one array, ``plus is minus``, so the assembly can skip
its kink handling; callers must not mutate the returned partials.

Each objective is a smooth part plus a sum of one-variable terms, so its
one-sided rule is written once, as the partials plus_i = f'(x; e_i) and
minus_i = -f'(x; -e_i).  For lambda1 |x_i| and smooth gradient g they are
g_i + lambda1 sign(x_i) if x_i != 0, else g_i + lambda1 and g_i - lambda1
(x_i = 0 is dispatched on exact floating equality).  No convexity is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .specular import OneSidedPair


@runtime_checkable
class Objective(Protocol):
    """Function with analytic one-sided partials (f'(x; e_i), -f'(x; -e_i)) per coordinate.

    Any ``Objective`` drives ``specular_gradient`` and the optimizers.  The
    gradient is a subgradient, and ``basic_inequality_bound`` audits a run,
    only where specopt checks it: convex functions whose kink terms each
    depend on one coordinate, as in the catalog.  For a non-separable convex
    f such as max(x1, x2) the subgradient inequality can fail.
    """

    dimension: int

    def value(self, x) -> float: ...

    def one_sided_basis(self, x) -> tuple[np.ndarray, np.ndarray]: ...


# The objectives below share one shape, smooth part + lambda1 ||x||_1; these
# helpers add the penalty to the value or to the smooth gradient g.

def _l1_value(smooth, x: np.ndarray, lambda1: float) -> float:
    return float(smooth) + lambda1 * float(np.add.reduce(np.abs(x)))


def _ridge_value(data, x: np.ndarray, lambda2: float):
    """data + lambda2 ||x||^2 / 2; with lambda2 = 0 the term is left out, so a huge x gives no 0 * inf."""
    if lambda2 == 0.0:
        return data  # data >= 0, so adding the term's +0.0 would not change it
    return data + 0.5 * lambda2 * float(x.dot(x))


def _l1_one_sided_basis(g: np.ndarray, x: np.ndarray, lambda1: float,
                        t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(plus, minus) partials, g + t off the kinks with the term t = copysign(lambda1, x): lambda1 sign(x)
    bit for bit at nonzero numbers, and every catalog g_i at a NaN x_i is NaN; one array twice when no
    x_i is at a kink.  The caller forms t, so an oracle that reads t for its value too forms it once."""
    if lambda1 == 0.0:
        return g, g
    plus = g + t
    if np.count_nonzero(x) == x.size:  # no entry is 0.0 or -0.0 (NaN counts as nonzero)
        return plus, plus
    zero = x == 0.0
    g_zero = g[zero]
    minus = plus.copy()
    plus[zero] = g_zero + lambda1
    minus[zero] = g_zero - lambda1
    return plus, minus


def _operand(x: float) -> np.ndarray:
    """x as a 0-d array: a ufunc takes it with an array faster than a Python float, with the same bits."""
    return np.array(x)


def _check_weights(**weights: float) -> None:
    """Regularization weights are nonnegative and finite: an infinite one makes inf * 0 = NaN values."""
    for name, weight in weights.items():
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite")


def _check_dim(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a vector of dimension {n}, got shape {x.shape}")
    return x


class _Separable:
    """Base of the catalog objectives: ``one_sided(x, v)`` derived from ``one_sided_basis(x)``.

    Coordinate i adds plus_i v_i to f'(x; v) when v_i > 0 and minus_i v_i
    when v_i < 0 (nothing when v_i = 0, even at an infinite partial), and
    -f'(x; -v) swaps the two.  That is valid only because each kink term
    depends on one coordinate.  For a non-separable f such as max(x1, x2) the
    pair would be wrong, so a user objective writes its own ``one_sided``.
    """

    def one_sided(self, x, v) -> OneSidedPair:
        plus, minus = self.one_sided_basis(x)
        v = _check_dim(v, plus.shape[0])
        ahead = v > 0.0
        back = ~ahead & (v != 0.0)  # NaN entries land here, so OneSidedPair rejects the pair
        va, vb = v[ahead], v[back]
        return OneSidedPair(float(plus[ahead].dot(va) + minus[back].dot(vb)),
                            float(minus[ahead].dot(va) + plus[back].dot(vb)))


def _sample_gradient(a: np.ndarray, bj: float, lambda2: float, x: np.ndarray) -> np.ndarray:
    """Smooth gradient a (a.x - b_j) + lambda2 x of one sample term."""
    return a * (float(a.dot(x)) - bj) + lambda2 * x


@dataclass(frozen=True, eq=False)  # == and hash() by identity: its arrays have no truth value
class ElasticNetProblem(_Separable):
    """Least squares with ridge and lasso penalties.

    value(x) = ||A x - b||^2 / (2 m) + (lambda2 / 2) ||x||^2 + lambda1 ||x||_1
    """

    A: np.ndarray
    b: np.ndarray
    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        A = np.ascontiguousarray(self.A, dtype=float)
        b = np.ascontiguousarray(self.b, dtype=float)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("A must be a nonempty m x n matrix")
        if b.shape != (A.shape[0],):
            raise ValueError("b must have one entry per row of A")
        _check_weights(lambda1=self.lambda1, lambda2=self.lambda2)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lambda1", float(self.lambda1))
        object.__setattr__(self, "lambda2", float(self.lambda2))
        object.__setattr__(self, "_At", A.T)  # made once: every gradient takes A^T r
        object.__setattr__(self, "_m", float(A.shape[0]))
        object.__setattr__(self, "_m_array", _operand(self._m))
        object.__setattr__(self, "_lambda1_array", _operand(self.lambda1))
        object.__setattr__(self, "_lambda2_array", _operand(self.lambda2))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def dimension(self) -> int:
        return self.A.shape[1]

    def _residual(self, x: np.ndarray) -> np.ndarray:
        r = self.A.dot(x)
        r -= self.b  # in place on the product's own new array: the bits of A x - b
        return r

    def _value_at(self, x: np.ndarray, r: np.ndarray) -> float:
        return _l1_value(_ridge_value(0.5 * float(r.dot(r)) / self._m, x, self.lambda2), x, self.lambda1)

    def _smooth_gradient_at(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        g = self._At.dot(r)
        g /= self._m_array  # in place, in the order of A^T r / m + lambda2 x
        g += self._lambda2_array * x
        return g

    def value(self, x) -> float:
        x = _check_dim(x, self.n)
        return self._value_at(x, self._residual(x))

    def smooth_gradient(self, x) -> np.ndarray:
        """Gradient of the differentiable part: A^T (A x - b) / m + lambda2 x."""
        x = _check_dim(x, self.n)
        return self._smooth_gradient_at(x, self._residual(x))

    def one_sided_basis(self, x) -> tuple[np.ndarray, np.ndarray]:
        """One-sided partials along every e_i at once."""
        x = _check_dim(x, self.n)
        return self._l1_partials(self._smooth_gradient_at(x, self._residual(x)), x)

    def value_and_one_sided_basis(self, x) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        """(value(x), one_sided_basis(x)) from one residual A x - b.

        Two products with A instead of the three that separate calls make;
        both results are bit-identical to the separate calls.
        """
        x = _check_dim(x, self.n)
        r = self._residual(x)
        return self._value_at(x, r), self._l1_partials(self._smooth_gradient_at(x, r), x)

    def component(self, j: int) -> "ElasticNetComponent":
        """Sample term f_j (0-based j) with the shared regularizers.

        f_j(x) = (a_j . x - b_j)^2 / 2 + (lambda2 / 2) ||x||^2 + lambda1 ||x||_1,
        so that the mean of the components reproduces value() exactly.
        """
        self._check_index(j)
        return ElasticNetComponent(self.A[j], float(self.b[j]), self.lambda1, self.lambda2)

    def component_one_sided_basis(self, j: int, x) -> tuple[np.ndarray, np.ndarray]:
        """component(j).one_sided_basis(x), read off row j of A without building the component."""
        self._check_index(j)
        x = _check_dim(x, self.n)
        return self._l1_partials(_sample_gradient(self.A[j], float(self.b[j]), self._lambda2_array, x), x)

    def _l1_partials(self, g: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _l1_one_sided_basis(g, x, self.lambda1, np.copysign(self._lambda1_array, x))

    def _check_index(self, j: int) -> None:
        if not 0 <= j < self.m:
            raise IndexError(f"component index {j} out of range for m={self.m}")


@dataclass(frozen=True, eq=False)  # == and hash() by identity: its arrays have no truth value
class ElasticNetComponent(_Separable):
    """One squared residual plus the shared elastic-net regularizers."""

    a: np.ndarray
    bj: float
    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float, order="C")  # a row of A is no copy
        if a.ndim != 1 or a.shape[0] < 1:
            raise ValueError("a must be a nonempty vector")
        _check_weights(lambda1=self.lambda1, lambda2=self.lambda2)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "bj", float(self.bj))
        object.__setattr__(self, "lambda1", float(self.lambda1))
        object.__setattr__(self, "lambda2", float(self.lambda2))

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    def value(self, x) -> float:
        x = _check_dim(x, self.dimension)
        r = float(self.a.dot(x)) - self.bj
        return _l1_value(_ridge_value(0.5 * r * r, x, self.lambda2), x, self.lambda1)

    def smooth_gradient(self, x) -> np.ndarray:
        return _sample_gradient(self.a, self.bj, self.lambda2, _check_dim(x, self.dimension))

    def one_sided_basis(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = _check_dim(x, self.dimension)
        g = _sample_gradient(self.a, self.bj, self.lambda2, x)
        return _l1_one_sided_basis(g, x, self.lambda1, np.copysign(self.lambda1, x))


def sum_abs(n: int) -> ElasticNetProblem:
    """The pure l1 objective sum_i |x_i| in dimension n (zero data term)."""
    return ElasticNetProblem(np.zeros((1, n)), np.zeros(1), 1.0, 0.0)


def diagonal_lasso_minimizer(d, b, lambda1: float) -> np.ndarray:
    """Closed-form minimizer of sum_i d_i (x_i - b_i)^2 / 2 + lambda1 |x_i|.

    Per coordinate: soft threshold x_i = sign(b_i) max(|b_i| - lambda1/d_i, 0).
    """
    d = np.asarray(d, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(d > 0.0):  # NaN fails the comparison
        raise ValueError("curvatures d must be strictly positive")
    if not np.isfinite(b).all():
        raise ValueError("b must be finite")
    if not lambda1 >= 0.0:
        raise ValueError("lambda1 must be nonnegative")
    return np.sign(b) * np.maximum(np.abs(b) - lambda1 / d, 0.0)


@dataclass(frozen=True, eq=False)  # == and hash() by identity: its arrays have no truth value
class DiagonalLasso(_Separable):
    """Separable strongly convex test problem with a known minimizer.

    value(x) = sum_i d_i (x_i - b_i)^2 / 2 + lambda1 ||x||_1, formed as
    r.g / 2 + x.t from r = x - b, the smooth gradient g = d r and the term
    t = copysign(lambda1, x) that the partials g + t use as well.  ``value`` and
    ``one_sided_basis`` are the two parts of ``value_and_one_sided_basis``, bit-identical by construction.
    """

    d: np.ndarray
    b: np.ndarray
    lambda1: float
    dimension: int = field(init=False)  # stored, not a property: every oracle call checks its point against it

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if d.ndim != 1 or d.shape != b.shape:
            raise ValueError("d and b must be vectors of equal length")
        if not np.all((d > 0.0) & (d < math.inf)):  # NaN fails both comparisons
            raise ValueError("curvatures d must be strictly positive and finite")
        if not np.isfinite(b).all():
            raise ValueError("b must be finite")
        _check_weights(lambda1=self.lambda1)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lambda1", float(self.lambda1))
        object.__setattr__(self, "dimension", d.shape[0])
        object.__setattr__(self, "_lambda1_array", _operand(self.lambda1))

    def value(self, x) -> float:
        return self.value_and_one_sided_basis(x)[0]

    def smooth_gradient(self, x) -> np.ndarray:
        return self.d * (_check_dim(x, self.dimension) - self.b)

    def one_sided_basis(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self.value_and_one_sided_basis(x)[1]

    def value_and_one_sided_basis(self, x) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        """(value(x), one_sided_basis(x)) from one gradient d (x - b) and one term copysign(lambda1, x)."""
        x = _check_dim(x, self.dimension)
        r = x - self.b
        g = self.d * r
        t = np.copysign(self._lambda1_array, x)
        return 0.5 * float(r.dot(g)) + float(x.dot(t)), _l1_one_sided_basis(g, x, self.lambda1, t)

    def minimizer(self) -> np.ndarray:
        return diagonal_lasso_minimizer(self.d, self.b, self.lambda1)


@dataclass(frozen=True)
class PiecewiseScalar(_Separable):
    """One-dimensional objective defined by a value function and its lateral slopes.

    ``left_slope(ts)``/``right_slope(ts)`` are the one-sided classical slopes
    just left/right of each point of an array ts (a constant may come back as
    a scalar); ``fn`` takes a float.
    """

    name: str
    fn: Callable
    left_slope: Callable
    right_slope: Callable
    dimension: int = field(default=1, init=False)

    def value(self, x) -> float:
        return float(self.fn(float(_check_dim(x, 1)[0])))

    def one_sided_basis(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self.lateral_slopes(_check_dim(x, 1))

    def lateral_slopes(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(right, left) slopes at the points ts, new arrays of its shape; ``one_sided_basis`` at one point."""
        ts = np.asarray(ts, dtype=float)
        return tuple(np.full(ts.shape, slope(ts), dtype=float) for slope in (self.right_slope, self.left_slope))


_CATALOG_1D: dict[str, PiecewiseScalar] = {
    "abs": PiecewiseScalar(
        "abs",
        fn=np.abs,
        left_slope=lambda t: np.where(t > 0.0, 1.0, -1.0),
        right_slope=lambda t: np.where(t >= 0.0, 1.0, -1.0),
    ),
    "maxaffine": PiecewiseScalar(
        "maxaffine",
        fn=lambda t: np.maximum(t, 2.0 * t),
        left_slope=lambda t: np.where(t > 0.0, 2.0, 1.0),
        right_slope=lambda t: np.where(t >= 0.0, 2.0, 1.0),
    ),
    "quad": PiecewiseScalar(
        "quad",
        fn=lambda t: t * t,
        left_slope=lambda t: 2.0 * t,
        right_slope=lambda t: 2.0 * t,
    ),
    "quadkink": PiecewiseScalar(
        "quadkink",
        fn=lambda t: 0.5 * t * t + np.abs(t),
        left_slope=lambda t: t + np.where(t > 0.0, 1.0, -1.0),
        right_slope=lambda t: t + np.where(t >= 0.0, 1.0, -1.0),
    ),
}


def test_function_1d(name: str) -> PiecewiseScalar:
    """Catalog lookup of the one-dimensional test objectives."""
    try:
        return _CATALOG_1D[name]
    except KeyError:
        raise ValueError(f"unknown test function {name!r}; choose from {sorted(_CATALOG_1D)}") from None


def catalog_1d_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG_1D))
