"""Example values and algebraic properties of the scalar slope kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specopt.scalar import (
    INFINITY_THRESHOLD,
    afun,
    afun_array,
    afun_tan_form,
    bfun,
    ensure_extended,
    promote_extended,
)

INF = math.inf

# tan(arctan(2)/2 + arctan(1)/2) = (1 + sqrt(10))/3, computed at 40 digits
AFUN_2_1 = 1.387425886722793


class TestAfunExamples:
    def test_equal_slopes_collapse(self):
        assert afun(3.0, 3.0) == 3.0

    def test_antisymmetric_pair_is_zero(self):
        assert afun(1.0, -1.0) == 0.0

    def test_reference_value(self):
        assert afun(2.0, 1.0) == pytest.approx(AFUN_2_1, abs=1e-12)

    def test_one_infinite_argument(self):
        assert afun(0.0, INF) == 1.0
        assert afun(0.0, -INF) == -1.0
        assert afun(3.0, INF) == pytest.approx(3.0 + math.sqrt(10.0), abs=1e-12)
        assert afun(INF, 3.0) == afun(3.0, INF)

    def test_huge_slopes(self):
        # past 1e150 alpha*beta can overflow; closed forms to a few ulps
        ulps = 4 * 2.0 ** -52
        assert afun(1e200, 2e200) == pytest.approx(4e200 / 3.0, rel=ulps, abs=0.0)
        assert afun(1e14, 1e300) == pytest.approx(2e14, rel=ulps, abs=0.0)
        assert afun(-1e200, 2e200) == pytest.approx(2.5e-201, rel=ulps, abs=0.0)

    def test_one_infinite_argument_without_cancellation(self):
        # alpha + sqrt(1 + alpha^2) for alpha << 0 equals 1 / (sqrt(1 + alpha^2) - alpha)
        for alpha in (-1e3, -1e8, -1e200):
            expected = 1.0 / (math.hypot(1.0, alpha) - alpha)
            assert afun(alpha, INF) == pytest.approx(expected, rel=1e-15, abs=0.0)
            assert afun(-alpha, -INF) == pytest.approx(-expected, rel=1e-15, abs=0.0)

    def test_opposite_infinities(self):
        assert afun(INF, -INF) == 0.0
        assert afun(-INF, INF) == 0.0

    def test_same_sign_infinities_pass_through(self):
        assert afun(INF, INF) == INF
        assert afun(-INF, -INF) == -INF

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            afun(math.nan, 1.0)
        with pytest.raises(ValueError):
            afun(1.0, math.nan)


class TestBfunExamples:
    def test_equal_differences(self):
        assert bfun(1.0, 1.0, 2.0) == 0.5

    def test_antisymmetric_numerator(self):
        assert bfun(1.0, -1.0, 5.0) == 0.0

    def test_reference_value(self):
        assert bfun(2.0, 1.0, 1.0) == pytest.approx(AFUN_2_1, abs=1e-12)

    def test_invalid_width(self):
        for c in (0.0, -1.0, math.nan, INF):
            with pytest.raises(ValueError):
                bfun(1.0, 1.0, c)


class TestTanForm:
    def test_zero(self):
        assert afun_tan_form(0.0, 0.0) == 0.0

    def test_unit(self):
        assert afun_tan_form(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        assert afun_tan_form(2.0, 1.0) == pytest.approx(AFUN_2_1, abs=1e-12)


def test_promotion_threshold():
    assert promote_extended(INFINITY_THRESHOLD) == INF
    assert promote_extended(-INFINITY_THRESHOLD) == -INF
    assert promote_extended(INFINITY_THRESHOLD * 0.999) != INF
    with pytest.raises(ValueError):
        ensure_extended(math.nan)


finite_slopes = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(finite_slopes, finite_slopes)
def test_symmetry_exact(alpha, beta):
    assert afun(alpha, beta) == afun(beta, alpha)


@settings(max_examples=300, deadline=None)
@given(finite_slopes, finite_slopes)
def test_betweenness(alpha, beta):
    val = afun(alpha, beta)
    assert min(alpha, beta) <= val <= max(alpha, beta)


@settings(max_examples=300, deadline=None)
@given(finite_slopes, finite_slopes)
def test_magnitude_bound(alpha, beta):
    assert abs(afun(alpha, beta)) <= abs(alpha + beta) / 2.0 + 1e-12


@settings(max_examples=300, deadline=None)
@given(finite_slopes, finite_slopes)
def test_form_equivalence(alpha, beta):
    val = afun(alpha, beta)
    assert abs(val - afun_tan_form(alpha, beta)) <= 1e-9 * (1.0 + abs(val))


@settings(max_examples=300, deadline=None)
@given(finite_slopes, finite_slopes,
       st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_bfun_scaling(a, b, c):
    val = bfun(a, b, c)
    assert abs(val - afun(a / c, b / c)) <= 1e-9 * (1.0 + abs(val))


def test_array_kernel_matches_scalar_bitwise():
    rng = np.random.default_rng(7)
    for top in (6, 300):  # magnitudes up to 1e300 take afun's huge-slope path
        alpha = np.where(rng.random(5000) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-6, top, 5000)
        beta = np.where(rng.random(5000) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-6, top, 5000)
        vec = afun_array(alpha, beta)
        scal = np.array([afun(a, b) for a, b in zip(alpha, beta)])
        assert np.array_equal(vec, scal)


def test_array_kernel_rejects_nan():
    with pytest.raises(ValueError):
        afun_array(np.array([1.0, math.nan]), np.array([0.0, 0.0]))
    # the kernel takes finite slopes only; infinite ones are rejected too
    for alpha, beta in ((math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf), (-math.inf, math.inf)):
        with pytest.raises(ValueError):
            afun_array(np.array([alpha]), np.array([beta]))
