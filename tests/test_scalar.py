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


@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("g", [-2.0, -0.3, 0.3, 2.0])
def test_l1_kink_closed_form(lam, g):
    # at a kink of lam |x_i| with smooth partial g the pair is (g + lam, g - lam), and afun is
    # tan(atan(2g / (1 + lam^2 - g^2)) / 2) while |g| < sqrt(1 + lam^2), about the midpoint g damped
    # by 1 + lam^2; atan2 carries the angle past pi / 2 beyond that, where g = +-2 is at lam = 0.01 and 1
    closed = math.tan(0.5 * math.atan2(2.0 * g, 1.0 + lam * lam - g * g))
    assert afun(g + lam, g - lam) == pytest.approx(closed, rel=1e-13, abs=0.0)


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
    # signed zeros and subnormals, every ordered pair, compared by their bits:
    # the clamp must keep the computed value on a tie, as afun's min(max(...)) does
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1.0, -1.0])
    alpha, beta = np.repeat(tiny, tiny.size), np.tile(tiny, tiny.size)
    scal = np.array([afun(a, b) for a, b in zip(alpha.tolist(), beta.tolist())])
    assert afun_array(alpha, beta).tobytes() == scal.tobytes()


def test_array_kernel_rejects_nan():
    with pytest.raises(ValueError):
        afun_array(np.array([1.0, math.nan]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        afun_array(np.array([0.0, 0.0]), np.array([1.0, math.nan]))
    # infinite slopes are afun's: its limiting values, bit for bit
    for alpha, beta in ((math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf), (-math.inf, math.inf),
                        (math.inf, -0.0), (-1e200, math.inf)):
        got = afun_array(np.array([alpha]), np.array([beta]))
        assert got.tobytes() == np.array([afun(alpha, beta)]).tobytes()


class TestArrayKernelContract:
    def test_a_0d_slope_broadcasts_against_a_vector(self):
        beta = np.array([-3.0, -0.0, 0.5, 2.0, 1e200, INF])
        want = np.array([afun(1.5, b) for b in beta.tolist()])
        assert afun_array(np.array(1.5), beta).tobytes() == want.tobytes()
        assert afun_array(beta, 1.5).tobytes() == want.tobytes()
        both = afun_array(np.array(2.0), np.array(1.0))
        assert both.shape == () and both.dtype == np.float64 and float(both) == afun(2.0, 1.0)

    def test_shapes_that_do_not_broadcast_are_rejected(self):
        with pytest.raises(ValueError):
            afun_array(np.ones(3), np.ones(2))

    def test_empty_input_gives_an_empty_float_array(self):
        out = afun_array(np.empty(0), np.empty(0))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_a_2d_input_keeps_its_shape(self):
        rng = np.random.default_rng(3)
        alpha, beta = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        out = afun_array(alpha, beta)
        assert out.shape == (3, 4) and out.dtype == np.float64
        want = [afun(a, b) for a, b in zip(alpha.ravel().tolist(), beta.ravel().tolist())]
        assert out.ravel().tobytes() == np.array(want).tobytes()

    def test_the_result_is_a_new_array(self):
        alpha, beta = np.array([1.0, 2.0, -4.0]), np.array([1.0, 3.0, 4.0])
        out = afun_array(alpha, beta)
        assert not np.shares_memory(out, alpha) and not np.shares_memory(out, beta)
        out[:] = 7.0
        assert alpha.tolist() == [1.0, 2.0, -4.0] and beta.tolist() == [1.0, 3.0, 4.0]
