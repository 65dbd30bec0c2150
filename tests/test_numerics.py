"""Special functions and adaptive quadrature against independent oracles.

The production code routes through scipy; every oracle here is built
from a different representation (power series, direct quadrature, or a
probabilistic identity), so agreement is meaningful.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from fluidcell import (
    ConvergenceError,
    QuadratureSpec,
    bessel_i0,
    bessel_i0e,
    bessel_j0,
    erf,
    integrate_finite,
    integrate_finite_with_error,
    marcum_q1,
)
from oracles import (
    erf_quadrature,
    i0_series,
    j0_series,
    marcum_q1_mpmath,
    marcum_quadrature,
)


class TestBesselOracles:
    def test_j0_matches_series(self):
        x = np.linspace(-10.0, 10.0, 1201)
        np.testing.assert_allclose(bessel_j0(x), j0_series(x),
                                   rtol=0.0, atol=1e-10)

    def test_i0_matches_series(self):
        x = np.linspace(-10.0, 10.0, 1201)
        np.testing.assert_allclose(bessel_i0(x), i0_series(x),
                                   rtol=1e-12, atol=1e-10)

    def test_i0e_scaling(self):
        x = np.linspace(-10.0, 10.0, 201)
        np.testing.assert_allclose(bessel_i0e(x),
                                   i0_series(x) * np.exp(-np.abs(x)),
                                   rtol=1e-12, atol=1e-12)

    def test_i0e_survives_large_arguments(self):
        big = bessel_i0e(5e4)
        assert np.isfinite(big) and 0.0 < big < 1.0

    def test_scalar_in_scalar_out(self):
        assert isinstance(bessel_j0(1.0), float)
        assert isinstance(bessel_i0(1.0), float)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bessel_j0(np.nan)
        with pytest.raises(ValueError):
            bessel_i0(np.inf)


class TestErf:
    def test_matches_quadrature(self):
        x = np.linspace(-10.0, 10.0, 101)
        np.testing.assert_allclose(erf(x), erf_quadrature(x),
                                   rtol=0.0, atol=1e-10)

    def test_odd_symmetry(self):
        x = np.linspace(0.0, 6.0, 301)
        np.testing.assert_allclose(erf(-x), -erf(x), atol=1e-15)


class TestMarcumQ1:
    def test_matches_tail_quadrature(self):
        rng = np.random.default_rng(42)
        pairs = rng.uniform(0.05, 8.0, size=(60, 2))
        for a, b in pairs:
            expected = marcum_quadrature(a, b)
            np.testing.assert_allclose(marcum_q1(a, b), expected,
                                       rtol=1e-9, atol=1e-11)

    def test_pinned_point(self):
        np.testing.assert_allclose(marcum_q1(1.0, 2.0),
                                   marcum_quadrature(1.0, 2.0),
                                   rtol=0.0, atol=1e-10)

    def test_zero_threshold_is_one(self):
        assert marcum_q1(3.0, 0.0) == 1.0
        assert marcum_q1(0.0, 0.0) == 1.0

    def test_zero_noncentrality_is_gaussian_tail(self):
        b = np.linspace(0.1, 10.0, 50)
        np.testing.assert_allclose(marcum_q1(0.0, b), np.exp(-b * b / 2.0),
                                   rtol=1e-12, atol=1e-300)

    def test_equal_arguments(self):
        for a in (0.3, 1.0, 4.0, 9.0):
            expected = 0.5 * (1.0 + float(bessel_i0e(a * a)))
            np.testing.assert_allclose(marcum_q1(a, a), expected, rtol=1e-12)
            np.testing.assert_allclose(marcum_q1(a, a),
                                       marcum_quadrature(a, a), atol=1e-10)

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(42)
        alpha = rng.uniform(0.0, 10.0, 500)
        beta = alpha + rng.uniform(0.0, 10.0, 500)
        q = marcum_q1(alpha, beta)
        lower = np.exp(-0.5 * (beta + alpha) ** 2)
        upper = np.exp(-0.5 * (beta - alpha) ** 2)
        assert np.all(q >= lower - 1e-15)
        assert np.all(q <= upper + 1e-15)

    def test_complement_of_rician_cdf(self):
        for a, b in ((0.5, 1.5), (2.0, 1.0), (3.0, 3.5)):
            mass, _ = integrate.quad(
                lambda t: t * math.exp(-0.5 * (t - a) ** 2)
                * float(bessel_i0e(a * t)),
                0.0, b, epsabs=1e-12,
            )
            np.testing.assert_allclose(marcum_q1(a, b) + mass, 1.0, atol=1e-8)

    def test_monotone_decreasing_in_threshold(self):
        b = np.linspace(0.0, 12.0, 200)
        q = marcum_q1(2.0 * np.ones_like(b), b)
        assert np.all(np.diff(q) <= 1e-15)

    def test_underflow_saturates_cleanly(self):
        # prefactor exp(-(b-a)^2/2) underflows: exact 0 / 1, not garbage
        assert marcum_q1(0.5, 80.0) == 0.0
        assert marcum_q1(80.0, 0.5) == 1.0

    def test_vectorized_matches_scalar(self):
        a = np.array([0.5, 2.0, 7.0])
        b = np.array([1.0, 1.0, 2.0])
        vec = marcum_q1(a, b)
        flat = [marcum_q1(float(x), float(y)) for x, y in zip(a, b)]
        np.testing.assert_allclose(vec, flat, rtol=1e-15)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -0.1)


@pytest.fixture(scope="module")
def marcum_grid():
    """Q1 and its oracle on alpha, beta in [0, 40], plus pairs far off
    the ridge where the value saturates in double precision."""
    pytest.importorskip("mpmath")
    grid = np.linspace(0.0, 40.0, 17)
    alpha, beta = (x.ravel() for x in np.meshgrid(grid, grid))
    base = np.repeat([0.0, 0.5, 1.0], 4)
    shifted = base + np.tile([38.0, 38.5, 39.0, 40.0], 3)
    alpha = np.concatenate([alpha, base, shifted])
    beta = np.concatenate([beta, shifted, base])
    exact = [marcum_q1_mpmath(a, b) for a, b in zip(alpha, beta)]
    ref = np.array([float(q) for q in exact])
    complement = np.array([float(1 - q) for q in exact])
    return alpha, beta, ref, complement


class TestMarcumQ1PrecisionContract:
    """The precision stated in the ``marcum_q1`` docstring."""

    def test_absolute_error(self, marcum_grid):
        alpha, beta, ref, _ = marcum_grid
        err = np.abs(marcum_q1(alpha, beta) - ref)
        assert err.max() <= 1e-14

    def test_relative_error_down_to_1e_20(self, marcum_grid):
        alpha, beta, ref, _ = marcum_grid
        q = marcum_q1(alpha, beta)
        kept = ref >= 1e-20
        assert kept.sum() > 200
        assert np.all(np.abs(q[kept] - ref[kept]) <= 2e-13 * ref[kept])

    def test_saturates_to_exact_zero_and_one(self, marcum_grid):
        alpha, beta, ref, complement = marcum_grid
        q = marcum_q1(alpha, beta)
        zero = ref == 0.0
        one = complement < 2.0**-55  # rounds to 1 with room to spare
        assert zero.sum() >= 5 and one.sum() >= 50
        assert np.all(q[zero] == 0.0)
        assert np.all(q[one] == 1.0)

    @pytest.mark.parametrize("a", [0.5, 2.0, 7.0, 15.0, 30.0, 40.0])
    def test_continuous_across_the_ridge(self, a):
        pytest.importorskip("mpmath")
        # one ulp either side switches formula; the step must stay
        # within the absolute error
        steps = np.array([np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)])
        q = marcum_q1(a, steps)
        assert np.abs(np.diff(q)).max() <= 1e-14
        for b in (a * (1.0 - 1e-6), a, a * (1.0 + 1e-6)):
            expected = float(marcum_q1_mpmath(a, b))
            assert abs(marcum_q1(a, b) - expected) <= 1e-14

    def test_huge_arguments_give_a_probability_or_raise(self):
        # scipy.special gives up far out on the ridge; that must surface
        # as ConvergenceError, never as nan
        for a, b in ((1e5, 1e5 + 3.0), (1e6, 1e6 - 3.0), (1e200, 1e200)):
            try:
                q = marcum_q1(a, b)
            except ConvergenceError:
                continue
            assert 0.0 <= q <= 1.0


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

class TestQuadratureSpec:
    def test_defaults_are_valid(self):
        spec = QuadratureSpec()
        assert spec.absolute_tolerance == 1e-9
        assert spec.max_subdivisions >= 16

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(absolute_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=-1e-9)

    def test_rejects_small_subdivision_budget(self):
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=8)

    def test_rejects_leaky_truncation_radius(self):
        # exp(-10) is far above the default absolute tolerance
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_radius=10.0)


class TestIntegrateFinite:
    def test_exponential(self):
        result = integrate_finite(np.exp, 0.0, 1.0)
        np.testing.assert_allclose(result, math.e - 1.0, rtol=1e-12)

    def test_degenerate_interval_is_zero(self):
        assert integrate_finite(np.exp, 2.0, 2.0) == 0.0

    def test_full_sine_period(self):
        result = integrate_finite(np.sin, 0.0, 2.0 * math.pi)
        np.testing.assert_allclose(result, 0.0, atol=1e-9)

    def test_serving_distance_density_mass(self):
        lam = 5e-5
        cut = math.sqrt(math.log(1e12) / (math.pi * lam))

        def density(rho):
            return (2.0 * math.pi * lam * rho
                    * np.exp(-math.pi * lam * rho**2))

        result = integrate_finite(density, 0.0, cut)
        np.testing.assert_allclose(result, 1.0 - 1e-12, rtol=1e-10)

    def test_random_polynomials_within_reported_error(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            coeffs = rng.uniform(-3.0, 3.0, size=rng.integers(1, 10))
            a = rng.uniform(-5.0, 2.0)
            b = a + rng.uniform(0.1, 6.0)
            poly = np.polynomial.Polynomial(coeffs)
            exact = poly.integ()(b) - poly.integ()(a)
            value, err = integrate_finite_with_error(poly, a, b)
            assert abs(value - exact) <= err + 1e-9

    def test_needle_spike_converges_with_budget(self):
        # narrow Gaussian off the panel midpoints; wide enough that the
        # first refinement level samples it, then adaptivity must resolve it
        center = 0.37301
        width = 1e-2

        def needle(x):
            return np.exp(-((x - center) / width) ** 2)

        exact = width * math.sqrt(math.pi)
        result = integrate_finite(needle, 0.0, 1.0)
        np.testing.assert_allclose(result, exact, rtol=1e-6)

    def test_convergence_error_carries_estimate(self):
        spec = QuadratureSpec(max_subdivisions=16)
        center = 0.37301

        def nasty(x):
            return 1.0 / (np.abs(x - center) + 1e-14)

        with pytest.raises(ConvergenceError) as excinfo:
            integrate_finite(nasty, 0.0, 1.0, spec)
        err = excinfo.value
        assert err.estimate is not None and np.isfinite(err.estimate)
        assert err.error_estimate > spec.absolute_tolerance

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(np.exp, 1.0, 0.0)


def _row_integrand(funcs, calls):
    """Batched integrand that evaluates funcs[k] on the nodes of row k."""

    def f(x, rows):
        calls.append(len(x))
        out = np.empty_like(x)
        for k in np.unique(rows):
            mask = rows == k
            out[mask] = funcs[k](x[mask])
        return out

    return f


def _counted(func, calls):
    def f(x):
        calls.append(len(x))
        return func(x)

    return f


def _spike(center, floor):
    return lambda x: 1.0 / (np.abs(x - center) + floor)


class TestIntegrateFiniteBatch:
    # mixed limits and shapes; the third row is degenerate
    FUNCS = (
        np.exp,
        np.sin,
        np.cos,
        lambda x: np.exp(-((x - 0.37301) / 1e-2) ** 2),
        lambda x: x**3 - 2.0 * x,
        _spike(0.25, 1e-3),
    )
    LOWS = np.array([0.0, -1.0, 2.0, 0.0, -5.0, 0.0])
    HIGHS = np.array([1.0, 6.0, 2.0, 1.0, 1.5, 1.0])

    def test_rows_equal_single_calls_exactly(self):
        calls = []
        values, errors = integrate_finite_with_error(
            _row_integrand(self.FUNCS, calls), self.LOWS, self.HIGHS
        )
        assert values.shape == errors.shape == (len(self.FUNCS),)
        rounds = []
        for k, func in enumerate(self.FUNCS):
            single = []
            value, err = integrate_finite_with_error(
                _counted(func, single), self.LOWS[k], self.HIGHS[k]
            )
            assert values[k] == value and errors[k] == err
            rounds.append(len(single))
        assert values[2] == 0.0 and errors[2] == 0.0
        # one integrand call per round: the slowest row sets the count
        assert len(calls) == max(rounds)
        # the first round of a row is three panels, each later one four
        assert calls[0] == 3 * 10 * (len(self.FUNCS) - 1)

    def test_scalar_call_is_the_one_row_batch(self):
        values, errors = integrate_finite_with_error(
            _row_integrand(self.FUNCS[3:4], []), [0.0], [1.0]
        )
        assert (values[0], errors[0]) == integrate_finite_with_error(
            self.FUNCS[3], 0.0, 1.0
        )
        assert integrate_finite(
            _row_integrand(self.FUNCS[:1], []), np.zeros(1), 1.0
        )[0] == integrate_finite(np.exp, 0.0, 1.0)

    def test_exhausted_row_raises_with_its_own_estimate(self):
        spec = QuadratureSpec(max_subdivisions=16)
        funcs = (np.exp, _spike(0.37301, 1e-14), np.cos,
                 _spike(0.61, 1e-14))
        with pytest.raises(ConvergenceError) as single:
            integrate_finite(funcs[1], 0.0, 1.0, spec)
        with pytest.raises(ConvergenceError) as batch:
            integrate_finite_with_error(
                _row_integrand(funcs, []), np.zeros(4), np.ones(4), spec
            )
        # rows 1 and 3 both fail; the lowest numbered one is reported
        assert "row 1" in str(batch.value)
        assert batch.value.estimate == single.value.estimate
        assert batch.value.error_estimate == single.value.error_estimate

    def test_empty_batch(self):
        values, errors = integrate_finite_with_error(
            _row_integrand((), []), np.zeros(0), np.zeros(0)
        )
        assert values.shape == errors.shape == (0,)

    def test_rejects_bad_limits(self):
        f = _row_integrand(self.FUNCS, [])
        with pytest.raises(ValueError, match="lower limit"):
            integrate_finite(f, np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            integrate_finite(f, np.array([0.0, np.nan]), 1.0)
        with pytest.raises(ValueError, match="1-D"):
            integrate_finite(f, np.zeros((2, 2)), 1.0)
