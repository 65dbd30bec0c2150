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
from fluidcell.channel import _NEGLIGIBLE_Q1_GAP
from oracles import (
    erf_quadrature,
    i0_series,
    integrate_finite_heap,
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


class TestMarcumQ1GapBound:
    """Q1(a, b) <= exp(-(b - a)^2 / 2) for b >= a, and the cut-off past
    which the joint port cdf skips Q1 because 1 - Q1 is exactly 1.0."""

    def test_bound_holds_against_the_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        # Q1(0, b) = exp(-b^2/2) meets the bound with equality, so the
        # 40-digit oracle gets a relative slack far below double precision
        for a in (0.0, 0.3, 2.0, 7.5, 20.0, 40.0):
            for gap in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 9.0, 10.0, 12.0):
                b = a + gap
                with mpmath.workdps(40):
                    bound = mpmath.exp(-mpmath.mpf(gap) ** 2 / 2)
                    exact = marcum_q1_mpmath(a, b)
                    assert exact <= bound * (1 + 1e-30)
                if gap > _NEGLIGIBLE_Q1_GAP:
                    assert exact < 2.0**-54

    def test_complement_is_exactly_one_past_the_cut_off(self):
        # the bound puts Q1 below exp(-40.5) ~ 2.6e-18 here; the computed
        # value must also stay under 2^-54, where 1.0 - q rounds to 1.0.
        # Most pairs sit at a <= 40, where the joint cdf evaluates Q1;
        # the rest spread to a = 2,000 (chndtr slows with a, about
        # 0.16 ms per value there).
        rng = np.random.default_rng(2024)
        cut = np.nextafter(_NEGLIGIBLE_Q1_GAP, np.inf)
        a = np.concatenate([
            rng.uniform(0.0, 40.0, 990_000),
            np.geomspace(40.0, 2000.0, 10_000),
        ])
        b = a + cut + rng.exponential(1.0, a.size)
        assert np.all(b - a > _NEGLIGIBLE_Q1_GAP)
        q = marcum_q1(a, b)
        assert q.max() < 2.0**-54
        assert np.all(1.0 - q == 1.0)


def _ulp_steps(x, count=2):
    """x and ``count`` neighbouring doubles on each side, ascending."""
    below = [x]
    above = [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


def _on_series_branch(a, b):
    """Where ``marcum_q1`` takes the erfc series: b >= a, ab >= 16 and
    (b - a)^2 <= ab, in the same double arithmetic."""
    ab = a * b
    return (b >= a) & (ab >= 16.0) & ((a - b) ** 2 <= ab)


class TestMarcumQ1LargeArgumentSeries:
    """The erfc series above the ridge, where ab >= 16 and
    (b - a)^2 <= ab."""

    def test_matches_the_oracle(self):
        pytest.importorskip("mpmath")
        count = 200
        ab = np.geomspace(16.0, 8000.0, count)
        # b - a runs from 0 to sqrt(ab) in a low-discrepancy order, so
        # both ends of the gap range meet every decade of ab
        share = np.mod(np.arange(count) * 0.6180339887498949, 1.0)
        share[:2] = (0.0, 1.0)
        gap = share * np.sqrt(ab)
        a = 0.5 * (np.sqrt(gap * gap + 4.0 * ab) - gap)
        b = a + gap
        inside = _on_series_branch(a, b)
        assert inside.sum() >= count - 2  # rounding may push an edge out
        # 25 digits leave the oracle ~1e-20 relative, far below the bound,
        # and keep its ~a^2/2 Poisson terms per point affordable
        ref = np.array([
            float(marcum_q1_mpmath(x, y, digits=25)) for x, y in zip(a, b)
        ])
        q = marcum_q1(a, b)
        assert np.abs(q - ref).max() <= 1e-15
        kept = ref >= 1e-20
        assert kept.sum() >= 100
        assert np.all(np.abs(q[kept] - ref[kept]) <= 5e-14 * ref[kept])

    @pytest.mark.parametrize("b", [4.5, 5.0, 5.5, 6.0])
    def test_continuous_at_the_product_edge(self, b):
        a = _ulp_steps(16.0 / b)
        inside = _on_series_branch(a, b)
        assert inside.any() and not inside.all()
        assert np.all(b >= a) and np.all((a - b) ** 2 <= a * b)
        assert np.abs(np.diff(marcum_q1(a, b))).max() <= 1e-14

    @pytest.mark.parametrize("gap", [4.5, 6.0, 10.0, 30.0, 80.0])
    def test_continuous_at_the_gap_edge(self, gap):
        # (b - a)^2 = ab at a = gap (sqrt(5) - 1)/2
        a = gap * 0.5 * (math.sqrt(5.0) - 1.0)
        b = _ulp_steps(a + gap)
        inside = _on_series_branch(a, b)
        assert inside.any() and not inside.all()
        assert np.all(a * b >= 16.0)
        assert np.abs(np.diff(marcum_q1(a, b))).max() <= 1e-14

    @pytest.mark.parametrize("a", [4.0, 10.0, 40.0, 100.0])
    def test_equal_arguments(self, a):
        expected = 0.5 * (1.0 + float(bessel_i0e(a * a)))
        assert abs(marcum_q1(a, a) - expected) <= 1e-15

    def test_far_out_on_the_ridge(self):
        # a Rician amplitude with a huge mean is nearly Gaussian with unit
        # variance: Q1(a, a + 3) tends to the normal tail at 3
        q = marcum_q1(1e5, 1e5 + 3.0)
        assert 0.0 <= q <= 1.0
        assert abs(q - 0.5 * math.erfc(3.0 / math.sqrt(2.0))) <= 1e-5
        with pytest.raises(ConvergenceError):
            marcum_q1(1e200, 1e200)


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


def _family(count, seed):
    """Limits and a batched integrand over ``count`` rows: smooth,
    peaked, kinked and spiked rows in turn, every fifth one (from row 4)
    degenerate."""
    rng = np.random.default_rng(seed)
    lows = rng.uniform(-2.0, 1.0, count)
    highs = lows + rng.uniform(0.1, 4.0, count)
    highs[4::5] = lows[4::5]
    centers = rng.uniform(lows, highs)
    scales = rng.uniform(1e-3, 3e-2, count)
    kinds = np.arange(count) % 4

    def f(x, rows):
        c = centers[rows]
        s = scales[rows]
        return np.select(
            [kinds[rows] == 0, kinds[rows] == 1, kinds[rows] == 2],
            [np.exp(np.sin(3.0 * x) + c),
             np.exp(-((x - c) / s) ** 2),
             np.abs(x - c) + 0.5 * x],
            1.0 / (np.abs(x - c) + s),
        )

    return lows, highs, f


class TestArrayBookkeeping:
    """The array store against the heap-per-row code it replaced
    (``oracles.integrate_finite_heap``), both on the package's panel
    sums: every row must match bit for bit."""

    @pytest.mark.parametrize("count", [1, 16, 300])
    def test_rows_equal_the_heap_per_row_code(self, count):
        lows, highs, f = _family(count, seed=count)
        values, errors = integrate_finite_with_error(f, lows, highs)
        heap_values, heap_errors = integrate_finite_heap(f, lows, highs)
        assert values.tolist() == heap_values.tolist()
        assert errors.tolist() == heap_errors.tolist()
        assert values[4::5].tolist() == [0.0] * len(values[4::5])

    @pytest.mark.parametrize("func", [
        np.exp,
        lambda x: np.exp(-((x - 0.37301) / 1e-2) ** 2),
        lambda x: np.abs(x - 0.3) + np.abs(x - 0.71),
        _spike(0.25, 1e-3),
        # mirrored about 0, so the two sides' intervals tie at every
        # level and only the push order picks which one pops first
        lambda x: np.where(np.abs(x) < 0.3, 0.7, 0.1),
    ], ids=["smooth", "peaked", "kinked", "spiked", "tied"])
    def test_scalar_form_equals_the_heap_per_row_code(self, func):
        got = integrate_finite_with_error(func, -1.0, 1.0)
        want = integrate_finite_heap(func, -1.0, 1.0)
        assert type(got[0]) is float and type(got[1]) is float
        assert got == want
        assert integrate_finite_with_error(func, 0.5, 0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("batched", [False, True])
    def test_exhausted_budget_reports_what_the_heap_code_reports(
        self, batched
    ):
        spec = QuadratureSpec(max_subdivisions=16)
        lows, highs, f = _family(16, seed=3)
        if not batched:
            scalar_f = f
            lows, highs = lows[3], highs[3]

            def f(x):
                return scalar_f(x, np.full(x.shape, 3))

        with pytest.raises(ConvergenceError) as got:
            integrate_finite_with_error(f, lows, highs, spec)
        with pytest.raises(ConvergenceError) as want:
            integrate_finite_heap(f, lows, highs, spec)
        assert str(got.value) == str(want.value)
        assert ("row 3 " in str(got.value)) == batched
        assert got.value.estimate == want.value.estimate
        assert got.value.error_estimate == want.value.error_estimate
