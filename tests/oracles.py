"""Independent oracles shared by the unit and acceptance suites.

Each oracle evaluates a different representation than the production
code (power series, direct quadrature, the exact interferer field), so
agreement is meaningful.
"""

import math

import numpy as np
from scipy import integrate

from fluidcell import bessel_i0e


def j0_series(x, terms=60):
    """Power series sum_k (-1)^k (x^2/4)^k / (k!)^2."""
    x = np.asarray(x, dtype=float)
    quarter = x * x / 4.0
    total = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(terms):
        total = total + term
        term = term * (-quarter) / ((k + 1.0) ** 2)
    return total


def i0_series(x, terms=60):
    x = np.asarray(x, dtype=float)
    quarter = x * x / 4.0
    total = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(terms):
        total = total + term
        term = term * quarter / ((k + 1.0) ** 2)
    return total


def erf_quadrature(x):
    """2/sqrt(pi) * integral of exp(-t^2) from 0 to x, one point at a time."""
    out = np.empty_like(np.asarray(x, dtype=float))
    flat = out.reshape(-1)
    for idx, value in enumerate(np.asarray(x, dtype=float).reshape(-1)):
        val, _ = integrate.quad(
            lambda t: math.exp(-t * t), 0.0, abs(value),
            epsabs=1e-14, epsrel=1e-13,
        )
        flat[idx] = math.copysign(2.0 / math.sqrt(math.pi) * val, value)
    return out


def sample_annulus(rng, bs_density, inner, outer):
    """Interferer distances (m) of one exact field snapshot in (inner, outer].

    The count is Poisson with the annulus intensity and the squared
    radius is uniform between the bounds; the caller picks ``outer``
    and so decides how much of the field's mean it leaves out.
    """
    if inner <= 0.0:
        raise ValueError("inner radius must be positive")
    if outer <= inner:
        raise ValueError("outer radius must exceed the inner one")
    area = math.pi * (outer**2 - inner**2)
    count = rng.poisson(bs_density * area)
    return np.sqrt(rng.uniform(inner**2, outer**2, size=count))


def marcum_quadrature(a, b):
    """Rician tail integral with the Bessel factor kept scaled."""
    def integrand(t):
        return t * math.exp(-0.5 * (t - a) ** 2) * float(bessel_i0e(a * t))

    val, _ = integrate.quad(integrand, b, np.inf,
                            epsabs=1e-13, epsrel=1e-12, limit=300)
    return val


def marcum_q1_mpmath(a, b, digits=40):
    """Q1(a, b) = P(Y <= X) for independent X ~ Poisson(a^2/2) and
    Y ~ Poisson(b^2/2), summed in ``digits``-digit arithmetic.

    Every term is nonnegative, so tiny tails keep their relative
    precision; the Poisson tail of X left after stopping is bounded
    geometrically by ``10**(5 - digits)`` times the sum.
    """
    import mpmath

    with mpmath.workdps(digits):
        lam = mpmath.mpf(a) ** 2 / 2
        y = mpmath.mpf(b) ** 2 / 2
        eps = mpmath.mpf(10) ** (5 - digits)
        px = mpmath.exp(-lam)       # P(X = j)
        py = mpmath.exp(-y)         # P(Y = j)
        cdf_y = py                  # P(Y <= j)
        total = px * cdf_y
        j = 0
        while True:
            j += 1
            px *= lam / j
            py *= y / j
            cdf_y += py
            total += px * cdf_y
            if j > lam and px * (j + 1) / (j + 1 - lam) <= eps * total:
                return total
