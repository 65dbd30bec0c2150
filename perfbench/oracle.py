"""Independent evaluation of the common-gamma network outage.

Built from the model description with scipy only (see ``model.py``):

- given serving distance rho and a shared interference level gamma,
  the first trained port's estimated power over its spread variance
  is unit exponential; the other ports are then independent Rician
  amplitudes, and ``1 - Q1(alpha, beta) = chndtr(beta^2, 2, alpha^2)``;
- gamma follows the Gamma surrogate that matches the Campbell mean and
  the variance ``2 sigma^4``, averaged through its quantile function;
- rho follows the nearest-transmitter law, integrated in
  ``w = pi lambda rho^2``, which is unit exponential;
- the single-antenna average is raised to the antenna count.

Each level is a ``scipy.integrate.quad`` call; none of the package's
special functions or quadrature is used.
"""

import math

import numpy as np
from scipy import integrate, special

from model import Link

EPSABS = 1e-10
EPSREL = 1e-8
# the conditional integrand carries exp(-t); past t = 60 the discarded
# mass is below 1e-26
T_CAP = 60.0


def _quad(f, lo, hi):
    value, _ = integrate.quad(f, lo, hi, epsabs=EPSABS, epsrel=EPSREL,
                              limit=200)
    return value


def conditional(link, rho, gamma):
    """P(every trained port of one antenna misses the SINR threshold)."""
    r = np.hypot(rho, link.offsets)
    err = link.error_variance(r)
    a = link.a
    # estimated power below theta <=> SINR below the threshold
    theta = link.threshold * (r**a * gamma + err + r**a / link.snr)
    spread = link.variance * (1.0 - link.mu**2) + err
    nc_per_t = 2.0 * link.mu[1:] ** 2 * spread[0] / spread[1:]
    x = 2.0 * theta[1:] / spread[1:]

    def integrand(t):
        return math.exp(-t) * float(np.prod(special.chndtr(x, 2.0,
                                                           nc_per_t * t)))

    return _quad(integrand, 0.0, min(theta[0] / spread[0], T_CAP))


def interference_averaged(link, rho):
    mean = link.campbell_mean(rho)
    var = 2.0 * link.variance**2
    shape = mean * mean / var
    scale = var / mean

    def integrand(v):
        q = special.gammaincinv(shape, v)
        return conditional(link, rho, scale * q if math.isfinite(q) else 0.0)

    return _quad(integrand, 0.0, 1.0)


def network_outage(values):
    """Common-gamma network outage for a parameter dict (see model)."""
    link = Link(values)

    def integrand(w):
        rho = math.sqrt(w / (math.pi * link.density))
        return math.exp(-w) * interference_averaged(link, rho)

    single = _quad(integrand, 0.0, np.inf)
    return min(1.0, single) ** link.num_fas
