"""Independent oracles shared by the unit and acceptance suites.

Each oracle evaluates a different representation than the production
code (power series, direct quadrature, the exact interferer field, a
heap per row for the lockstep quadrature's bookkeeping, true channels
drawn before their estimates, the Poisson field's generating functional
in closed form), so agreement is meaningful.
"""

import heapq
import math

import numpy as np
from scipy import integrate
from scipy.special import hyp2f1

from fluidcell import ConvergenceError, QuadratureSpec, bessel_i0e
from fluidcell.channel import error_variance_at, sample_correlated_channels
from fluidcell.geometry import trained_port_indices
from fluidcell.mc import _count_outages, _lmmse_coefficient, _sample_field
from fluidcell.numerics import _EPS, _gl_panels


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


def _panel_sums(f, rows, lo, hi):
    """The package's panel sums as a list of floats, as the heap code
    below was written against."""
    return _gl_panels(f, rows, np.asarray(lo, dtype=float),
                      np.asarray(hi, dtype=float)).tolist()


# The lockstep quadrature as it was written with one heap per row, kept
# as the reference for the array bookkeeping that replaced it. It shares
# the package's panel sums, so the two differ in their bookkeeping only.
def integrate_finite_heap(f, a, b, spec=QuadratureSpec()):
    """Adaptive Gauss-Legendre integration of ``f`` over [a, b].

    ``f`` must accept a one-dimensional ndarray of nodes and return the
    integrand values elementwise. Returns ``(value, error_estimate)``
    where the estimate comes from interval halving and is accumulated
    conservatively (roundoff floors included).

    Batches: 1-D arrays of limits (broadcast against each other)
    integrate B independent rows in lockstep and return two length-B
    arrays. ``f`` is then called as ``f(x, rows)``, where ``rows[k]`` is
    the row that node ``x[k]`` belongs to. Each row runs the scalar
    algorithm: the same panels, pop order and error accounting, its own
    tolerance (relative to its own value) and its own
    ``max_subdivisions`` budget, so row k returns what a scalar call on
    ``a[k], b[k]`` returns, bit for bit. Each round gathers the new
    panels of every unfinished row into one call of ``f``: the whole
    interval and both halves first, then the four quarter panels of
    each row's worst interval. A row with ``a == b`` gives 0 and is
    never evaluated. A scalar call runs as the one-row batch.

    Raises :class:`ConvergenceError` carrying the best estimate when a
    row's subdivision budget runs out before its tolerance is met. The
    other rows still run to the end; the error reports the lowest
    numbered row that failed, with that row's estimate and error.
    """
    batched = np.ndim(a) > 0 or np.ndim(b) > 0
    lows, highs = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    if lows.ndim > 1:
        raise ValueError("integration limits must be scalars or 1-D arrays")
    if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
        raise ValueError("integration limits must be finite")
    if np.any(lows > highs):
        raise ValueError("lower limit exceeds upper limit")
    if not batched:
        scalar_f = f

        def f(x, rows):
            return scalar_f(x)

    lows = lows.reshape(-1).tolist()
    highs = highs.reshape(-1).tolist()
    count = len(lows)
    values = [0.0] * count
    errors = [0.0] * count
    # per row, heap entries: (-err, tiebreak, lo, hi, left, right, fine)
    heaps = [[] for _ in range(count)]
    counters = [0] * count
    subdivisions = [1] * count
    failed = []

    def push(k, lo, hi, coarse, left, right):
        fine = left + right
        err = abs(coarse - fine) + 4.0 * _EPS * (abs(left) + abs(right))
        entry = (-err, counters[k], lo, hi, left, right, fine)
        heapq.heappush(heaps[k], entry)
        counters[k] += 1
        return fine, err

    live = [k for k in range(count) if lows[k] < highs[k]]
    los = [lows[k] for k in live]
    his = [highs[k] for k in live]
    mids = [0.5 * (lo + hi) for lo, hi in zip(los, his)]
    if live:
        sums = _panel_sums(f, live * 3, los + los + mids, his + mids + his)
        n = len(live)
        for i, k in enumerate(live):
            values[k], errors[k] = push(
                k, los[i], his[i], sums[i], sums[n + i], sums[2 * n + i]
            )

    while live:
        popped = []
        for k in live:
            tol = max(spec.absolute_tolerance,
                      spec.relative_tolerance * abs(values[k]))
            if errors[k] <= tol:
                continue
            if subdivisions[k] >= spec.max_subdivisions:
                failed.append(k)
                continue
            neg_err, _, lo, hi, left, right, fine = heapq.heappop(heaps[k])
            errors[k] += neg_err  # remove this interval's contribution
            values[k] -= fine
            popped.append((k, lo, 0.5 * (lo + hi), hi, left, right))
        live = [k for k, *_ in popped]
        if not live:
            break
        edges = np.array([
            (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
            for _, lo, mid, hi, _, _ in popped
        ])
        sums = _panel_sums(f, np.repeat(live, 4), edges[:, :4], edges[:, 1:])
        for i, (k, lo, mid, hi, left, right) in enumerate(popped):
            for sub_lo, sub_hi, coarse, quarter in (
                    (lo, mid, left, 4 * i), (mid, hi, right, 4 * i + 2)):
                fine, err = push(k, sub_lo, sub_hi, coarse,
                                 sums[quarter], sums[quarter + 1])
                values[k] += fine
                errors[k] += err
            subdivisions[k] += 2

    if failed:
        k = min(failed)
        row = f"row {k} " if batched else ""
        raise ConvergenceError(
            f"quadrature {row}did not converge within "
            f"{spec.max_subdivisions} subdivisions "
            f"(estimate {values[k]!r}, error {errors[k]!r})",
            estimate=values[k],
            error_estimate=errors[k],
        )
    if batched:
        return np.array(values), np.array(errors)
    return values[0], errors[0]


# The Monte Carlo chunk's estimate law as it was written before the
# chunk drew the estimates from their joint law, kept as the reference
# for that law: it draws the true channels, then the estimation noise
# (or the pilot observation) on top of them, with the LMMSE coefficient
# worked out from the pilot amplitude. The field and the port selection
# are mc's own stages.
def simulate_chunk_from_channels(rng, n, cfg, net, budget, target, plan):
    """The Monte Carlo chunk as it drew correlated channels first and
    then estimated them: ``mc._simulate_chunk``'s law through the
    channel draw, the orthogonal split and the explicit pilot
    observation. Returns the outage count."""
    r_ports, faded_sums = _sample_field(rng, n, cfg, net)
    a = net.path_loss_exponent
    m = cfg.num_fas
    ports = trained_port_indices(cfg)
    j = len(ports)

    # correlated true channels at the trained ports
    g = sample_correlated_channels(rng, cfg, n, ports)
    scale = math.sqrt(0.5)

    err = error_variance_at(r_ports, budget.pilot_length, net)  # (n, j)
    if plan.faithful_pilots:
        # pilot observation per port: correlating against the unit-norm
        # pilot collapses the interferers to one complex Gaussian whose
        # power is the realized faded interference (not pilot-scaled)
        pilot_inter = np.empty((n, m, j))
        for k in range(m):
            for q in range(j):
                pilot_inter[:, k, q] = faded_sums()
        amp = np.sqrt(budget.pilot_length * net.tx_power / r_ports**a)
        coeff = _lmmse_coefficient(err, amp)
        noise_var = net.noise_floor + net.tx_power * pilot_inter
        zre = rng.normal(0.0, scale, (n, m, j))
        zim = rng.normal(0.0, scale, (n, m, j))
        y = amp[:, None, :] * g + np.sqrt(noise_var) * (zre + 1j * zim)
        g_hat = coeff[:, None, :] * y
    else:
        # orthogonal split: the estimate and the error are uncorrelated,
        # with the estimate carrying variance 1 - sigma_e^2
        c = 1.0 - err
        xre = rng.normal(0.0, scale, (n, m, j))
        xim = rng.normal(0.0, scale, (n, m, j))
        g_hat = c[:, None, :] * g + np.sqrt(c * err)[:, None, :] * (
            xre + 1j * xim
        )

    return _count_outages(np.abs(g_hat) ** 2, r_ports, err, faded_sums,
                          net, target)


def single_port_outage(cfg, net, budget, target, nodes):
    """Exact network outage with one trained port per antenna.

    The estimate power is Exp(1 - err) with err the LMMSE error variance
    at the serving distance rho, so antenna k misses the threshold T
    when that power falls below s (I_k + c), with s = T rho^a / (1 - err)
    and c = err / rho^a + 1/SNR. The antennas share the interferer
    positions beyond rho and draw their own Rayleigh fades, as
    ``mc`` does. The binomial expansion of (1 - e^(-s(I + c)))^M and the
    Poisson field's generating functional give, with delta = 2/a,

        P(rho) = sum_n C(M, n) (-1)^n e^(-n s c)
                 exp(-pi lambda rho^2 [2F1(n, -delta; 1 - delta;
                                            -s rho^(-a)) - 1]),

    averaged over rho through u = exp(-pi lambda rho^2), uniform on
    (0, 1), on ``nodes`` Gauss-Legendre nodes. The rule is the only
    approximation.
    """
    if len(trained_port_indices(cfg)) != 1:
        raise ValueError("the exact outage needs one trained port per antenna")
    a = net.path_loss_exponent
    delta = 2.0 / a
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1.0)
    area = -np.log(u)  # pi lambda rho^2
    rho = np.sqrt(area / (math.pi * net.bs_density))
    err = error_variance_at(rho, budget.pilot_length, net)
    # s rho^(-a) and s c, written so that neither divides by rho^a
    s_ratio = target.threshold / (1.0 - err)
    s_c = s_ratio * (err + rho**a / net.transmit_snr)
    m = cfg.num_fas
    total = np.zeros(nodes)
    for n in range(m + 1):
        field = hyp2f1(n, -delta, 1.0 - delta, -s_ratio) - 1.0
        total += math.comb(m, n) * (-1) ** n * np.exp(-n * s_c - area * field)
    return float(0.5 * np.dot(w, total))
