"""Special functions and adaptive quadrature backing the analytic outage path.

Every closed-form expression in this package funnels through the functions
here. The special functions are compiled ``scipy.special`` ufuncs; the
Marcum Q function is the survival function of a noncentral chi-square
with two degrees of freedom (``chndtr``), taken on the small side of the
ridge beta = alpha and carried across it by the symmetry
Q1(a, b) + Q1(b, a) = 1 + exp(-(a^2 + b^2)/2) I0(ab). Nothing uses lookup
tables or result caching, and semi-infinite integrals are truncated only
where a closed-form envelope bounds the tail. All functions are pure and
safe to call from any number of workers.

The adaptive quadrature also integrates a batch: given 1-D arrays of
limits it runs one independent copy of the scalar algorithm per row in
lockstep, and each refinement round makes a single integrand call for
all unfinished rows. Every row keeps its own tolerance, subdivision
budget and panel order, so it returns the scalar call's value and
error estimate bit for bit; a row that exhausts its budget raises
:class:`ConvergenceError` with its own estimate once the batch ends
(the lowest numbered such row). The outage path nests three of these
batches (serving distance, interference, port magnitudes), which turns
thousands of small Marcum Q calls into one per round.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sf

__all__ = [
    "QuadratureSpec",
    "ConvergenceError",
    "bessel_j0",
    "bessel_i0",
    "bessel_i0e",
    "erf",
    "marcum_q1",
    "integrate_finite",
    "integrate_finite_with_error",
]


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach tolerance; carries the best estimate."""

    def __init__(self, message, estimate, error_estimate):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive quadrature routines.

    ``truncation_radius`` caps substituted integration variables whose
    integrand carries an exp(-t) envelope; the discarded tail is then at
    most exp(-truncation_radius), which must sit below the absolute
    tolerance (doubling the radius must not change any result by more
    than the tolerance).
    """

    absolute_tolerance: float = 1e-9
    relative_tolerance: float = 1e-7
    max_subdivisions: int = 4096
    truncation_radius: float = 38.0

    def __post_init__(self):
        if not (self.absolute_tolerance > 0.0 and self.relative_tolerance > 0.0):
            raise ValueError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 16:
            raise ValueError("max_subdivisions must be at least 16")
        if math.exp(-self.truncation_radius) > self.absolute_tolerance:
            raise ValueError(
                "truncation_radius too small: exp(-radius) exceeds the "
                "absolute tolerance"
            )


def _as_finite_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _scalar_or_array(result, x):
    if np.ndim(x) == 0:
        return float(result)
    return result


def bessel_j0(x):
    """Bessel function of the first kind, order zero. Accepts arrays."""
    arr = _as_finite_array(x, "bessel_j0 argument")
    return _scalar_or_array(_sf.j0(arr), x)


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero.

    Overflows near |x| ~ 713; callers with large arguments must use
    :func:`bessel_i0e` and reinstate the exponential factor analytically.
    """
    arr = _as_finite_array(x, "bessel_i0 argument")
    return _scalar_or_array(_sf.i0(arr), x)


def bessel_i0e(x):
    """Exponentially scaled modified Bessel function: exp(-|x|) I0(x)."""
    arr = _as_finite_array(x, "bessel_i0e argument")
    return _scalar_or_array(_sf.i0e(arr), x)


def erf(x):
    """Error function. Accepts arrays."""
    arr = _as_finite_array(x, "erf argument")
    return _scalar_or_array(_sf.erf(arr), x)


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

def marcum_q1(alpha, beta):
    """First-order Marcum Q function Q1(alpha, beta).

    Tail probability of a Rician amplitude with noncentrality ``alpha``
    and unit per-component variance, evaluated at ``beta``: the survival
    function of a noncentral chi-square with two degrees of freedom and
    noncentrality alpha^2, at beta^2. Below the ridge (beta <= alpha)
    Q1 = 1 - chndtr(beta^2, 2, alpha^2). Above it the symmetry
    Q1(a, b) + Q1(b, a) = 1 + exp(-(a^2 + b^2)/2) I0(ab) gives
    Q1 = chndtr(alpha^2, 2, beta^2) + exp(-(alpha - beta)^2/2) ive(0, ab),
    two nonnegative terms, so the small tail keeps its digits. Either
    way the cdf is taken at the smaller square with the larger as the
    noncentrality, the side of the ridge where it is at most about 1/2.
    Once exp(-(alpha - beta)^2/2) underflows the value is exactly 0 or 1.

    Precision, against a 40-digit oracle for alpha, beta <= 40: absolute
    error below 1e-14 everywhere, and relative error below 2e-13
    wherever Q1 >= 1e-20. Below about 1e-40 the relative error grows to
    tens of percent. Callers that need 1 - Q1 (the joint cdf of the port
    magnitudes) depend only on the absolute error.

    Accepts scalars or broadcastable arrays; returns values in [0, 1].
    Raises :class:`ConvergenceError` where ``chndtr`` or ``ive`` returns
    no value: above the ridge once alpha * beta passes about 1e9, below
    it once the arguments pass about 3e5.
    """
    a = _as_finite_array(alpha, "marcum_q1 alpha")
    b = _as_finite_array(beta, "marcum_q1 beta")
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("marcum_q1 arguments must be nonnegative")
    a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    # flat views keep the masked branch one-dimensional; 0-d inputs
    # would otherwise grow a spurious axis under boolean indexing
    a = a.reshape(-1)
    b = b.reshape(-1)
    out = (b <= a).astype(float)  # the value once the gap underflows
    with np.errstate(under="ignore", over="ignore"):
        gap = np.exp(-0.5 * (a - b) ** 2)
        live = gap > 0.0
        al = a[live]
        bl = b[live]
        lo = np.minimum(al, bl)
        hi = np.maximum(al, bl)
        cdf = _sf.chndtr(lo * lo, 2.0, hi * hi)
        tail = cdf + gap[live] * _sf.ive(0, al * bl)
    values = np.where(bl > al, tail, 1.0 - cdf)
    if np.any(np.isnan(values)):
        raise ConvergenceError(
            "Marcum Q: scipy.special gave no value at these arguments",
            estimate=None,
            error_estimate=None,
        )
    out[live] = values
    out = np.clip(out, 0.0, 1.0).reshape(shape)
    return _scalar_or_array(out, alpha if np.ndim(alpha) else beta)


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_EPS = float(np.finfo(float).eps)


def _gl_panels(f, rows, lo, hi):
    """Ten-point Gauss-Legendre sums over panels [lo, hi] of the given rows.

    One call of ``f`` covers every panel. Each sum is one ``np.dot`` of
    ten values, the rounding a lone panel gets, so a panel's sum does
    not depend on which others share the call.
    """
    lo = np.ravel(lo)
    hi = np.ravel(hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    values = np.asarray(
        f(nodes.reshape(-1), np.repeat(rows, _GL_NODES.size)), dtype=float
    )
    if values.shape != (nodes.size,):
        raise ValueError("integrand must return one value per node")
    dots = map(_GL_WEIGHTS.dot, values.reshape(nodes.shape))
    return (half * np.fromiter(dots, float, count=len(half))).tolist()


def integrate_finite_with_error(f, a, b, spec=None):
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
    if spec is None:
        spec = QuadratureSpec()
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
        sums = _gl_panels(f, live * 3, los + los + mids, his + mids + his)
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
        sums = _gl_panels(f, np.repeat(live, 4), edges[:, :4], edges[:, 1:])
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


def integrate_finite(f, a, b, spec=None):
    """Integral of ``f`` over [a, b] to the tolerances in ``spec``.

    Accepts the batched form of :func:`integrate_finite_with_error`.
    """
    value, _ = integrate_finite_with_error(f, a, b, spec)
    return value
