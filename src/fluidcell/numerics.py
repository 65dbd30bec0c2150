"""Special functions and adaptive quadrature backing the analytic outage path.

The analytic path's quadrature and its Bessel and Marcum Q functions live
here; the other modules also call numpy and scipy directly. The
special functions are compiled ``scipy.special`` ufuncs; the
Marcum Q function is the survival function of a noncentral chi-square
with two degrees of freedom (``chndtr``), taken on the small side of the
ridge beta = alpha and carried across it by the symmetry
Q1(a, b) + Q1(b, a) = 1 + exp(-(a^2 + b^2)/2) I0(ab), except above the
ridge at large ab, where a 24-term series on ``erfc`` and ``i0e`` is
cheaper and more accurate than ``chndtr``. Nothing uses lookup
tables or result caching, and semi-infinite integrals are truncated only
where a closed-form envelope bounds the tail. All functions are pure and
safe to call from any number of workers.

The adaptive quadrature also integrates a batch: given 1-D arrays of
limits it runs one independent copy of the scalar algorithm per row in
lockstep, and each refinement round makes a single integrand call for
all unfinished rows. The intervals of all rows sit in one array, so a
round's bookkeeping is a few array operations whatever the row count,
and every ten-node panel sum adds its terms in node order. Every row
keeps its own tolerance, subdivision budget and panel order, so it
returns the scalar call's value and error estimate bit for bit; a row
that exhausts its budget raises :class:`ConvergenceError` with its own
estimate once the batch ends (the lowest numbered such row). The
outage path nests three of these batches (serving distance,
interference, port magnitudes), which turns thousands of small Marcum
Q calls into one per round.
"""

from __future__ import annotations

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

_SERIES_MIN_AB = 16.0  # see _q1_large_arguments for the drift below it
_SERIES_TERMS = 24


def marcum_q1(alpha, beta):
    """First-order Marcum Q function Q1(alpha, beta).

    Tail probability of a Rician amplitude with noncentrality ``alpha``
    and unit per-component variance, evaluated at ``beta``: the survival
    function of a noncentral chi-square with two degrees of freedom and
    noncentrality alpha^2, at beta^2. Three branches:

    - Below the ridge (beta <= alpha), Q1 = 1 - chndtr(beta^2, 2, alpha^2).
    - Above it, the symmetry Q1(a, b) + Q1(b, a) = 1 + exp(-(a^2 + b^2)/2)
      I0(ab) gives Q1 = chndtr(alpha^2, 2, beta^2)
      + exp(-(alpha - beta)^2/2) i0e(ab), two nonnegative terms, so the
      small tail keeps its digits. Either way the cdf is taken at the
      smaller square with the larger as the noncentrality, the side of
      the ridge where it is at most about 1/2.
    - Where beta >= alpha, alpha * beta >= 16 and
      (beta - alpha)^2 <= alpha * beta, a closed form replaces ``chndtr``,
      whose cost grows with beta: an ``erfc`` term plus a 24-term series
      in 1/(2 alpha beta) (see ``_q1_large_arguments``).

    Once exp(-(alpha - beta)^2/2) underflows the value is exactly 0 or 1.

    Precision, against a 40-digit oracle for alpha, beta <= 40: absolute
    error below 1e-14 everywhere, and relative error below 2e-13
    wherever Q1 >= 1e-20. Below about 1e-40 the relative error grows to
    tens of percent. On the series branch, over 16 <= alpha * beta <=
    8000, the absolute error stays below 2e-16 and the relative error
    below 2e-14. Callers that need 1 - Q1 (the joint cdf of the port
    magnitudes) depend only on the absolute error.

    Accepts scalars or broadcastable arrays; returns values in [0, 1].
    Above the ridge every finite alpha * beta gives a value (the series
    covers the far ridge, e.g. (1e5, 1e5 + 3)). Raises
    :class:`ConvergenceError` where scipy returns no value: below the
    ridge once the arguments pass about 3e5, and where alpha * beta
    overflows, e.g. (1e200, 1e200).
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
        sq_gap = (a - b) ** 2
        gap = np.exp(-0.5 * sq_gap)
        live = gap > 0.0
        # the series branch is picked from the indices with ab >= 16
        # only, so arrays where few reach it (about 2% at the desk
        # density cliff) pay little for the split
        ab = a * b
        big = np.flatnonzero((ab >= _SERIES_MIN_AB) & (ab < np.inf))
        big = big[live[big] & (b[big] >= a[big])
                  & (sq_gap[big] <= ab[big])]
        out[big] = _q1_large_arguments(a[big], b[big])
        live[big] = False
        al = a[live]
        bl = b[live]
        lo = np.minimum(al, bl)
        hi = np.maximum(al, bl)
        cdf = _sf.chndtr(lo * lo, 2.0, hi * hi)
        tail = cdf + gap[live] * _sf.i0e(al * bl)
    out[live] = np.where(bl > al, tail, 1.0 - cdf)
    if np.any(np.isnan(out)):
        raise ConvergenceError(
            "Marcum Q: scipy.special gave no value at these arguments",
            estimate=None,
            error_estimate=None,
        )
    out = np.clip(out, 0.0, 1.0).reshape(shape)
    return _scalar_or_array(out, alpha if np.ndim(alpha) else beta)


def _q1_large_arguments(a, b):
    """Q1(a, b) for b >= a, ab >= 16 and (b - a)^2 <= ab, from erfc.

    With xi = ab, zeta = a/b, u = (b - a)^2/2 and p = 2 xi, the
    trigonometric integral of Q1 (Simon & Alouini, Digital Communication
    over Fading Channels, 2nd ed., 2005, sec. 4.2) is exactly

        Q1 = e^-u [ i0e(xi)/2 + (1 - zeta^2)/(8 pi zeta) sqrt(p)
                    * int_{-sqrt p}^{sqrt p} e^{-s^2} ds
                      / ((s^2 + u) sqrt(1 - s^2/p)) ].

    Split 1/sqrt(1 - s^2/p) = 1/sqrt(1 + u/p) + [h(s^2) - h(-u)] with
    h(w) = (1 - w/p)^(-1/2) - 1. The constant piece integrates to the
    erfc term; the bracket is regular at s^2 = -u, and its Taylor terms
    in s^2/p integrate over the real line to sum_k c_k R_k, with
    c_k = C(2k, k)/4^k, R_k = p^-k T_k and
    T_{k+1} = Gamma(k + 1/2) - u T_k, T_1 = sqrt(pi). Integrating those
    terms over the whole line instead of +-sqrt(p) makes the sum
    asymptotic: 24 terms stay within ~1e-16 absolute from ab = 16 up,
    but drift to ~2e-14 at ab = 12 and ~2e-9 at ab = 8. Large arguments
    are where erfc forms are cheap and accurate (Gil, Segura & Temme,
    ACM TOMS 40(3), 2014).
    """
    xi = a * b
    zeta = a / b
    u = 0.5 * (b - a) ** 2
    p = 2.0 * xi
    decay = np.exp(-u)
    total = np.zeros_like(xi)
    c = 0.5
    r = math.sqrt(math.pi) / p          # R_1
    g = 0.5 * r                         # Gamma(k + 1/2) / p^k at k = 1
    for k in range(1, _SERIES_TERMS + 1):
        total += c * r
        r = (g - u * r) / p
        g = g * ((k + 0.5) / p)
        c *= (2 * k + 1) / (2 * k + 2)
    split = (1.0 + zeta) / (4.0 * np.sqrt(zeta)) * _sf.erfc(np.sqrt(u))
    regular = (b - a) * (b + a) / (b * b) / (8.0 * math.pi * zeta)
    return (0.5 * decay * _sf.i0e(xi) + split / np.sqrt(1.0 + u / p)
            + regular * np.sqrt(p) * decay * total)


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_EPS = float(np.finfo(float).eps)


def _gl_panels(f, rows, lo, hi):
    """Ten-point Gauss-Legendre sums over panels [lo, hi] of the given rows.

    One call of ``f`` covers every panel, node by node: the first node
    of every panel, then the second, and so on. Each sum adds its ten
    weighted values one after another in node order, the same float
    operations whatever the panel count, so a panel's sum does not
    depend on which others share the call.
    """
    lo = lo.reshape(-1)
    hi = hi.reshape(-1)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = _GL_NODES[:, None] * half + mid
    values = np.asarray(
        f(nodes.reshape(-1), np.tile(rows, _GL_NODES.size)), dtype=float
    )
    if values.shape != (nodes.size,):
        raise ValueError("integrand must return one value per node")
    weighted = values.reshape(nodes.shape) * _GL_WEIGHTS[:, None]
    total = weighted[0] + weighted[1]
    for term in weighted[2:]:
        total += term
    return half * total


def _halving(coarse, left, right):
    """Refined sum and error estimate of intervals split into two halves."""
    fine = left + right
    return fine, (np.abs(coarse - fine)
                  + 4.0 * _EPS * (np.abs(left) + np.abs(right)))


def integrate_finite_with_error(f, a, b, spec=QuadratureSpec()):
    """Adaptive Gauss-Legendre integration of ``f`` over [a, b].

    ``f`` must accept a one-dimensional ndarray of nodes and return the
    integrand values elementwise. Returns ``(value, error_estimate)``
    where the estimate comes from interval halving and is accumulated
    conservatively (roundoff floors included).

    Each round pops the interval with the largest error estimate, ties
    going to the one pushed first, subtracts its sum and error from the
    totals, and adds those of its two halves, left then right. The
    integral stops once its error is within max(absolute tolerance,
    relative tolerance * |value|).

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

    Every unfinished row has been split once per round, so all of them
    hold the same number of intervals. Those live in one array with an
    axis for the interval fields, one for the unfinished rows and one
    for each row's intervals in push order: a popped interval is
    removed and its halves are appended, so the first maximum of the
    error estimates is the interval to pop. Rows that finish leave the
    array.

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
    if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
        raise ValueError("integration limits must be finite")
    if (lows > highs).any():
        raise ValueError("lower limit exceeds upper limit")
    if not batched:
        scalar_f = f

        def f(x, rows):
            return scalar_f(x)

    lows = lows.reshape(-1)
    highs = highs.reshape(-1)
    values = np.zeros(lows.size)
    errors = np.zeros(lows.size)
    failed = []

    live = np.flatnonzero(lows < highs)
    if live.size:
        lo = lows[live]
        hi = highs[live]
        mid = 0.5 * (lo + hi)
        coarse, left, right = _gl_panels(
            f, np.concatenate((live, live, live)),
            np.concatenate((lo, lo, mid)), np.concatenate((hi, mid, hi)),
        ).reshape(3, -1)
        value, error = _halving(coarse, left, right)
        # store[field, i, j]: field of the j-th interval of row live[i]
        store = np.array((lo, hi, left, right, value, error))[:, :, None]
    subdivisions = 1

    # value and error hold the sums of the live rows; a row's entries
    # go to values and errors when it leaves
    while live.size:
        tol = np.fmax(spec.absolute_tolerance,
                      spec.relative_tolerance * np.abs(value))
        done = error <= tol
        if subdivisions >= spec.max_subdivisions:
            values[live] = value
            errors[live] = error
            failed = live[~done]
            break
        if done.any():
            values[live[done]] = value[done]
            errors[live[done]] = error[done]
            keep = ~done
            live = live[keep]
            value = value[keep]
            error = error[keep]
            store = store[:, keep]
            if not live.size:
                break
        count, width = store.shape[1:]
        popped = np.zeros((count, width), dtype=bool)
        # the first largest error estimate: ties go to the earliest pushed
        popped[np.arange(count), np.argmax(store[5], axis=1)] = True
        lo, hi, left, right, fine, err = store[:, popped]
        store = store[:, ~popped].reshape(6, count, width - 1)
        error -= err  # remove this interval's contribution
        value -= fine

        mid = 0.5 * (lo + hi)
        edges = np.array((lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)).T
        quarters = _gl_panels(f, np.repeat(live, 4), edges[:, :4],
                              edges[:, 1:]).reshape(count, 4)
        firsts = quarters[:, 0::2]
        seconds = quarters[:, 1::2]
        fine, err = _halving(np.array((left, right)).T, firsts, seconds)
        for side in (0, 1):
            value += fine[:, side]
            error += err[:, side]
        children = np.array((edges[:, 0:3:2], edges[:, 2::2], firsts, seconds,
                             fine, err))
        store = np.concatenate((store, children), axis=2)
        subdivisions += 2

    if len(failed):
        k = int(failed[0])
        row = f"row {k} " if batched else ""
        estimate = float(values[k])
        error = float(errors[k])
        raise ConvergenceError(
            f"quadrature {row}did not converge within "
            f"{spec.max_subdivisions} subdivisions "
            f"(estimate {estimate!r}, error {error!r})",
            estimate=estimate,
            error_estimate=error,
        )
    if batched:
        return values, errors
    return float(values[0]), float(errors[0])


def integrate_finite(f, a, b, spec=QuadratureSpec()):
    """Integral of ``f`` over [a, b] to the tolerances in ``spec``.

    Accepts the batched form of :func:`integrate_finite_with_error`.
    """
    value, _ = integrate_finite_with_error(f, a, b, spec)
    return value
