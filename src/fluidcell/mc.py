"""Monte Carlo engine cross-checking the closed-form outage path.

One trial drops the receiver at a random serving distance, draws the
interferer field and the correlated port channels, estimates the trained
ports, runs the two-stage port selection, and flags outage on the best
candidate's SINR. Nothing here reuses the analytic averaging; agreement
between the two paths is the package's core validation.

The field is sampled exactly, with independent fades per draw, within
``NEAR_FIELD_RATIO`` times the serving distance. Everything beyond adds
its Campbell mean, a share ``NEAR_FIELD_RATIO^(2 - a)`` of the mean
interference (1% at a = 4). That keeps about a hundred interferers per
trial at any density and path-loss exponent.

Trials run in fixed-size chunks, each with its own counter-derived
random stream, so results are identical for any worker count and the
worker pool only changes wall time.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import autocorrelation, error_variance_at
from .field import mean_interference, sample_serving_distance
from .geometry import link_distance, port_displacement, trained_port_indices

__all__ = [
    "TrialPlan",
    "TrialOutcome",
    "run_trial",
    "estimate_outage",
    "estimate_lmmse_mse",
]

WORKERS_ENV = "FLUIDCELL_WORKERS"

# exact-sampling radius over the serving distance; the far field beyond
# enters through its Campbell mean
NEAR_FIELD_RATIO = 10.0


@dataclass(frozen=True)
class TrialPlan:
    """Size, seeding, and model switches of one simulation run."""

    num_trials: int
    seed: int = 0
    faithful_pilots: bool = False     # simulate the pilot phase explicitly
    outer_radius: float = None        # floor of the exact-field radius, m
    chunk_size: int = 1024
    shared_candidate_fades: bool = False  # one fade set for all candidates
    realized_error_sinr: bool = False     # realized |error|^2 in the SINR

    def __post_init__(self):
        if self.num_trials < 1:
            raise ValueError("num_trials must be at least 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.outer_radius is not None and self.outer_radius <= 0.0:
            raise ValueError("outer_radius must be positive when given")


@dataclass(frozen=True)
class TrialOutcome:
    """Everything observable from a single simulated coherence block."""

    serving_distance: float
    candidate_ports: tuple       # 1-based winning port per antenna
    winning_sinr: float
    outage: bool
    estimation_errors: np.ndarray  # (num_fas, trained_count) complex


def _chunk_rng(seed, stream_key, chunk_index):
    """Independent stream for one chunk, stable across worker counts."""
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(stream_key) + (int(chunk_index),)
    )
    return np.random.Generator(np.random.Philox(ss))


def _segment_sums(trial_idx, weights, n):
    return np.bincount(trial_idx, weights=weights, minlength=n)


def _simulate_chunk(rng, n, cfg, net, budget, target, plan, collect=False):
    """Simulate ``n`` trials; returns the outage count (and details)."""
    lam = net.bs_density
    a = net.path_loss_exponent
    sigma_sq = net.channel_variance
    m = cfg.num_fas
    ports = trained_port_indices(cfg)
    j = len(ports)
    d = np.array([port_displacement(p, cfg) for p in ports])
    mu = np.array([autocorrelation(p, cfg) for p in ports])

    rho = sample_serving_distance(rng, lam, size=n)
    r_ports = np.sqrt(rho[:, None] ** 2 + d[None, :] ** 2)  # (n, j)

    # interferer positions, shared by every port and candidate in a trial;
    # the plan's outer_radius only ever widens the exact near field
    radius = NEAR_FIELD_RATIO * rho
    if plan.outer_radius is not None:
        radius = np.maximum(radius, plan.outer_radius)
    far_mean = mean_interference(radius, net)
    counts = rng.poisson(lam * math.pi * (radius**2 - rho**2))
    total = int(counts.sum())
    trial_idx = np.repeat(np.arange(n), counts)
    # the per-point arrays dominate the run time; single precision is
    # plenty for fade sums that are only read back through bincount
    sq = np.repeat((rho**2).astype(np.float32), counts)
    span = np.repeat((radius**2 - rho**2).astype(np.float32), counts)
    span *= rng.random(total, dtype=np.float32)
    sq += span
    del span
    if a == 4.0:
        path_gain = 1.0 / (sq * sq)
    else:
        path_gain = sq ** np.float32(-0.5 * a)
    del sq

    # correlated true channels at the trained ports; every port couples
    # to its antenna's first port only, so sampling the subset is exact
    w = np.sqrt(1.0 - mu**2)
    scale = math.sqrt(0.5)
    re = rng.normal(0.0, scale, (n, m, j))
    im = rng.normal(0.0, scale, (n, m, j))
    g = math.sqrt(sigma_sq) * (
        (w * re + mu * re[..., :1]) + 1j * (w * im + mu * im[..., :1])
    )

    def faded_sums():
        fades = rng.standard_exponential(total, dtype=np.float32)
        fades *= path_gain
        return sigma_sq * _segment_sums(trial_idx, fades, n) + far_mean

    if plan.faithful_pilots:
        # pilot observation per port: correlating against the unit-norm
        # pilot collapses the interferers to one complex Gaussian whose
        # power is the realized faded interference (not pilot-scaled)
        pilot_inter = np.empty((n, m, j))
        for k in range(m):
            for q in range(j):
                pilot_inter[:, k, q] = faded_sums()
        amp = np.sqrt(
            budget.pilot_length * net.tx_power / r_ports**a
        )  # (n, j)
        design = (
            amp**2 * sigma_sq
            + net.noise_power
            + net.tx_power * mean_interference(r_ports, net)
        )
        coeff = amp * sigma_sq / design
        noise_var = net.noise_power + net.tx_power * pilot_inter
        zre = rng.normal(0.0, scale, (n, m, j))
        zim = rng.normal(0.0, scale, (n, m, j))
        y = amp[:, None, :] * g + np.sqrt(noise_var) * (zre + 1j * zim)
        g_hat = coeff[:, None, :] * y
    else:
        # orthogonal split: the estimate and the error are uncorrelated,
        # with the estimate carrying variance sigma^2 - sigma_e^2
        err = error_variance_at(r_ports, budget.pilot_length, net)  # (n, j)
        c = 1.0 - err / sigma_sq
        xre = rng.normal(0.0, scale, (n, m, j))
        xim = rng.normal(0.0, scale, (n, m, j))
        g_hat = c[:, None, :] * g + np.sqrt(c * err)[:, None, :] * (
            xre + 1j * xim
        )

    est_power = np.abs(g_hat) ** 2
    win = np.argmax(est_power, axis=2)  # (n, m); ties take the lowest port

    def at_winner(arr):
        full = np.broadcast_to(arr, (n, m, j))
        return np.take_along_axis(full, win[..., None], axis=2)[..., 0]

    g_hat_win = at_winner(g_hat)
    r_win = at_winner(r_ports[:, None, :])

    if plan.realized_error_sinr:
        err_win = np.abs(at_winner(g) - g_hat_win) ** 2
    else:
        err_win = at_winner(
            error_variance_at(r_ports, budget.pilot_length, net)[:, None, :]
        )

    # stage-2 candidates see freshly drawn interferer fades over the
    # shared positions (uncorrelated branches); the shared-fade switch
    # exists only for sensitivity comparisons
    if plan.shared_candidate_fades:
        data_inter = np.repeat(faded_sums()[:, None], m, axis=1)
    else:
        data_inter = np.empty((n, m))
        for k in range(m):
            data_inter[:, k] = faded_sums()

    sinr = np.abs(g_hat_win) ** 2 / (
        r_win**a
        * (data_inter + err_win / r_win**a + 1.0 / net.transmit_snr)
    )
    best = sinr.max(axis=1)
    flags = best < target.threshold
    count = int(flags.sum())
    if not collect:
        return count

    details = {
        "rho": rho,
        "candidates": np.asarray(ports)[win],
        "winning_sinr": best,
        "outage": flags,
        "errors": g - g_hat,
    }
    return count, details


def run_trial(rng, cfg, net, budget, target, plan):
    """One full simulated block, reported in detail."""
    _, details = _simulate_chunk(
        rng, 1, cfg, net, budget, target, plan, collect=True
    )
    return TrialOutcome(
        serving_distance=float(details["rho"][0]),
        candidate_ports=tuple(int(p) for p in details["candidates"][0]),
        winning_sinr=float(details["winning_sinr"][0]),
        outage=bool(details["outage"][0]),
        estimation_errors=details["errors"][0],
    )


def _resolve_workers(workers):
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        return max(1, int(env))
    return 1


def estimate_outage(plan, cfg, net, budget, target, workers=None,
                    stream_key=()):
    """Outage probability and its binomial standard error.

    Chunk boundaries and per-chunk streams depend only on the plan and
    ``stream_key``, and the outage count is an integer sum, so the
    result is bit-identical for every worker count.
    """
    n = plan.num_trials
    chunk = plan.chunk_size
    n_chunks = (n + chunk - 1) // chunk

    def one(index):
        size = min(chunk, n - index * chunk)
        rng = _chunk_rng(plan.seed, stream_key, index)
        return _simulate_chunk(rng, size, cfg, net, budget, target, plan)

    pool = _resolve_workers(workers)
    if pool <= 1 or n_chunks == 1:
        count = sum(one(i) for i in range(n_chunks))
    else:
        with ThreadPoolExecutor(max_workers=pool) as ex:
            count = sum(ex.map(one, range(n_chunks)))

    p = count / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    return p, stderr


def estimate_lmmse_mse(plan, cfg, net, budget, rho, port, stream_key=()):
    """Empirical estimate error power at one port and serving distance.

    Runs the explicit pilot pipeline with the interference entering at
    its mean power (the same design assumption the estimator itself
    uses), so the result converges to the closed-form error variance.
    Returns ``(mse, standard_error)``.
    """
    if not plan.faithful_pilots:
        raise ValueError("estimate_lmmse_mse requires faithful_pilots=True")
    if rho <= 0.0:
        raise ValueError("serving distance must be positive")
    sigma_sq = net.channel_variance
    r = link_distance(port, rho, cfg)
    amp = math.sqrt(budget.pilot_length * net.tx_power / r**net.path_loss_exponent)
    floor = net.noise_power + net.tx_power * mean_interference(r, net)
    coeff = amp * sigma_sq / (amp**2 * sigma_sq + floor)

    n = plan.num_trials
    chunk = plan.chunk_size
    n_chunks = (n + chunk - 1) // chunk
    total = 0.0
    total_sq = 0.0
    scale = math.sqrt(0.5)
    for index in range(n_chunks):
        size = min(chunk, n - index * chunk)
        rng = _chunk_rng(plan.seed, stream_key, index)
        g = math.sqrt(sigma_sq) * (
            rng.normal(0.0, scale, size) + 1j * rng.normal(0.0, scale, size)
        )
        z = math.sqrt(floor) * (
            rng.normal(0.0, scale, size) + 1j * rng.normal(0.0, scale, size)
        )
        g_hat = coeff * (amp * g + z)
        sq = np.abs(g - g_hat) ** 2
        total += float(sq.sum())
        total_sq += float((sq**2).sum())

    mean = total / n
    var = max(total_sq / n - mean**2, 0.0)
    return mean, math.sqrt(var / n)
