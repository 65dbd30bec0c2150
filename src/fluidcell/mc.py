"""Monte Carlo engine cross-checking the closed-form outage path.

One trial drops the receiver at a random serving distance, draws the
interferer field and the correlated port channels, estimates the trained
ports, runs the two-stage port selection, and flags outage on the best
candidate's SINR. Nothing here reuses the analytic averaging; agreement
between the two paths is the package's core validation.

The SINR charges the estimate's error through its variance, and each
antenna's candidate sees fresh interferer fades over the trial's shared
interferer positions. The field is sampled exactly, with independent
fades per draw, within ``NEAR_FIELD_RATIO`` times the serving distance.
Everything beyond adds its Campbell mean, a share
``NEAR_FIELD_RATIO^(2 - a)`` of the mean interference (1% at a = 4).
That keeps about a hundred interferers per trial at any density and
path-loss exponent.

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
    "chunk_bytes",
    "worker_count",
    "estimate_outage",
    "estimate_lmmse_mse",
]

WORKERS_ENV = "FLUIDCELL_WORKERS"

# exact-sampling radius over the serving distance; the far field beyond
# enters through its Campbell mean
NEAR_FIELD_RATIO = 10.0

# peak bytes of one chunk per trial: per near-field interferer (index,
# squared distance, gain, fades and bincount's float64 weights), per
# antenna and trained port (complex channels, estimates and their
# temporaries), and per trial; tracemalloc peaks of _simulate_chunk
# stay 25-45% below the estimate from 64 to 8192 trials and from 1 to
# 240 antenna-port pairs
_BYTES_PER_INTERFERER = 32
_BYTES_PER_PORT = 160
_BYTES_PER_TRIAL = 256


@dataclass(frozen=True)
class TrialPlan:
    """Size, seeding, and pilot model of one simulation run."""

    num_trials: int
    seed: int = 0
    faithful_pilots: bool = False     # simulate the pilot phase explicitly
    chunk_size: int = 1024

    def __post_init__(self):
        if self.num_trials < 1:
            raise ValueError("num_trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")


def chunk_bytes(plan, cfg):
    """Estimated peak memory in bytes of one chunk of ``plan`` at ``cfg``.

    A chunk of min(chunk_size, num_trials) trials holds on average
    NEAR_FIELD_RATIO^2 - 1 = 99 near-field interferers per trial, at any
    density (pi * lambda * rho^2 is unit exponential), plus arrays over
    num_fas x trained ports. Arithmetic only: it builds nothing of the
    size it estimates.
    """
    trials = min(plan.chunk_size, plan.num_trials)
    trained = -(-cfg.ports_per_fa // (cfg.skipped_ports + 1))
    per_trial = (
        _BYTES_PER_INTERFERER * (NEAR_FIELD_RATIO**2 - 1)
        + _BYTES_PER_PORT * cfg.num_fas * trained
        + _BYTES_PER_TRIAL
    )
    return int(trials * per_trial)


def _chunk_rng(seed, stream_key, chunk_index):
    """Independent stream for one chunk, stable across worker counts."""
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(stream_key) + (int(chunk_index),)
    )
    return np.random.Generator(np.random.Philox(ss))


def _lmmse_coefficient(err, amp, sigma_sq):
    """LMMSE gain amp sigma^2 / (amp^2 sigma^2 + noise) on amp * g + noise,
    written through the error variance ``err`` that the noise leaves."""
    return (1.0 - err / sigma_sq) / amp


def _simulate_chunk(rng, n, cfg, net, budget, target, plan):
    """Simulate ``n`` trials; returns the outage count."""
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

    # interferer positions, shared by every port and candidate in a trial
    radius = NEAR_FIELD_RATIO * rho
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
        return sigma_sq * np.bincount(
            trial_idx, weights=fades, minlength=n
        ) + far_mean

    err = error_variance_at(r_ports, budget.pilot_length, net)  # (n, j)
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
        coeff = _lmmse_coefficient(err, amp, sigma_sq)
        noise_var = net.noise_power + net.tx_power * pilot_inter
        zre = rng.normal(0.0, scale, (n, m, j))
        zim = rng.normal(0.0, scale, (n, m, j))
        y = amp[:, None, :] * g + np.sqrt(noise_var) * (zre + 1j * zim)
        g_hat = coeff[:, None, :] * y
    else:
        # orthogonal split: the estimate and the error are uncorrelated,
        # with the estimate carrying variance sigma^2 - sigma_e^2
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
    err_win = at_winner(err[:, None, :])

    # stage-2 candidates see freshly drawn interferer fades over the
    # shared positions (uncorrelated branches)
    data_inter = np.empty((n, m))
    for k in range(m):
        data_inter[:, k] = faded_sums()

    sinr = np.abs(g_hat_win) ** 2 / (
        r_win**a
        * (data_inter + err_win / r_win**a + 1.0 / net.transmit_snr)
    )
    return int((sinr.max(axis=1) < target.threshold).sum())


def worker_count(workers=None, default=1):
    """Pool size: ``workers``, else ``FLUIDCELL_WORKERS``, else ``default``.

    Values below one mean one. Raises ``ValueError`` when the
    environment variable is set but is not an integer.
    """
    if workers is None:
        text = os.environ.get(WORKERS_ENV, "").strip()
        if not text:
            return default
        try:
            workers = int(text)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {text!r}"
            ) from None
    return max(1, int(workers))


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

    pool = worker_count(workers)
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
    err = error_variance_at(r, budget.pilot_length, net)
    coeff = _lmmse_coefficient(err, amp, sigma_sq)

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
