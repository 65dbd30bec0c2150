"""Monte Carlo engine cross-checking the closed-form outage path.

One trial drops the receiver at a random serving distance, draws the
interferer field and the trained ports' channel estimates, runs the
two-stage port selection, and flags outage on the best candidate's
SINR. Nothing here reuses the analytic averaging; agreement between the
two paths is the package's core validation.

Selection reads only the estimates, so a trial draws them straight from
their joint law instead of drawing channels and then estimation noise.
By the LMMSE orthogonality principle, port q's estimate given its
antenna's first-port channel e is gain_q * mu_q * e (mu_q the port's
autocorrelation, 1 at port 1) plus an independent complex Gaussian: per
antenna one normal for e and one per trained port, j + 1 complex
normals instead of 2j, drawn and scaled in single precision since
selection only compares them. Both pilot models have gain =
1 - sigma_e^2 (the explicit pilots' coefficient times their
amplitude); with explicit pilots the independent part also carries the
pilot noise at the realized pilot interference.

Channels, interference and error variances are in units of sigma^2.
The SINR charges the estimate's error through its variance, and each
antenna's candidate sees fresh interferer fades over the trial's shared
interferer positions. The field is sampled exactly, with independent
fades per draw, within ``NEAR_FIELD_RATIO`` times the serving distance:
15 interferers per trial on average at any density and path-loss
exponent. The field beyond carries a share ``NEAR_FIELD_RATIO^(2 - a)``
of the mean interference (6% at a = 4, 25% at a = 3). It enters as two
Gamma draws matched to its Campbell mean m and variance v: one per
trial, shared like the positions, and one per draw, fresh like the
fades, each with mean m/2 and variance v/2. Their sum has the far
field's mean, variance, and covariance v/2 between draws of a trial.

Trials run in fixed-size chunks, each with its own SFC64 stream seeded
from the plan's seed and the chunk's SeedSequence spawn key, so results
are identical for any worker count and the worker pool only changes
wall time.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import autocorrelation, error_variance_at
from .field import (
    campbell_variance,
    mean_interference,
    sample_serving_distance,
)
from .geometry import (
    link_distance,
    link_distances,
    trained_port_count,
    trained_port_indices,
)

__all__ = [
    "TrialPlan",
    "chunk_bytes",
    "estimate_outage",
    "estimate_lmmse_mse",
]

# exact-sampling radius over the serving distance; the far field beyond
# enters through Gamma draws matched to its Campbell mean and variance
NEAR_FIELD_RATIO = 4.0

# peak bytes of one chunk, fitted to the tracemalloc peak of
# _simulate_chunk: a fixed share (the port geometry and correlations,
# interpreter objects), then per trial a share for the field stage (its
# per-trial arrays and 15 near-field interferers on average), one per
# trained port (the (n, j) link distances, error variances and scales)
# and one per antenna and trained port (the float32 estimate block, its
# product temporary and the powers). Over 1-8 antennas, 1-30 trained
# ports, 64-8192 trials and both pilot models the estimate is 1.08-1.79
# times the peak
_FIXED_BYTES = 32_000
_BYTES_PER_TRIAL = 430
_BYTES_PER_TRIAL_PORT = 18
_BYTES_PER_ANTENNA_PORT = 32


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

    A fixed share plus, for each of min(chunk_size, num_trials) trials,
    one share per trial, one per trained port and one per antenna and
    trained port, for either pilot model.
    Arithmetic only: it builds nothing of the size it estimates.
    """
    trials = min(plan.chunk_size, plan.num_trials)
    trained = trained_port_count(cfg)
    return _FIXED_BYTES + trials * (
        _BYTES_PER_TRIAL
        + trained * (_BYTES_PER_TRIAL_PORT
                     + cfg.num_fas * _BYTES_PER_ANTENNA_PORT)
    )


def _chunks(plan, stream_key, stripe=0, stripes=1):
    """Size and stream of chunks ``stripe``, ``stripe + stripes``, ... of
    ``plan``: each depends only on the plan, ``stream_key`` and the
    chunk's index, never on the striping."""
    size = plan.chunk_size
    for start in range(stripe * size, plan.num_trials, stripes * size):
        ss = np.random.SeedSequence(entropy=int(plan.seed),
                                    spawn_key=(*stream_key, start // size))
        yield (min(size, plan.num_trials - start),
               np.random.Generator(np.random.SFC64(ss)))


def _lmmse_coefficient(err, amp):
    """LMMSE gain amp / (amp^2 + noise) on amp * g + noise for a unit
    variance g, through the error variance ``err`` that the noise leaves."""
    return (1.0 - err) / amp


def _port_estimates(rng, m, mean_scale, noise_scale):
    """Real and imaginary parts, shape (2, n, m, j), of the trained-port
    estimates of ``m`` antennas, in single precision: ``mean_scale``
    (n, j) times the antenna's first-port normal plus ``noise_scale``
    (broadcast to (n, m, j)) times one normal per port, both unit real
    normals drawn as one block each, the channels first.
    """
    n, j = mean_scale.shape
    first = rng.standard_normal((2, n, m, 1), dtype=np.float32)
    est = rng.standard_normal((2, n, m, j), dtype=np.float32)
    est *= noise_scale
    est += mean_scale[:, None, :] * first
    return est


def _sample_field(rng, n, cfg, net):
    """The (n, j) trained-port link distances of ``n`` trials and their
    field's ``faded_sums()``: one interference sum per trial per call."""
    lam = net.bs_density
    a = net.path_loss_exponent

    rho = sample_serving_distance(rng, lam, size=n)
    r_ports = link_distances(trained_port_indices(cfg), rho, cfg)  # (n, j)

    # interferer positions, shared by every port and candidate in a trial
    radius = NEAR_FIELD_RATIO * rho
    counts = rng.poisson(lam * math.pi * (radius**2 - rho**2))
    total = int(counts.sum())
    trial_idx = np.repeat(np.arange(n), counts)
    # the per-point arrays dominate the run time; single precision is
    # plenty for the gains that only weight the fades' sums
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

    # far field: half its Campbell variance comes from the positions and
    # is drawn once per trial, half from the fades and drawn per sum
    far_mean = mean_interference(radius, net)
    far_var = campbell_variance(radius ** (2.0 - 2.0 * a), net)
    far_shape = far_mean**2 / (2.0 * far_var)
    far_scale = far_var / far_mean
    far_shared = rng.gamma(far_shape, far_scale)

    def faded_sums():
        # fades in double, as bincount reads its weights
        fades = rng.standard_exponential(total)
        fades *= path_gain
        # a sum, not +=: bincount counts in integers when no trial of
        # the chunk has a near-field point
        sums = np.bincount(trial_idx, weights=fades, minlength=n) + far_shared
        sums += rng.gamma(far_shape, far_scale)
        return sums

    return r_ports, faded_sums


def _estimate_powers(rng, r_ports, err, faded_sums, cfg, net, budget, plan):
    """Powers (n, m, j) of the trained-port estimates, drawn from their
    joint law at link distances ``r_ports`` and error variances ``err``."""
    n, j = r_ports.shape
    m = cfg.num_fas

    # correlation of each trained port with its antenna's first port, 1
    # at port 1 itself (autocorrelation reports 0 there by convention)
    mu = autocorrelation(trained_port_indices(cfg), cfg)
    mu[0] = 1.0
    # LMMSE gain on the channel, 1 - sigma_e^2 by orthogonality for both
    # pilot models (the explicit pilots' coefficient times amplitude)
    gain = 1.0 - err
    if plan.faithful_pilots:
        # correlating each port's pilot observation against the unit-norm
        # pilot collapses the interferers to one complex Gaussian of the
        # realized power I, so the noise is gain^2 r^a (I + 1/SNR) / L at
        # pilot length L, next to the gain^2 the first port's channel misses
        spread = np.empty((n, m, j))
        for k in range(m):
            for q in range(j):
                spread[:, k, q] = faded_sums()
        spread += 1.0 / net.transmit_snr
        spread *= (r_ports**net.path_loss_exponent
                   / budget.pilot_length)[:, None, :]
        spread += 1.0 - mu**2
        spread *= (gain**2)[:, None, :]
    else:
        # orthogonal split: the estimate and the error are uncorrelated
        spread = (gain * (gain * (1.0 - mu**2) + err))[:, None, :]

    # a real part carries half of each variance; single precision is
    # plenty for estimates that selection only compares
    spread *= 0.5
    noise_scale = np.sqrt(spread, out=spread).astype(np.float32)
    mean_scale = (math.sqrt(0.5) * mu * gain).astype(np.float32)
    del spread, gain
    est = _port_estimates(rng, m, mean_scale, noise_scale)
    est *= est
    return est[0] + est[1]


def _count_outages(est_power, r_ports, err, faded_sums, net, target):
    """Outage count: each antenna keeps its strongest of ``est_power``
    (n, m, j), and every candidate misses over fresh ``faded_sums()``."""
    n, m, j = est_power.shape
    # stage-2 candidates see freshly drawn interferer fades over the
    # shared positions (uncorrelated branches); drawn before selection,
    # so the sums' temporaries never meet the winners' arrays
    data_inter = np.empty((n, m))
    for k in range(m):
        data_inter[:, k] = faded_sums()

    # ties take the lowest port; flat indices of each antenna's winner
    # into the powers and into the trials' (n, j) distances and errors
    win = np.argmax(est_power.reshape(n * m, j), axis=1)
    in_trial = np.repeat(np.arange(0, n * j, j), m) + win
    win += np.arange(0, n * m * j, j)
    power_win = est_power.take(win).astype(np.float64).reshape(n, m)
    del win
    r_win = r_ports.take(in_trial).reshape(n, m)
    err_win = err.take(in_trial).reshape(n, m)

    # SINR: the power over r^a (I + 1/SNR) plus the error variance
    data_inter += 1.0 / net.transmit_snr
    data_inter *= r_win**net.path_loss_exponent
    data_inter += err_win
    sinr = power_win / data_inter
    return int((sinr.max(axis=1) < target.threshold).sum())


def _simulate_chunk(rng, n, cfg, net, budget, target, plan):
    """Simulate ``n`` trials; returns the outage count."""
    r_ports, faded_sums = _sample_field(rng, n, cfg, net)
    err = error_variance_at(r_ports, budget.pilot_length, net)  # (n, j)
    # nested: the estimate block dies before the count stage, the powers
    # right after it, so glibc keeps its heap top for the next chunk
    return _count_outages(_estimate_powers(rng, r_ports, err, faded_sums,
                                           cfg, net, budget, plan),
                          r_ports, err, faded_sums, net, target)


def estimate_outage(plan, cfg, net, budget, target, workers=1,
                    stream_key=()):
    """Outage probability and its binomial standard error.

    ``workers`` stripes run at once on a thread pool, chunk i on stripe
    i mod ``workers``, each summing its own counts, so memory does not
    grow with the chunk count. Chunk boundaries and streams depend only
    on the plan and ``stream_key``, and the count is an integer sum, so
    the result is bit-identical for every worker count.
    """
    stripes = max(1, min(workers, -(-plan.num_trials // plan.chunk_size)))

    def stripe(first):
        return sum(
            _simulate_chunk(rng, size, cfg, net, budget, target, plan)
            for size, rng in _chunks(plan, stream_key, first, stripes)
        )

    if stripes == 1:
        count = stripe(0)
    else:
        with ThreadPoolExecutor(max_workers=stripes) as ex:
            count = sum(ex.map(stripe, range(stripes)))

    p = count / plan.num_trials
    return p, math.sqrt(p * (1.0 - p) / plan.num_trials)


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
    r = link_distance(port, rho, cfg)
    amp = math.sqrt(budget.pilot_length * net.tx_power / r**net.path_loss_exponent)
    floor = net.noise_floor + net.tx_power * mean_interference(r, net)
    err = error_variance_at(r, budget.pilot_length, net)
    coeff = _lmmse_coefficient(err, amp)

    n = plan.num_trials
    total = total_sq = 0.0
    scale = math.sqrt(0.5)
    for size, rng in _chunks(plan, stream_key):
        g = rng.normal(0.0, scale, size) + 1j * rng.normal(0.0, scale, size)
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
