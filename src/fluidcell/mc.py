"""Monte Carlo engine cross-checking the closed-form outage path.

One trial drops the receiver at a random serving distance, draws the
interferer field and the trained ports' channel estimates, runs the
two-stage port selection, and flags outage on the best candidate's
SINR. Nothing here reuses the analytic averaging; agreement between the
two paths is the package's core validation.

Selection reads only the estimates' powers, so a trial draws them
straight from their joint law instead of drawing channels and then
estimation noise. By the LMMSE orthogonality principle, port q's
estimate is c_q e + s_q w_q: e its antenna's first-port channel, c_q
its gain times mu_q (the port's autocorrelation, 1 at port 1) and w_q
independent. Turned by the phase of e, its power is
(c_q |e| + s_q |w_q| cos psi_q)^2 + (s_q |w_q| sin psi_q)^2 with |e|^2
and |w_q|^2 unit exponentials and psi_q uniform: per antenna one
exponential, per trained port one exponential and one uniform, in
single precision. Both pilot models have gain = 1 - sigma_e^2 (the
explicit pilots' coefficient times their amplitude); with explicit
pilots s_q also carries the pilot noise at the realized pilot
interference. Chunk arrays put the ports first and the trials last, so
every broadcast runs along the contiguous trial axis.

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
wall time. A chunk reads its stream in the order of ``_simulate_chunk``:
serving distances, field, estimate powers (explicit pilots first draw
one interference sum per trained port and antenna), data-phase sums.
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
# trained port (the (j, n) link distances, error variances and
# amplitudes) and one per antenna and trained port (the float32 powers
# and the polar draw's one other block, with explicit pilots also the
# noise amplitudes). Over 1-8 antennas, 1-30 trained ports, 64-8192
# trials and both pilot models the estimate is 1.04-1.78 times the peak
_FIXED_BYTES = 32_000
_BYTES_PER_TRIAL = 510
_BYTES_PER_TRIAL_PORT = 28
_BYTES_PER_ANTENNA_PORT = 15


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


def _port_powers(rng, m, mean_amp, noise_amp):
    """Powers (j, m, n), in single precision, of |c e + s w_q|^2 for
    ``m`` antennas at amplitudes c = ``mean_amp`` (j, 1, n) and s =
    ``noise_amp`` (broadcast to (j, m, n)), e and w_q unit complex
    normals: drawn in polar form, |e|^2 per antenna, then |w_q|^2 and
    the phase of w_q against e per antenna and port."""
    j, _, n = mean_amp.shape
    first = rng.standard_exponential((m, n), dtype=np.float32)
    power = rng.standard_exponential((j, m, n), dtype=np.float32)
    cross = rng.random((j, m, n), dtype=np.float32)
    cross *= np.float32(2.0 * math.pi)
    np.cos(cross, out=cross)
    cross *= np.sqrt(first)
    # in place throughout: the block holds the powers and one more array
    np.sqrt(power, out=power)
    power *= noise_amp
    cross *= power
    cross *= 2.0 * mean_amp
    power *= power
    power += cross
    power += np.multiply(mean_amp * mean_amp, first, out=cross)
    return power


def _sample_field(rng, rho, cfg, net):
    """The (j, n) trained-port link distances at serving distances
    ``rho`` (n,), and their field's ``faded_sums(count)``: ``count``
    interference sums per trial, (count, n), drawn row by row."""
    a = net.path_loss_exponent
    n = rho.size
    r_ports = link_distances(trained_port_indices(cfg), rho, cfg).T.copy()

    # interferer positions, shared by every port and candidate in a trial
    radius = NEAR_FIELD_RATIO * rho
    counts = rng.poisson(net.bs_density * math.pi * (radius**2 - rho**2))
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

    def faded_sums(count):
        sums = np.empty((count, n))
        fades = np.empty(total)  # in double, as bincount reads its weights
        for row in sums:
            rng.standard_exponential(out=fades)
            fades *= path_gain
            row[:] = np.bincount(trial_idx, fades, n) + far_shared
            row += rng.gamma(far_shape, far_scale)
        return sums

    return r_ports, faded_sums


def _estimate_powers(rng, r_ports, err, faded_sums, cfg, net, budget, plan):
    """Powers (j, m, n) of the trained-port estimates, drawn from their
    joint law at link distances ``r_ports`` and error variances ``err``,
    both (j, n)."""
    j, n = r_ports.shape
    m = cfg.num_fas

    # correlation of each trained port with its antenna's first port, 1
    # at port 1 itself (autocorrelation reports 0 there by convention)
    mu = autocorrelation(trained_port_indices(cfg), cfg)[:, None]
    mu[0] = 1.0
    # LMMSE gain on the channel, 1 - sigma_e^2 by orthogonality for both
    # pilot models (the explicit pilots' coefficient times amplitude)
    gain = 1.0 - err
    if plan.faithful_pilots:
        # correlating each port's pilot observation against the unit-norm
        # pilot collapses the interferers to one complex Gaussian of the
        # realized power I, so the noise is gain^2 r^a (I + 1/SNR) / L at
        # pilot length L, next to the gain^2 the first port's channel misses
        spread = faded_sums(j * m).reshape(j, m, n)
        spread += 1.0 / net.transmit_snr
        spread *= (r_ports**net.path_loss_exponent
                   / budget.pilot_length)[:, None, :]
        spread += (1.0 - mu**2)[:, None]
        spread *= (gain**2)[:, None, :]
    else:
        # orthogonal split: the estimate and the error are uncorrelated
        spread = (gain * (gain * (1.0 - mu**2) + err))[:, None, :]

    # single precision is plenty for powers that selection only compares
    noise_amp = np.sqrt(spread, out=spread).astype(np.float32)
    mean_amp = (mu * gain)[:, None, :].astype(np.float32)
    del spread, gain
    return _port_powers(rng, m, mean_amp, noise_amp)


def _count_outages(est_power, r_ports, err, data_inter, net, target):
    """Outage count: each antenna keeps its strongest of ``est_power``
    (j, m, n), and its candidate misses over its interference sum in
    ``data_inter`` (m, n), which the count overwrites; ``r_ports`` and
    ``err`` are the trials' (j, n) link distances and error variances."""
    j, n = r_ports.shape
    best = est_power.max(axis=0)
    # rank j - 1 - q for port q: the top rank reaching an antenna's best
    # is its lowest such port, so ties take the lowest port
    rank = np.arange(j - 1, -1, -1, dtype=np.min_scalar_type(j))
    top = np.multiply(est_power == best, rank[:, None, None]).max(axis=0)
    # flat indices of each antenna's winner into the (j, n) arrays
    win = np.arange(n) + n * (j - 1 - top.astype(np.intp))
    r_win = r_ports.take(win)
    err_win = err.take(win)

    # SINR: the power over r^a (I + 1/SNR) plus the error variance
    data_inter += 1.0 / net.transmit_snr
    data_inter *= r_win**net.path_loss_exponent
    data_inter += err_win
    sinr = best / data_inter
    return int((sinr.max(axis=0) < target.threshold).sum())


def _simulate_chunk(rng, n, cfg, net, budget, target, plan):
    """Simulate ``n`` trials; returns the outage count."""
    rho = sample_serving_distance(rng, net.bs_density, size=n)
    r_ports, faded_sums = _sample_field(rng, rho, cfg, net)
    err = error_variance_at(r_ports, budget.pilot_length, net)  # (j, n)
    # nested: the estimate block dies before the data-phase sums, which
    # come before selection, and the powers right after the count, so
    # glibc keeps its heap top for the next chunk
    return _count_outages(_estimate_powers(rng, r_ports, err, faded_sums,
                                           cfg, net, budget, plan),
                          r_ports, err, faded_sums(cfg.num_fas), net, target)


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
