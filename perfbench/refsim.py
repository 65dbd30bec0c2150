"""Reference Monte Carlo for the ``mc-stock`` workload.

A second simulator of the model, written from the package description
(see ``model.py``) without importing ``fluidcell``. Per trial it draws
the serving distance, the interferer field, per-antenna interference
with fresh fades for each antenna's candidate, the correlated trained
port channels and their LMMSE estimates (estimate and error split
orthogonally, the package's default pilot model), picks the strongest
estimate per antenna and flags outage when no candidate reaches the
SINR threshold.

It differs from the package's engine on purpose: another generator
(PCG64), one trial at a time for the field, and the field simulated
exactly out to ``NEAR_FACTOR`` times the serving distance, with the
Campbell mean of the rest added as a constant. That rest carries
1 / NEAR_FACTOR^2 of the mean interference and a relative standard
deviation near 0.03 of that share, far below the reference's standard
error.

Regenerate the stored reference (about 4 minutes on one core):

    python3 perfbench/refsim.py --trials 1000000 --seed 20240501 \
        --out perfbench/reference/mc_stock.json
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from model import Link, read_config

NEAR_FACTOR = 30.0
HERE = os.path.dirname(os.path.abspath(__file__))
STOCK_CONFIG = os.path.join(HERE, "configs", "stock.cfg")
# the mc-stock grid: three of the fig6 densities, outage 0.3 to 0.9
DENSITIES = tuple(float(v) for v in np.logspace(-6.0, -3.0, 13)[8::2])


def simulate(values, trials, rng):
    """Outage count of ``trials`` independent blocks."""
    link = Link(values)
    m = link.num_fas
    j = len(link.ports)
    a = link.a
    lam = link.density
    sigma = math.sqrt(link.variance)

    u = rng.standard_exponential(trials)
    rho = np.sqrt(u / (math.pi * lam))

    # interference seen by each antenna's candidate: shared positions,
    # independent unit-mean exponential fades per antenna
    inter = np.empty((trials, m))
    near_area = math.pi * (NEAR_FACTOR**2 - 1.0)
    for i in range(trials):
        r0 = rho[i]
        count = rng.poisson(lam * near_area * r0 * r0)
        sq = rng.uniform(r0 * r0, (NEAR_FACTOR * r0) ** 2, count)
        gains = sq ** (-0.5 * a)
        fades = rng.standard_exponential((m, count))
        inter[i] = link.variance * (fades @ gains)
    inter += link.campbell_mean(NEAR_FACTOR * rho)[:, None]

    r = np.hypot(rho[:, None], link.offsets[None, :])       # (trials, j)
    err = link.error_variance(r)
    keep = 1.0 - err / link.variance

    def cn(shape):
        return (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

    x = cn((trials, m, j))
    mu = link.mu
    g = sigma * (np.sqrt(1.0 - mu**2) * x + mu * x[..., :1])
    g_hat = keep[:, None, :] * g + np.sqrt(keep * err)[:, None, :] * cn(
        (trials, m, j))
    power = np.abs(g_hat) ** 2
    win = np.argmax(power, axis=2)                            # (trials, m)
    rows = np.arange(trials)[:, None]
    p_win = power[rows, np.arange(m)[None, :], win]
    r_win = r[rows, win]
    err_win = err[rows, win]
    sinr = p_win / (r_win**a * inter + err_win + r_win**a / link.snr)
    return int(np.count_nonzero(sinr.max(axis=1) < link.threshold))


def reference(trials, seed, batch=20000):
    base = read_config(STOCK_CONFIG)
    rng = np.random.default_rng(seed)
    points = []
    for density in DENSITIES:
        values = dict(base, bs_density=density)
        started = time.perf_counter()
        outages = 0
        done = 0
        while done < trials:
            size = min(batch, trials - done)
            outages += simulate(values, size, rng)
            done += size
        p = outages / trials
        points.append({
            "bs_density": density,
            "outage": p,
            "stderr": math.sqrt(p * (1.0 - p) / trials),
            "trials": trials,
        })
        print(f"density {density:.6g}: outage {p:.5f} "
              f"({time.perf_counter() - started:.0f} s)", file=sys.stderr)
    return points


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000000)
    parser.add_argument("--seed", type=int, default=20240501)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    record = {
        "command": ("python3 perfbench/refsim.py --trials "
                    f"{args.trials} --seed {args.seed} --out {args.out}"),
        "config": "perfbench/configs/stock.cfg",
        "pilots": "default (orthogonal estimate/error split)",
        "near_factor": NEAR_FACTOR,
        "points": reference(args.trials, args.seed),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
