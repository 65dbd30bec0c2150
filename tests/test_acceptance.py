"""End-to-end acceptance suite: one test per shipped guarantee.

Each test pins its own tolerances and seeds; ``pytest -v`` then reads
as a ten-line pass/fail report. Informational values (surrogate KS
distance, comparison-mode gaps, trend tables) print to stdout, so run
with ``-s`` to see them on passing tests; failing tests embed them in
the failure message.

The Monte Carlo engine is chunk-deterministic, so every simulated
number below is reproducible bit for bit at any worker count.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fluidcell import (
    CorrelationProfile,
    FaArrayConfig,
    FluidParams,
    InfeasibleFrameError,
    NetworkConfig,
    QuadratureSpec,
    TrialPlan,
    autocorrelation,
    bessel_i0,
    bessel_j0,
    build_frame_budget,
    conditional_outage,
    conditional_outage_bounds,
    erf,
    error_variance_at,
    estimate_lmmse_mse,
    estimate_outage,
    gamma_interference_model,
    joint_magnitude_cdf,
    joint_outage_given_thresholds,
    link_distance,
    marcum_q1,
    mean_interference,
    min_skipped_ports,
    outage_probability,
    outage_thresholds,
    sample_correlated_channels,
    sinr_threshold,
    trained_port_indices,
)
from fluidcell.cli import main
from fluidcell.mc import WORKERS_ENV
from conftest import COHERENCE_BANDWIDTH, COHERENCE_TIME, ESTIMATION_FRACTION
from oracles import (
    erf_quadrature,
    i0_series,
    j0_series,
    marcum_quadrature,
    sample_annulus,
)

FLUID = FluidParams()

# quadrature tolerance for the heavier double integrals: orders of
# magnitude below every acceptance margin used against them
RUN_SPEC = QuadratureSpec(absolute_tolerance=1e-7, relative_tolerance=1e-6)


def stock_budget_for(cfg, fraction=ESTIMATION_FRACTION):
    return build_frame_budget(
        cfg, FLUID, COHERENCE_BANDWIDTH, COHERENCE_TIME, fraction
    )


# =====================================================================
# 1. special functions against series / quadrature oracles
# =====================================================================


def test_criterion_01_special_function_oracles():
    start = time.perf_counter()

    x = np.linspace(-10.0, 10.0, 2001)
    np.testing.assert_allclose(bessel_j0(x), j0_series(x),
                               rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(bessel_i0(x), i0_series(x),
                               rtol=1e-10, atol=1e-10)

    xe = np.linspace(-10.0, 10.0, 1001)
    np.testing.assert_allclose(erf(xe), erf_quadrature(xe),
                               rtol=0.0, atol=1e-10)

    # 32 x 32 grid of Rician tail evaluations against direct quadrature
    alphas = np.linspace(0.05, 6.0, 32)
    betas = np.linspace(0.05, 8.0, 32)
    for a in alphas:
        qs = marcum_q1(a, betas)
        for b, q in zip(betas, qs):
            assert abs(q - marcum_quadrature(a, b)) <= 1e-10

    # exponential sandwich wherever the tail starts past the ridge
    grid_a, grid_b = np.meshgrid(np.linspace(0.0, 6.0, 40),
                                 np.linspace(0.0, 8.0, 40), indexing="ij")
    mask = grid_b >= grid_a
    q = marcum_q1(grid_a, grid_b)
    low = np.exp(-0.5 * (grid_a + grid_b) ** 2)
    high = np.exp(-0.5 * (grid_b - grid_a) ** 2)
    assert np.all(q[mask] >= low[mask] - 1e-12)
    assert np.all(q[mask] <= high[mask] + 1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


# =====================================================================
# 2. pilot-phase simulation against the closed-form error variance
# =====================================================================


def test_criterion_02_estimation_error_closed_form():
    start = time.perf_counter()
    cfg = FaArrayConfig()
    net = NetworkConfig()
    budget = stock_budget_for(cfg)
    plan = TrialPlan(num_trials=100_000, seed=11, faithful_pilots=True,
                     chunk_size=8192)

    # half, one, and two mean serving distances of the stock field
    base = 1.0 / math.sqrt(math.pi * net.bs_density)
    for k, rho in enumerate((0.5 * base, base, 2.0 * base)):
        mse, se = estimate_lmmse_mse(plan, cfg, net, budget, rho, 1,
                                     stream_key=(110 + k,))
        exact = float(error_variance_at(
            link_distance(1, rho, cfg), budget.pilot_length, net
        ))
        assert abs(mse - exact) <= 3.0 * se, (
            f"rho={rho:.1f}: mse {mse:.6e} vs exact {exact:.6e} "
            f"(3se {3 * se:.2e})"
        )

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"pilot MC took {elapsed:.1f}s"


# =====================================================================
# 3. skip design rule round trip
# =====================================================================


def test_criterion_03_skip_rule_round_trip():
    start = time.perf_counter()
    net = NetworkConfig()
    rng = np.random.default_rng(3)
    targets = np.linspace(0.2, 0.9, 8)

    accepted = 0
    attempts = 0
    while accepted < 50:
        attempts += 1
        assert attempts < 5000, "feasible configurations too rare"
        n = int(rng.integers(4, 41))
        cfg = FaArrayConfig(
            num_fas=int(rng.integers(1, 7)),
            ports_per_fa=n,
            skipped_ports=0,
            aperture_wavelengths=float(rng.uniform(0.1, 2.0)),
        )
        fraction = float(rng.uniform(0.06, 0.3))
        rho = float(rng.uniform(10.0, 150.0))
        try:
            nus = [
                min_skipped_ports(
                    float(t), rho, 1, cfg, FLUID, net,
                    COHERENCE_BANDWIDTH, COHERENCE_TIME, fraction,
                )
                for t in targets
            ]
        except InfeasibleFrameError:
            continue
        if math.ceil(max(nus)) > n - 1:
            continue

        for t, nu in zip(targets, nus):
            chosen = replace(cfg, skipped_ports=math.ceil(nu))
            budget = stock_budget_for(chosen, fraction)
            achieved = float(error_variance_at(
                link_distance(1, rho, chosen), budget.pilot_length, net
            ))
            assert achieved <= float(t) * (1.0 + 1e-9), (
                f"N={n} target {t:.2f}: ceil({nu:.3f}) skips leave "
                f"error variance {achieved:.4f}"
            )
        accepted += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"round trip took {elapsed:.1f}s"


# =====================================================================
# 4. joint selection law against the physical channel ensemble
# =====================================================================


def test_criterion_04_joint_magnitude_law():
    start = time.perf_counter()
    err = 1e-4  # additive estimate-noise variance on every port
    draws = 1_000_000

    for n_ports, seed in ((2, 41), (3, 42)):
        cfg = FaArrayConfig(num_fas=1, ports_per_fa=n_ports, skipped_ports=0)
        ports = trained_port_indices(cfg)
        mu = np.array([autocorrelation(p, cfg) for p in ports])
        profile = CorrelationProfile(
            ports=ports,
            mu=mu,
            channel_variance=1.0,
            spread_variance=1.0 - mu**2 + err,
        )
        rng = np.random.default_rng(seed)
        taus = rng.uniform(0.5, 1.6, size=(20, n_ports))

        counts = np.zeros(20)
        scale = math.sqrt(err / 2.0)
        for _ in range(10):
            g = sample_correlated_channels(rng, cfg, 1.0, 100_000)[:, 0, :]
            noise = (rng.normal(0.0, scale, g.shape)
                     + 1j * rng.normal(0.0, scale, g.shape))
            mags = np.abs(g + noise)
            counts += np.sum(
                np.all(mags[:, None, :] <= taus[None, :, :], axis=2), axis=0
            )
        empirical = counts / draws

        for k in range(20):
            p = joint_magnitude_cdf(taus[k], profile)
            se = math.sqrt(p * (1.0 - p) / draws)
            assert abs(empirical[k] - p) <= 3.0 * se, (
                f"{n_ports} ports, thresholds {taus[k]}: "
                f"cdf {p:.5f} vs empirical {empirical[k]:.5f} "
                f"(3se {3 * se:.1e})"
            )

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"ensemble comparison took {elapsed:.1f}s"


# =====================================================================
# 5. interference surrogate: exact moments, reported KS distance
# =====================================================================


def test_criterion_05_interference_surrogate_moments():
    net = NetworkConfig()
    radius = 0.5 / math.sqrt(math.pi * net.bs_density)  # mean serving dist
    model = gamma_interference_model(radius, net)

    mean = mean_interference(radius, net)
    np.testing.assert_allclose(model.shape * model.scale, mean, rtol=1e-12)
    np.testing.assert_allclose(model.mean, mean, rtol=1e-12)
    np.testing.assert_allclose(model.shape * model.scale**2, model.variance,
                               rtol=1e-12)

    # distribution-level distance is informational: the surrogate matches
    # moments, not shape (nearly all its mass sits at zero)
    rng = np.random.default_rng(5)
    snapshots = 4000
    exact = np.empty(snapshots)
    a = net.path_loss_exponent
    # the field out to 100 radii leaves 1e-4 of the mean interference
    outer = 100.0 * radius
    for k in range(snapshots):
        d = sample_annulus(rng, net.bs_density, radius, outer)
        fades = rng.exponential(net.channel_variance, d.size)
        exact[k] = float(np.sum(fades * d**-a))
    surrogate = rng.gamma(model.shape, model.scale, size=snapshots)
    ks = stats.ks_2samp(exact, surrogate).statistic
    print(f"\n[surrogate] KS distance {ks:.4f} at radius {radius:.1f} m "
          f"(soft reference level 0.05; moment identities are the "
          f"asserted contract)")


# =====================================================================
# 6. conditional outage quadrature against a direct simulation
# =====================================================================


def test_criterion_06_conditional_outage_vs_mc():
    start = time.perf_counter()
    cfg = FaArrayConfig(num_fas=1, ports_per_fa=4, skipped_ports=1)
    net = NetworkConfig()
    budget = stock_budget_for(cfg)
    target = sinr_threshold(1.0, budget)
    ports = trained_port_indices(cfg)
    idx = [p - 1 for p in ports]
    draws = 100_000

    for k, (rho, inter) in enumerate(
        [(10.0, 1e-5), (15.0, 5e-6), (20.0, 1e-6)]
    ):
        analytic = conditional_outage(rho, inter, cfg, net, budget, target)
        thetas = outage_thresholds(rho, inter, cfg, net, budget, target)
        r = np.array([link_distance(p, rho, cfg) for p in ports])
        errs = error_variance_at(r, budget.pilot_length, net)

        rng = np.random.default_rng(61 + k)
        g = sample_correlated_channels(rng, cfg, 1.0, draws)[:, 0, :][:, idx]
        scale = np.sqrt(errs / 2.0)
        noise = (rng.normal(0.0, 1.0, g.shape) * scale
                 + 1j * rng.normal(0.0, 1.0, g.shape) * scale)
        power = np.abs(g + noise) ** 2
        empirical = float(np.mean(np.all(power < thetas[None, :], axis=1)))

        se = math.sqrt(analytic * (1.0 - analytic) / draws)
        assert abs(empirical - analytic) <= 3.0 * se, (
            f"rho={rho}, I={inter:g}: quadrature {analytic:.5f} vs "
            f"simulated {empirical:.5f} (3se {3 * se:.1e})"
        )

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"conditional comparison took {elapsed:.1f}s"


# =====================================================================
# 7. network outage: analytic pipeline against the full simulation
# =====================================================================


def test_criterion_07_network_outage_vs_mc():
    start = time.perf_counter()
    cfg = FaArrayConfig(num_fas=2, ports_per_fa=5, skipped_ports=1)
    net = NetworkConfig()
    budget = stock_budget_for(cfg)
    target = sinr_threshold(1.0, budget)

    analytic = outage_probability(cfg, net, budget, target, spec=RUN_SPEC)
    plan = TrialPlan(num_trials=100_000, seed=7, chunk_size=2048)
    mc, se = estimate_outage(plan, cfg, net, budget, target,
                             stream_key=(70,))

    per_port = outage_probability(cfg, net, budget, target, spec=RUN_SPEC,
                                  mode="per-port-gamma")
    print(f"\n[network outage] shared-draw analytic {analytic:.5f}, "
          f"simulated {mc:.5f} (se {se:.5f}), gap {abs(analytic - mc):.5f}")
    print(f"[network outage] per-port comparison mode {per_port:.5f}, "
          f"gap to simulation {abs(per_port - mc):.5f}")

    assert abs(analytic - mc) <= 0.05, (
        f"analytic {analytic:.5f} vs simulated {mc:.5f} "
        f"(se {se:.5f}) differ by more than 0.05"
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"network comparison took {elapsed:.1f}s"


# =====================================================================
# 8. closed-form bracket in the interference-limited regime
# =====================================================================


def test_criterion_08_closed_form_bracket():
    # ten-fold transmit power lifts the design SNR to 1e6, so thermal
    # noise is negligible against interference
    net = NetworkConfig(tx_power=10.0)
    cfg = FaArrayConfig(num_fas=2, ports_per_fa=5, skipped_ports=1)
    budget = stock_budget_for(cfg)
    target = sinr_threshold(1.0, budget)
    ports = trained_port_indices(cfg)
    count = len(ports)
    a = net.path_loss_exponent

    def bracket_check(mu_common, assert_containment):
        rng = np.random.default_rng(8)
        rhos = rng.uniform(10.0, 60.0, 20)
        scales = 10.0 ** rng.uniform(math.log10(0.1), math.log10(3.0), 20)
        outside = 0
        worst = 0.0
        for rho, s in zip(rhos, scales):
            inter = s / rho**a  # spans low to saturated outage
            lower, upper = conditional_outage_bounds(
                rho, inter, mu_common, cfg, net, budget, target
            )
            assert 0.0 <= lower <= upper <= 1.0

            # quadrature on the same common-correlation model the
            # closed form assumes: shared spread, shared threshold
            err = (2.0 * math.pi * net.bs_density
                   * cfg.ports_per_fa / budget.data_uses
                   * rho**2 / (a - 2.0))
            spread = np.full(count, 1.0 - mu_common**2 + err)
            thetas = np.full(count,
                             target.threshold * (rho**a * inter + err))
            mu = np.full(count, mu_common)
            mu[0] = 0.0
            profile = CorrelationProfile(
                ports=ports, mu=mu, channel_variance=net.channel_variance,
                spread_variance=spread,
            )
            quad = joint_outage_given_thresholds(thetas, profile,
                                                 printed_form=True)
            distance = max(lower - quad, quad - upper, 0.0)
            tolerance = max(0.05, upper - lower)
            if distance > tolerance:
                outside += 1
                worst = max(worst, distance - tolerance)
            if assert_containment:
                assert distance <= tolerance, (
                    f"mu={mu_common}: rho {rho:.1f}, I {inter:.2e}: "
                    f"quadrature {quad:.4f} sits {distance:.4f} outside "
                    f"[{lower:.4f}, {upper:.4f}] (tolerance {tolerance:.4f})"
                )
        return outside, worst

    bracket_check(0.5, assert_containment=True)

    # the bracket is an expansion around saturated thresholds; at high
    # common correlation it detaches at mid outage, reported here
    outside, worst = bracket_check(0.7731, assert_containment=False)
    print(f"\n[bracket] common correlation 0.7731: {outside}/20 points "
          f"outside tolerance (worst overshoot {worst:.4f}); the bracket "
          f"regains its grip as thresholds saturate")


# =====================================================================
# 9. qualitative behavior of the simulated network
# =====================================================================


def test_criterion_09_qualitative_trends():
    start = time.perf_counter()
    lines = []
    failures = []

    def mc_point(cfg, net, fraction, trials, seed, key):
        budget = stock_budget_for(cfg, fraction)
        target = sinr_threshold(1.0, budget)
        plan = TrialPlan(num_trials=trials, seed=seed, chunk_size=2048)
        return estimate_outage(plan, cfg, net, budget, target, workers=1,
                               stream_key=(key,))

    def fmt(pairs):
        return "  ".join(f"{x:g}:{est:.4f}" for x, est, _ in pairs)

    def hyp(p, q):
        return math.hypot(p[2], q[2])

    # (a) transmit power: outage falls, then rides an interference floor
    rows = []
    for k, p in enumerate([0.01, 1.0, 100.0, 1e4, 1e5, 1e6]):
        est, se = mc_point(FaArrayConfig(), NetworkConfig(tx_power=p),
                           0.16, 20_000, 31, 310 + k)
        rows.append((p, est, se))
    sliding = all(
        rows[k + 1][1] <= rows[k][1] + 3.0 * hyp(rows[k], rows[k + 1])
        for k in range(len(rows) - 1)
    )
    floor_gap = abs(rows[-1][1] - rows[-2][1])
    flat = floor_gap <= 3.0 * hyp(rows[-1], rows[-2])
    ok = (sliding and rows[0][1] - rows[-1][1] >= 0.5
          and flat and rows[-1][1] >= 0.02)
    lines.append(f"(a) outage vs transmit power W: {fmt(rows)} "
                 f"[{'PASS' if ok else 'FAIL'}]")
    if not ok:
        failures.append("a")

    # (b) ports per FA: when switching dead time eats the pilot budget,
    # more ports first help (diversity), then hurt (shorter pilots)
    rows = []
    for k, n in enumerate([2, 4, 6, 10, 15, 22, 30]):
        est, se = mc_point(
            FaArrayConfig(ports_per_fa=n, skipped_ports=0),
            NetworkConfig(bs_density=5e-4), 0.0824, 20_000, 21, 500 + k,
        )
        rows.append((n, est, se))
    kmin = min(range(len(rows)), key=lambda k: rows[k][1])
    interior = 0 < kmin < len(rows) - 1
    left = rows[0][1] - rows[kmin][1] >= 3.0 * hyp(rows[0], rows[kmin])
    right = rows[-1][1] - rows[kmin][1] >= 3.0 * hyp(rows[-1], rows[kmin])
    ok = interior and left and right
    lines.append(f"(b) outage vs ports (starved frame): {fmt(rows)} "
                 f"[{'PASS' if ok else 'FAIL'}]")
    if not ok:
        failures.append("b")

    # (c) skipping three of every four ports at N=30, stock otherwise,
    # should beat training every port
    skip_rows = []
    for k, nu in enumerate([0, 3]):
        est, se = mc_point(
            FaArrayConfig(ports_per_fa=30, skipped_ports=nu),
            NetworkConfig(), 0.16, 30_000, 22, 900 + k,
        )
        skip_rows.append((nu, est, se))
    margin = skip_rows[0][1] - skip_rows[1][1]
    ok = skip_rows[1][1] < skip_rows[0][1]
    lines.append(
        f"(c) skip-three vs train-all at N=30: train-all "
        f"{skip_rows[0][1]:.4f}, skip {skip_rows[1][1]:.4f} "
        f"(margin {margin:+.4f}, se {hyp(skip_rows[0], skip_rows[1]):.4f}) "
        f"[{'PASS' if ok else 'FAIL'}]"
    )
    if not ok:
        failures.append("c")

    # (d) transmitter density: near first, interferers later; the curve
    # should dip and come back up
    rows = []
    for k, lam in enumerate([1e-6, 2e-5, 2e-4, 1e-3, 2e-3, 5e-3]):
        est, se = mc_point(FaArrayConfig(), NetworkConfig(bs_density=lam),
                           0.16, 20_000, 33, 330 + k)
        rows.append((lam, est, se))
    kmin = min(range(len(rows)), key=lambda k: rows[k][1])
    interior = 0 < kmin < len(rows) - 1
    right = rows[-1][1] - rows[kmin][1] >= 3.0 * hyp(rows[-1], rows[kmin])
    ok = interior and right
    lines.append(f"(d) outage vs density /m^2: {fmt(rows)} "
                 f"[{'PASS' if ok else 'FAIL'}]")
    if not ok:
        failures.append("d")

    # (e) skips needed for an error-variance target: fewer skips suffice
    # as the target loosens, with convex decay
    targets = np.linspace(0.2, 0.9, 8)
    nus = np.array([
        min_skipped_ports(float(t), 150.0, 1, FaArrayConfig(), FLUID,
                          NetworkConfig(), COHERENCE_BANDWIDTH,
                          COHERENCE_TIME, 0.16)
        for t in targets
    ])
    ok = bool(np.all(np.diff(nus) < 0.0) and np.all(np.diff(nus, 2) > 0.0))
    lines.append(
        "(e) skips vs error target: "
        + "  ".join(f"{t:.1f}:{nu:.2f}" for t, nu in zip(targets, nus))
        + f" [{'PASS' if ok else 'FAIL'}]"
    )
    if not ok:
        failures.append("e")

    elapsed = time.perf_counter() - start
    lines.append(f"trend suite runtime {elapsed:.0f}s (limit 900s)")
    if elapsed >= 900.0:
        failures.append("runtime")

    report = "\n".join(lines)
    print("\n" + report)
    if failures:
        pytest.fail(
            f"trends {', '.join(failures)} do not hold:\n{report}",
            pytrace=False,
        )


# =====================================================================
# 10. CSV determinism across worker pool sizes
# =====================================================================


def test_criterion_10_csv_determinism(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text(
        "num_fas = 2\nports_per_fa = 5\ntrials = 2048\n"
        "chunk_size = 256\nseed = 9\n",
        encoding="utf-8",
    )

    def run(tag):
        out = tmp_path / f"rows_{tag}.csv"
        code = main([
            "--config", str(config),
            "--sweep", "tx-power=0.5:2.0:2",
            "--engines", "monte-carlo",
            "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            assert "wall_ms" in reader.fieldnames
            return [
                tuple(row[col] for col in reader.fieldnames
                      if col != "wall_ms")
                for row in reader
            ]

    monkeypatch.delenv(WORKERS_ENV, raising=False)
    reference = run("default")
    for workers in ("1", "2", "4"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        assert run(workers) == reference, (
            f"rows changed with {workers} workers"
        )
