"""Tests for config loading, sweep validation, presets, and the CLI."""

import csv
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import fluidcell
from fluidcell import ConvergenceError
from fluidcell.cli import (
    _MAX_GRID_POINTS,
    _MEMORY_BUDGET,
    CSV_COLUMNS,
    PRESETS,
    WORKERS_ENV,
    ConfigError,
    SweepSpec,
    _apply_sweep_value,
    _parse_sweep_flag,
    _worker_count,
    default_config,
    figure_preset,
    load_config,
    main,
    run_sweep,
)
from fluidcell.mc import chunk_bytes


@pytest.fixture(autouse=True)
def clear_worker_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# small, fast run: two antennas, five ports, modest trial count
FAST_CONFIG = """
# desk-scale check run
num_fas = 2
ports_per_fa = 5
trials = 512
chunk_size = 256
seed = 3
"""


# =====================================================================
# config handling
# =====================================================================


class TestLoadConfig:
    def test_defaults_match_stock_values(self):
        cfg = default_config()
        assert cfg.array.num_fas == 4
        assert cfg.array.ports_per_fa == 15
        assert cfg.array.skipped_ports == 1
        assert cfg.network.bs_density == 5e-5
        assert cfg.network.tx_power == 1.0
        assert cfg.plan.num_trials == 20000
        assert cfg.plan.seed == 1
        assert cfg.plan.chunk_size == 2048
        assert cfg.rate == 1.0
        assert cfg.estimation_fraction == 0.16

    def test_overrides_comments_and_blank_lines(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
            # comment only
            tx_power = 2.0
            ports_per_fa = 9   # trailing comment

            seed = 42
        """))
        assert cfg.network.tx_power == 2.0
        assert cfg.array.ports_per_fa == 9
        assert cfg.plan.seed == 42
        # untouched keys keep their stock values
        assert cfg.network.bs_density == 5e-5

    def test_budget_and_target_derive(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "rate = 2.0\n"))
        budget = cfg.budget()
        assert budget.total_uses == 5_000_000
        target = cfg.target(budget)
        data_fraction = budget.data_uses / budget.total_uses
        np.testing.assert_allclose(
            (1.0 + target.threshold) ** data_fraction, 4.0, rtol=1e-12
        )

    def test_unknown_key_points_at_the_line(self, tmp_path):
        path = write_config(tmp_path, "tx_power = 1.0\nbandwidth = 3\n")
        with pytest.raises(ConfigError, match=r":2: unknown config key"):
            load_config(path)

    def test_unparseable_value(self, tmp_path):
        path = write_config(tmp_path, "tx_power = lots\n")
        with pytest.raises(ConfigError, match="could not parse"):
            load_config(path)

    def test_integer_key_rejects_fraction(self, tmp_path):
        path = write_config(tmp_path, "num_fas = 2.5\n")
        with pytest.raises(ConfigError, match="an integer"):
            load_config(path)

    def test_missing_equals_sign(self, tmp_path):
        path = write_config(tmp_path, "just words\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("estimation_fraction = 0", "estimation_fraction"),
            ("target_variance = 1.0", "target_variance"),
            ("rate = -0.5", "rate"),
            ("coherence_time = 0", "coherence_time"),
            ("ports_per_fa = 0", None),
            ("seed = -1", "seed"),
            ("bs_density = nan", "bs_density must be finite"),
            ("bs_density = inf", "bs_density must be finite"),
            ("path_loss_exponent = nan", "path_loss_exponent must be finite"),
            ("path_loss_exponent = inf", "path_loss_exponent must be finite"),
            ("noise_power = nan", "noise_power must be finite"),
            ("noise_power = inf", "noise_power must be finite"),
            ("channel_variance = nan", "channel_variance must be finite"),
            ("channel_variance = inf", "channel_variance must be finite"),
            ("tx_power = inf", "tx_power must be finite"),
            ("rate = inf", "rate must be nonnegative and finite"),
            ("coherence_bandwidth = inf", "coherence_bandwidth"),
            ("coherence_time = inf", "coherence_time"),
            ("wavelength = nan", "wavelength"),
            ("aperture_wavelengths = inf", "aperture_wavelengths"),
            ("charge = inf", "charge"),
        ],
    )
    def test_semantic_validation(self, tmp_path, line, match):
        path = write_config(tmp_path, line + "\n")
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    @pytest.mark.parametrize("line", ["tx_power = inf", "rate = inf"])
    def test_non_finite_value_exits_2_before_any_point(
        self, tmp_path, caplog, line
    ):
        # both once ran every point and wrote numbers with exit 0
        out = tmp_path / "rows.csv"
        code = main([
            "--config", write_config(tmp_path, line + "\n"),
            "--sweep", "bs-density=5e-5:1e-4:2",
            "--engines", "analytic,monte-carlo", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert "must be" in caplog.text

    @pytest.mark.parametrize("key, value", [
        ("target_variance", 1.0),
        ("coherence_time", 0),
        ("estimation_fraction", 1.0),
        ("rate", -1),
    ])
    def test_replace_revalidates(self, key, value):
        # RunConfig checks its own fields, so a sweep's replace does too
        with pytest.raises(ValueError, match=key):
            replace(default_config(), **{key: value})

    def test_stock_description(self):
        # the "resolved config:" log line of a stock run, key for key
        assert default_config().describe() == (
            "bs_density=5e-05 path_loss_exponent=4 tx_power=1 "
            "noise_power=1e-05 channel_variance=1 num_fas=4 ports_per_fa=15 "
            "skipped_ports=1 aperture_wavelengths=0.2 wavelength=0.06 "
            "charge=0.07 viscosity=0.002 thickness_to_length=0.2 "
            "voltage_delta=10 coherence_bandwidth=1e+08 coherence_time=0.05 "
            "estimation_fraction=0.16 rate=1 target_variance=0.5 "
            "trials=20000 seed=1 chunk_size=2048 faithful_pilots=0"
        )


# =====================================================================
# sweep argument parsing
# =====================================================================


class TestSweepSpec:
    def test_monotone_grids_both_directions(self):
        SweepSpec(parameter="tx-power", grid=(0.1, 1.0, 10.0))
        SweepSpec(parameter="tx-power", grid=(10.0, 1.0, 0.1))

    def test_rejects_non_monotone_grid(self):
        with pytest.raises(ConfigError, match="monotone"):
            SweepSpec(parameter="tx-power", grid=(1.0, 3.0, 2.0))

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError, match="nonempty"):
            SweepSpec(parameter="tx-power", grid=())

    def test_integer_parameters_need_integers(self):
        with pytest.raises(ConfigError, match="positive\\s+integers|integers"):
            SweepSpec(parameter="ports-per-fa", grid=(2.0, 2.5))

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            SweepSpec(parameter="power", grid=(1.0,))

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            SweepSpec(parameter="tx-power", grid=(1.0,), engines=("exact",))

    @pytest.mark.parametrize("engines", [
        ("analytic", "analytic"),
        ("monte-carlo", "analytic", "monte-carlo"),
    ])
    def test_rejects_a_repeated_engine(self, engines):
        # a repeated engine would run, and log each failure, twice
        with pytest.raises(ConfigError, match="is repeated"):
            SweepSpec(parameter="tx-power", grid=(1.0,), engines=engines)

    def test_bounds_engine_needs_interference_limited_claim(self):
        with pytest.raises(ConfigError, match="interference-limited"):
            SweepSpec(parameter="tx-power", grid=(1.0,), engines=("bounds",))
        SweepSpec(
            parameter="tx-power", grid=(1.0,), engines=("bounds",),
            interference_limited=True,
        )

    def test_target_variance_is_analytic_only(self):
        with pytest.raises(ConfigError, match="analytic"):
            SweepSpec(
                parameter="target-variance", grid=(0.5,),
                engines=("analytic", "monte-carlo"),
            )

    @pytest.mark.parametrize("parameter, grid", [
        ("tx-power", (1.0, math.inf)),
        ("num-fas", (math.nan,)),
        ("ports-per-fa", (math.inf,)),
    ])
    def test_rejects_non_finite_grid(self, parameter, grid):
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec(parameter=parameter, grid=grid)

    def test_rejects_grid_past_the_cap(self):
        grid = range(1, _MAX_GRID_POINTS + 1)
        assert len(SweepSpec(parameter="tx-power", grid=grid).grid) == len(grid)
        with pytest.raises(ConfigError, match="more than the"):
            SweepSpec(parameter="tx-power", grid=range(1, len(grid) + 2))


class TestParseSweepFlag:
    def test_linear_grid(self):
        key, grid = _parse_sweep_flag("tx-power=0.1:1.0:4")
        assert key == "tx-power"
        np.testing.assert_allclose(grid, np.linspace(0.1, 1.0, 4))

    def test_single_step(self):
        _, grid = _parse_sweep_flag("tx-power=2.0:9.0:1")
        assert grid == (2.0,)

    @pytest.mark.parametrize(
        "text", ["tx-power=1:2", "tx-power", "tx-power=a:b:3", "p=1:2:0",
                 f"tx-power=1:2:{_MAX_GRID_POINTS + 1}",
                 "num-fas=nan:nan:1", "ports-per-fa=inf:inf:1",
                 "tx-power=1:inf:2"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            _parse_sweep_flag(text)


class TestFigurePresets:
    def test_power_preset_is_dbm_grid_in_watts(self):
        spec = figure_preset("fig3")
        assert spec.parameter == "tx-power"
        assert len(spec.grid) == 16
        np.testing.assert_allclose(spec.grid[0], 1e-3, rtol=1e-12)
        np.testing.assert_allclose(spec.grid[-1], 1e3, rtol=1e-12)
        assert spec.engines == ("analytic", "monte-carlo")

    def test_port_count_preset(self):
        spec = figure_preset("fig5")
        assert spec.parameter == "ports-per-fa"
        assert spec.grid == tuple(float(n) for n in range(2, 31))

    def test_density_preset_is_log_spaced(self):
        spec = figure_preset("fig6")
        ratios = np.diff(np.log10(spec.grid))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_design_rule_preset_is_analytic_only(self):
        spec = figure_preset("fig7")
        assert spec.parameter == "target-variance"
        assert spec.engines == ("analytic",)

    def test_overrides_win(self):
        spec = figure_preset("fig3", engines=("analytic",))
        assert spec.engines == ("analytic",)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_point_fits_the_stock_frame(self, preset):
        base = default_config()
        spec = figure_preset(preset)
        for value in spec.grid:
            _apply_sweep_value(base, spec.parameter, value).budget()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            figure_preset("fig9")


# =====================================================================
# sweep execution and the executable entry point
# =====================================================================


class TestRunSweep:
    def test_design_rule_sweep_reports_skip_counts(self):
        base = default_config()
        spec = SweepSpec(
            parameter="target-variance", grid=(0.3, 0.5, 0.7),
            engines=("analytic",),
        )
        rows, failures = run_sweep(spec, base)
        assert not failures
        values = [float(r["outage_analytic_common"]) for r in rows]
        # tighter targets need more skipping
        assert values[0] > values[1] > values[2] > 0.0
        for row in rows:
            assert row["outage_mc"] == ""
            assert row["outage_lower"] == ""

    def test_bounds_point_makes_one_bessel_call(self, monkeypatch):
        # the common correlation takes all 9,999 trained ports after the
        # first through one Bessel call, not one call per port
        calls = []
        j0 = fluidcell.channel.bessel_j0

        def counted(x):
            calls.append(np.shape(x))
            return j0(x)

        monkeypatch.setattr("fluidcell.channel.bessel_j0", counted)
        monkeypatch.setenv(WORKERS_ENV, "1")
        base = load_config(os.path.join(CONFIG_DIR, "desk.cfg"))
        base = replace(base, array=replace(base.array, ports_per_fa=10**4,
                                           skipped_ports=0))
        spec = SweepSpec(parameter="bs-density", grid=(5e-5,),
                         engines=("bounds",), interference_limited=True)
        rows, failures = run_sweep(spec, base)
        assert not failures
        assert calls == [(10**4 - 1,)]
        lower, upper = (float(rows[0][c])
                        for c in ("outage_lower", "outage_upper"))
        assert 0.0 <= lower <= upper <= 1.0

    def test_both_modes_make_one_per_port_batch(self, monkeypatch):
        # --mode both reads common-gamma off row 0 of the per-port
        # batch: its joint cdf calls are those of per-port-gamma alone,
        # and each cell is that of its mode run alone
        calls = []
        cdf = fluidcell.outage.joint_magnitude_cdf

        def counted(*args, **kwargs):
            calls.append(1)
            return cdf(*args, **kwargs)

        monkeypatch.setattr("fluidcell.outage.joint_magnitude_cdf", counted)
        monkeypatch.setenv(WORKERS_ENV, "1")
        base = load_config(os.path.join(CONFIG_DIR, "desk.cfg"))
        spec = SweepSpec(parameter="bs-density", grid=(5e-5,),
                         engines=("analytic",))
        cells, counts = {}, {}
        for mode in ("both", "common-gamma", "per-port-gamma"):
            calls.clear()
            rows, failures = run_sweep(spec, base, mode=mode)
            assert not failures
            cells[mode] = {**rows[0], "wall_ms": ""}
            counts[mode] = len(calls)
        assert counts["both"] == counts["per-port-gamma"]
        assert counts["common-gamma"] > 0
        assert cells["both"] == {**cells["common-gamma"],
                                 "outage_analytic_perport":
                                 cells["per-port-gamma"][
                                     "outage_analytic_perport"]}

    def test_rejects_unknown_mode(self):
        base = default_config()
        spec = SweepSpec(parameter="tx-power", grid=(1.0,))
        with pytest.raises(ConfigError, match="mode"):
            run_sweep(spec, base, mode="exact")

    def test_target_variance_domain_is_a_share_of_the_channel_variance(self):
        # the target is in units of sigma^2, so its domain is (0, 1) at
        # any channel variance, and it ignores that variance
        base = default_config()
        wide = replace(base, network=replace(base.network,
                                             channel_variance=2.0))
        spec = SweepSpec(parameter="target-variance", grid=(0.5, 1.5))
        for cfg in (base, wide):
            with pytest.raises(ConfigError, match="target-variance=1.5"):
                run_sweep(spec, cfg)
        spec = SweepSpec(parameter="target-variance", grid=(0.25, 0.5))
        doubled = replace(base, network=replace(base.network, tx_power=2.0))
        cells = [
            [{**row, "wall_ms": ""} for row in run_sweep(spec, cfg)[0]]
            for cfg in (wide, doubled)
        ]
        assert cells[0] == cells[1]
        assert all(row["outage_analytic_common"] for row in cells[0])


class TestMain:
    def test_full_run_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = str(tmp_path / "rows.csv")
        code = main([
            "--config", cfg,
            "--sweep", "num-fas=1:2:2",
            "--engines", "analytic,monte-carlo",
            "--mode", "common-gamma",
            "--out", out,
        ])
        assert code == 0
        rows = read_rows(out)
        assert [r["sweep_value"] for r in rows] == ["1", "2"]
        for row in rows:
            assert set(row) == set(CSV_COLUMNS)
            assert 0.0 <= float(row["outage_analytic_common"]) <= 1.0
            assert 0.0 <= float(row["outage_mc"]) <= 1.0
            assert float(row["mc_stderr"]) > 0.0
            assert float(row["wall_ms"]) > 0.0
            assert row["outage_analytic_perport"] == ""
        # one antenna cannot beat two: outage is monotone in the count
        assert float(rows[0]["outage_analytic_common"]) > float(
            rows[1]["outage_analytic_common"]
        )

    def test_worker_pool_size_never_changes_the_rows(
        self, tmp_path, monkeypatch
    ):
        cfg = write_config(tmp_path, FAST_CONFIG)
        outputs = {}
        for workers in ("1", "3"):
            out = str(tmp_path / f"rows_{workers}.csv")
            monkeypatch.setenv(WORKERS_ENV, workers)
            code = main([
                "--config", cfg,
                "--sweep", "tx-power=0.5:2.0:3",
                "--engines", "monte-carlo",
                "--out", out,
            ])
            assert code == 0
            rows = read_rows(out)
            outputs[workers] = [
                {k: v for k, v in row.items() if k != "wall_ms"}
                for row in rows
            ]
        assert outputs["1"] == outputs["3"]

    def test_failed_grid_point_marks_cells_and_exit_code(self, tmp_path):
        # eight antennas leave N = 15 infeasible: switching alone
        # overruns the estimation share, so that point reports errors
        cfg = write_config(tmp_path, "num_fas = 8\ntrials = 256\n")
        out = str(tmp_path / "rows.csv")
        code = main([
            "--config", cfg,
            "--sweep", "ports-per-fa=10:15:2",
            "--engines", "analytic",
            "--mode", "common-gamma",
            "--out", out,
        ])
        assert code == 1
        rows = read_rows(out)
        assert float(rows[0]["outage_analytic_common"]) > 0.0
        assert rows[1]["outage_analytic_common"] == "error"

    def test_frame_without_data_marks_cells_and_exit_code(
        self, tmp_path, caplog
    ):
        # 100 uses per block, all spent on training: every cell fails
        # on the data share, the skip-count preset included
        cfg = write_config(
            tmp_path, "coherence_bandwidth = 1000\ncoherence_time = 0.1\n"
            "estimation_fraction = 0.999\n",
        )
        out = str(tmp_path / "rows.csv")
        code = main([
            "--config", cfg, "--sweep", "tx-power=1:2:2",
            "--engines", "analytic,monte-carlo", "--out", out,
        ])
        assert code == 1
        for row in read_rows(out):
            for column in ("outage_analytic_common", "outage_analytic_perport",
                           "outage_mc", "mc_stderr"):
                assert row[column] == "error"
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert all("data share" in e for e in errors[:-1])
        assert main(["--config", cfg, "--preset", "fig7", "--out", out]) == 1

    @pytest.mark.parametrize("sweep, mode", [
        (["--sweep", "tx-power=1:2:2"], "common-gamma"),
        (["--sweep", "tx-power=1:2:2"], "per-port-gamma"),
        (["--preset", "fig7"], "both"),
    ])
    def test_failed_frame_marks_only_the_cells_it_would_fill(
        self, tmp_path, caplog, sweep, mode
    ):
        # the switching time overruns this frame's estimation share; a
        # single analytic mode or a skip-count sweep fills one column,
        # so only that column reads error and the other stays empty
        cfg = write_config(
            tmp_path, "coherence_bandwidth = 1e5\ncoherence_time = 0.01\n"
            "estimation_fraction = 0.02\n",
        )
        out = str(tmp_path / "rows.csv")
        code = main([
            "--config", cfg, *sweep, "--engines", "analytic",
            "--mode", mode, "--out", out,
        ])
        assert code == 1
        column = ("outage_analytic_perport" if mode == "per-port-gamma"
                  else "outage_analytic_common")
        rows = read_rows(out)
        for row in rows:
            assert {c: row[c] for c in CSV_COLUMNS[1:-1]} == {
                c: "error" if c == column else "" for c in CSV_COLUMNS[1:-1]
            }
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == len(rows) + 1
        assert all("analytic: switching time" in e for e in errors[:-1])

    @pytest.mark.parametrize("row, failed", [
        (1, ("outage_analytic_perport",)),
        (0, ("outage_analytic_common", "outage_analytic_perport")),
    ])
    def test_failed_distance_row_marks_only_its_modes_cells(
        self, tmp_path, caplog, monkeypatch, row, failed
    ):
        # a per-port row past the first fails only per-port-gamma; row 0
        # is also the common-gamma integral, so it fails both modes. The
        # failed per-port batch runs once, then common-gamma alone
        run = ["--config", os.path.join(CONFIG_DIR, "desk.cfg"),
               "--sweep", "bs-density=5e-5:5e-5:1", "--engines", "analytic",
               "--mode", "both", "--out", str(tmp_path / "rows.csv")]
        assert main(run) == 0
        good = read_rows(tmp_path / "rows.csv")[0]
        averaged = fluidcell.outage._distance_averaged
        batches = []

        def failing(conditional, offsets, net, spec):
            batches.append(len(offsets))
            values = averaged(conditional, offsets, net, spec)
            if len(offsets) > row:
                raise ConvergenceError(
                    f"quadrature row {row} did not converge",
                    estimate=float(values[row]), error_estimate=1.0,
                )
            return values

        monkeypatch.setattr("fluidcell.outage._distance_averaged", failing)
        caplog.clear()
        assert main(run) == 1
        assert batches == [3, 1]
        got = read_rows(tmp_path / "rows.csv")[0]
        assert {c: got[c] for c in CSV_COLUMNS[1:-1]} == {
            c: "error" if c in failed else good[c] for c in CSV_COLUMNS[1:-1]
        }
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [
            f"point 0 (bs-density=5e-05) analytic: quadrature row {row} "
            "did not converge"
        ] * len(failed) + [f"{len(failed)} grid point engine(s) failed"]

    def test_overflowing_rate_marks_cells_and_exit_code(
        self, tmp_path, caplog
    ):
        # 2^(2000 / 0.84) overflows a float; this once escaped as a
        # traceback with no CSV written
        cfg = write_config(tmp_path, "rate = 2000\n")
        out = str(tmp_path / "rows.csv")
        code = main([
            "--config", cfg, "--sweep", "tx-power=1:2:2",
            "--engines", "analytic", "--out", out,
        ])
        assert code == 1
        rows = read_rows(out)
        assert [row["outage_analytic_common"] for row in rows] == [
            "error", "error"]
        assert rows[0]["outage_analytic_perport"] == "error"
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 3
        assert all("analytic: rate 2000" in e for e in errors[:2])
        assert errors[2] == "2 grid point engine(s) failed"

    def test_failure_without_message_names_its_exception(
        self, tmp_path, caplog, monkeypatch
    ):
        # an engine's MemoryError once logged nothing after "bounds: "
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr("fluidcell.cli.averaged_outage_bounds",
                            out_of_memory)
        out = str(tmp_path / "rows.csv")
        code = main([
            "--sweep", "bs-density=5e-5:5e-5:1", "--engines", "bounds",
            "--interference-limited", "--out", out,
        ])
        assert code == 1
        assert read_rows(out)[0]["outage_lower"] == "error"
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [
            "point 0 (bs-density=5e-05) bounds: MemoryError",
            "1 grid point engine(s) failed",
        ]

    @pytest.mark.parametrize("sweep, match", [
        ("bs-density=0:1e-4:2", "bs-density=0: bs_density must be positive"),
        ("tx-power=-1:1:2", "tx-power=-1: tx_power and noise_power"),
        ("target-variance=0:0.5:2", "target-variance=0: target_variance"),
        ("target-variance=0.5:1:2", "target-variance=1: target_variance"),
        ("num-fas=nan:nan:1", "start and stop must be finite"),
        ("ports-per-fa=inf:inf:1", "start and stop must be finite"),
        ("tx-power=1:inf:2", "start and stop must be finite"),
    ])
    def test_grid_value_off_its_domain_fails_before_any_point(
        self, tmp_path, caplog, monkeypatch, sweep, match
    ):
        points = []
        monkeypatch.setattr(
            "fluidcell.cli._compute_point",
            lambda *args: points.append(args),
        )
        out = tmp_path / "rows.csv"
        code = main([
            "--sweep", sweep, "--engines", "analytic", "--out", str(out),
        ])
        assert code == 2
        assert not points
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert match in errors[0]

    def test_stdout_output(self, capsys):
        code = main([
            "--sweep", "target-variance=0.5:0.5:1",
            "--engines", "analytic",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_preset_and_sweep_conflict(self):
        assert main(["--preset", "fig3", "--sweep", "tx-power=1:2:2"]) == 2

    def test_unknown_sweep_key(self):
        assert main(["--sweep", "power=1:2:2"]) == 2

    def test_bounds_engine_needs_flag(self):
        assert main([
            "--sweep", "tx-power=1:2:2", "--engines", "bounds",
        ]) == 2

    def test_missing_action_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_printed_forms_flag_is_gone(self):
        with pytest.raises(SystemExit) as err:
            main(["--compat-printed-forms", "--preset", "fig7"])
        assert err.value.code == 2

    def test_channel_variance_enters_through_the_snr_only(self, tmp_path):
        # sigma^2 = 2 at half the power has the stock transmit SNR, and
        # every variance is in units of sigma^2, so the cells match the
        # stock config's, with default and with explicit pilots
        args = ["--sweep", "bs-density=5e-5:1e-4:2", "--trials", "512",
                "--engines", "analytic,bounds,monte-carlo",
                "--interference-limited", "--seed", "3"]
        for pilots in ("", "faithful_pilots = 1\n"):
            cells = []
            for text in (pilots,
                         pilots + "channel_variance = 2\ntx_power = 0.5\n"):
                out = str(tmp_path / "rows.csv")
                config = ["--config", write_config(tmp_path, text)]
                assert main(config + args + ["--out", out]) == 0
                cells.append(
                    [{**row, "wall_ms": ""} for row in read_rows(out)])
            assert cells[0] == cells[1]
            assert all(v for k, v in cells[0][0].items() if k != "wall_ms")

    def test_trials_and_seed_overrides(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        args = [
            "--config", cfg,
            "--sweep", "tx-power=1.0:1.0:1",
            "--engines", "monte-carlo",
            "--trials", "512",
        ]
        assert main(args + ["--seed", "7", "--out", out_a]) == 0
        assert main(args + ["--seed", "8", "--out", out_b]) == 0
        row_a = read_rows(out_a)[0]
        row_b = read_rows(out_b)[0]
        assert row_a["outage_mc"] != row_b["outage_mc"]
        # 512 trials: the stderr implies the overridden count
        p = float(row_a["outage_mc"])
        np.testing.assert_allclose(
            float(row_a["mc_stderr"]),
            math.sqrt(p * (1.0 - p) / 512.0),
            rtol=1e-9,
        )

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--trials", "0"], "num_trials"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_bad_plan_override_is_a_config_error(
        self, tmp_path, caplog, flags, match
    ):
        out = tmp_path / "rows.csv"
        code = main([
            "--sweep", "tx-power=1.0:1.0:1", "--engines", "monte-carlo",
            "--out", str(out),
        ] + flags)
        assert code == 2
        assert not out.exists()
        assert match in caplog.text

    def test_bad_worker_count_fails_before_any_point(
        self, tmp_path, caplog, monkeypatch
    ):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        out = tmp_path / "rows.csv"
        code = main([
            "--sweep", "tx-power=1.0:2.0:2", "--engines", "analytic",
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert f"{WORKERS_ENV} must be an integer, got 'abc'" in caplog.text

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
    def test_unreadable_config_exits_2_before_any_point(
        self, tmp_path, caplog, capsys, monkeypatch, kind
    ):
        # once a traceback and exit 1
        points = _skip_points(monkeypatch)
        config = tmp_path / "run.cfg"
        if kind == "directory":
            config.mkdir()
        elif kind == "not-utf-8":
            config.write_bytes(b"num_fas = 2 # \xff\n")
        out = tmp_path / "rows.csv"
        out.write_bytes(b"earlier rows\n")
        code = main([
            "--config", str(config), "--preset", "fig7", "--out", str(out),
        ])
        assert code == 2
        assert not points
        assert out.read_bytes() == b"earlier rows\n"
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith(f"{config}: cannot read the config")
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["2", "7", "-1"])
    def test_faithful_pilots_off_zero_or_one_exits_2_before_any_point(
        self, tmp_path, caplog, capsys, monkeypatch, value
    ):
        # once ran explicit pilots with exit 0, logging faithful_pilots=1
        points = _skip_points(monkeypatch)
        out = tmp_path / "rows.csv"
        code = main([
            "--config", write_config(tmp_path, f"faithful_pilots = {value}\n"),
            "--sweep", "bs-density=5e-5:1e-4:2", "--engines", "monte-carlo",
            "--out", str(out),
        ])
        assert code == 2
        assert not points
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [f"faithful_pilots must be 0 or 1, got {value}"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2_before_any_point(
        self, tmp_path, caplog, capsys, monkeypatch, where
    ):
        # once found only after the whole sweep, with a traceback
        points = _skip_points(monkeypatch)
        out = (tmp_path / "missing" / "rows.csv"
               if where == "missing-directory" else tmp_path)
        code = main(["--preset", "fig7", "--out", str(out)])
        assert code == 2
        assert not points
        assert not (tmp_path / "missing").exists()
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith(f"--out {out}: ")
        assert "Traceback" not in capsys.readouterr().err

    def test_existing_out_keeps_its_bytes_on_a_config_error(
        self, tmp_path, monkeypatch
    ):
        # the writability check opens it before the memory guard refuses
        points = _skip_points(monkeypatch)
        out = tmp_path / "rows.csv"
        out.write_bytes(b"earlier rows\n")
        code = main([
            "--config", write_config(tmp_path, "chunk_size = 1000000000\n"),
            "--trials", "1000000000",
            "--sweep", "tx-power=1.0:2.0:2", "--engines", "monte-carlo",
            "--out", str(out),
        ])
        assert code == 2
        assert not points
        assert out.read_bytes() == b"earlier rows\n"


class TestWorkerCount:
    def test_environment_then_core_count(self, monkeypatch):
        assert _worker_count() == (os.cpu_count() or 1)
        monkeypatch.setenv(WORKERS_ENV, " 3 ")
        assert _worker_count() == 3
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert _worker_count() == 1

    def test_non_integer_environment_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(ConfigError, match=f"{WORKERS_ENV}.*'abc'"):
            _worker_count()


# =====================================================================
# memory guard
# =====================================================================

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "perfbench", "configs")


def _skip_points(monkeypatch):
    """List of the grid points ``run_sweep`` would have computed."""
    points = []

    def record(index, value, *rest):
        points.append(value)
        return {column: "" for column in CSV_COLUMNS}, []

    monkeypatch.setattr("fluidcell.cli._compute_point", record)
    return points


_MONTE_CARLO_SWEEP = [
    "--trials", "1000000000",
    "--sweep", "tx-power=1.0:2.0:2", "--engines", "monte-carlo",
]


class TestMemoryGuard:
    @pytest.mark.parametrize("config, run", [
        pytest.param("chunk_size = 1000000000\n", _MONTE_CARLO_SWEEP,
                     id="chunk_size = 1000000000\n"),
        pytest.param("ports_per_fa = 1000000000\n", _MONTE_CARLO_SWEEP,
                     id="ports_per_fa = 1000000000\n"),
        # once built its port sets as Python tuples and lists, several
        # GB, before any estimate of them
        pytest.param("ports_per_fa = 100000000\nskipped_ports = 0\n", [
            "--sweep", "bs-density=5e-5:5e-5:1", "--engines", "bounds",
            "--interference-limited",
        ], id="bounds"),
    ])
    def test_huge_chunk_fails_before_any_point(
        self, tmp_path, caplog, monkeypatch, config, run
    ):
        points = _skip_points(monkeypatch)
        out = tmp_path / "rows.csv"
        code = main([
            "--config", write_config(tmp_path, config), *run,
            "--out", str(out),
        ])
        assert code == 2
        assert not points
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "MiB budget" in errors[0]

    def test_analytic_sweep_ignores_monte_carlo_chunks(self, tmp_path):
        # the chunk this plan would need is refused above; the analytic
        # engine never allocates one
        out = tmp_path / "rows.csv"
        code = main([
            "--config", write_config(tmp_path, "chunk_size = 1000000000\n"),
            "--trials", "1000000000",
            "--sweep", "tx-power=1.0:2.0:2", "--engines", "analytic",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert all(row["outage_analytic_common"] not in ("", "error")
                   for row in rows)

    @pytest.mark.parametrize("engines", ["analytic", "analytic,bounds"])
    def test_huge_port_count_fails_analytic_before_any_point(
        self, tmp_path, caplog, monkeypatch, engines
    ):
        points = _skip_points(monkeypatch)
        out = tmp_path / "rows.csv"
        code = main([
            "--config", write_config(tmp_path, "ports_per_fa = 100000\n"),
            "--sweep", "tx-power=1.0:2.0:2", "--engines", engines,
            "--interference-limited", "--out", str(out),
        ])
        assert code == 2
        assert not points
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert errors[0].startswith("analytic outage arrays would need")
        assert "MiB budget" in errors[0]

    def test_huge_port_count_exits_2_under_an_address_space_limit(
        self, tmp_path
    ):
        # a billion ports: the estimate is arithmetic, nothing is built
        cfg = write_config(tmp_path, "ports_per_fa = 1000000000\n")
        errors = _main_under_address_limit([
            "--config", cfg, "--sweep", "tx-power=1.0:1.0:1",
            "--engines", "analytic", "--out", str(tmp_path / "rows.csv"),
        ])
        assert len(errors) == 1 and "analytic outage arrays" in errors[0]
        assert not (tmp_path / "rows.csv").exists()

    def test_every_grid_value_counts(self, monkeypatch):
        points = _skip_points(monkeypatch)
        base = default_config()
        spec = SweepSpec(parameter="ports-per-fa", grid=(5.0, 10**9),
                         engines=("monte-carlo",))
        monkeypatch.setenv(WORKERS_ENV, "1")
        with pytest.raises(ConfigError, match="MiB budget"):
            run_sweep(spec, base)
        assert not points

    def test_a_base_value_the_grid_replaces_does_not_count(
        self, monkeypatch
    ):
        # no grid point runs the base itself, so only the grid values count
        points = _skip_points(monkeypatch)
        base = default_config()
        base = replace(base, array=replace(base.array, num_fas=10**7))
        run_sweep(SweepSpec(parameter="num-fas", grid=(1.0, 2.0),
                            engines=("monte-carlo",)), base)
        assert points == [1.0, 2.0]

    def test_sweep_over_an_oversized_base_port_count_runs(self, tmp_path):
        # once exit 2 with "about 1875040 MiB"; every point has 2-5 ports
        out = tmp_path / "rows.csv"
        code = main([
            "--config", write_config(
                tmp_path, "ports_per_fa = 10000000\nskipped_ports = 0\n"),
            "--sweep", "ports-per-fa=2:5:4", "--engines", "analytic",
            "--mode", "common-gamma", "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert [row["sweep_value"] for row in rows] == ["2", "3", "4", "5"]
        assert all(row["outage_analytic_common"] not in ("", "error")
                   for row in rows)

    def test_points_run_at_once_multiply_the_chunk(self, monkeypatch):
        points = _skip_points(monkeypatch)
        # one chunk of this plan needs a bit over half the budget
        base = default_config()
        per_chunk = chunk_bytes(base.plan, base.array)
        chunk = base.plan.chunk_size * (0.6 * _MEMORY_BUDGET) // per_chunk
        base = replace(base, plan=replace(base.plan, num_trials=int(chunk),
                                          chunk_size=int(chunk)))
        two = SweepSpec(parameter="tx-power", grid=(1.0, 2.0),
                        engines=("monte-carlo",))
        monkeypatch.setenv(WORKERS_ENV, "1")
        run_sweep(two, base)
        run_sweep(replace(two, grid=(1.0,)), base)
        monkeypatch.setenv(WORKERS_ENV, "2")
        run_sweep(replace(two, grid=(1.0,)), base)
        assert len(points) == 4
        with pytest.raises(ConfigError, match="2 grid point"):
            run_sweep(two, base)
        assert len(points) == 4

    @pytest.mark.parametrize("config", [None, "stock.cfg", "desk.cfg"])
    @pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5", "fig6",
                                        "fig7"])
    def test_presets_and_benchmark_configs_pass(
        self, monkeypatch, config, preset
    ):
        # with every grid point at once, whatever the machine's core count
        points = _skip_points(monkeypatch)
        spec = figure_preset(preset)
        monkeypatch.setenv(WORKERS_ENV, str(len(spec.grid)))
        if config is None:
            base = default_config()
        else:
            base = load_config(os.path.join(CONFIG_DIR, config))
        run_sweep(spec, base)
        assert len(points) == len(spec.grid)

    def test_guard_holds_under_an_address_space_limit(self, tmp_path):
        # without the guard the child would ask for gigabytes and fail
        # with MemoryError here, not exhaust the machine
        cfg = write_config(tmp_path, "chunk_size = 1000000000\n")
        errors = _main_under_address_limit([
            "--config", cfg, "--trials", "1000000000",
            "--sweep", "tx-power=1.0:1.0:1", "--engines", "monte-carlo",
            "--out", str(tmp_path / "rows.csv"),
        ])
        assert len(errors) == 1 and "MiB budget" in errors[0]

    def test_huge_step_count_exits_2_under_an_address_space_limit(
        self, tmp_path
    ):
        # a billion steps once went to np.linspace, over 8 GB, before
        # any check; never run this without the limit
        errors = _main_under_address_limit([
            "--sweep", "tx-power=1:2:1000000000", "--engines", "analytic",
            "--out", str(tmp_path / "rows.csv"),
        ])
        assert len(errors) == 1 and "at most" in errors[0]
        assert not (tmp_path / "rows.csv").exists()


def _main_under_address_limit(argv):
    """ERROR lines of ``main(argv)`` run in a child limited to 2 GiB of
    address space; asserts the child exited 2 without a MemoryError."""
    script = (
        "import resource, sys\n"
        "limit = 2 * 2**30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from fluidcell.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(fluidcell.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop(WORKERS_ENV, None)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert "MemoryError" not in done.stderr
    return [line for line in done.stderr.splitlines()
            if line.startswith("ERROR")]
