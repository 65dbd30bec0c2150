"""Command line harness: config files, figure-style sweeps, CSV output.

A run resolves a flat key=value config (missing keys fall back to the
stock parameter set), applies one sweep, and writes one CSV row per
grid value with the fixed column set::

    sweep_value, outage_analytic_common, outage_analytic_perport,
    outage_lower, outage_upper, outage_mc, mc_stderr, wall_ms

Cells of engines that were not requested stay empty; a cell whose
engine raised is written as ``error`` and the process exits nonzero
after finishing the remaining grid points. A grid value outside its
parameter's domain (say a nonpositive density) is a config error
instead: exit code 2 before any point runs, as is a sweep whose Monte
Carlo chunks, over the grid points run at once, would need more than a
fixed memory budget. For ``target-variance`` sweeps the analytic
column carries the minimum skip count that meets the target error
variance at the typical serving distance 1/sqrt(pi*density) (evaluated
at the first port), not an outage.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import autocorrelation, min_skipped_ports
from .field import NetworkConfig
from .geometry import (
    FaArrayConfig,
    FluidParams,
    build_frame_budget,
    trained_port_indices,
)
from .mc import (
    WORKERS_ENV,
    TrialPlan,
    chunk_bytes,
    estimate_outage,
    worker_count,
)
from .outage import averaged_outage_bounds, outage_probability, sinr_threshold

__all__ = [
    "ConfigError",
    "SweepSpec",
    "RunConfig",
    "load_config",
    "run_sweep",
    "figure_preset",
    "main",
]

log = logging.getLogger("fluidcell")

# sweep parameter -> (RunConfig part, or None for RunConfig itself,
# field, cast of the grid value)
_SWEEP_FIELDS = {
    "tx-power": ("network", "tx_power", float),
    "num-fas": ("array", "num_fas", int),
    "ports-per-fa": ("array", "ports_per_fa", int),
    "bs-density": ("network", "bs_density", float),
    "target-variance": (None, "target_variance", float),
}
SWEEP_PARAMETERS = tuple(_SWEEP_FIELDS)
# the CSV cells of each engine; the analytic ones follow the order of
# the analytic averaging modes
_ENGINE_COLUMNS = {
    "analytic": ("outage_analytic_common", "outage_analytic_perport"),
    "bounds": ("outage_lower", "outage_upper"),
    "monte-carlo": ("outage_mc", "mc_stderr"),
}
ENGINES = tuple(_ENGINE_COLUMNS)
CSV_COLUMNS = ("sweep_value",
               *(c for columns in _ENGINE_COLUMNS.values() for c in columns),
               "wall_ms")
_ANALYTIC_MODES = ("common-gamma", "per-port-gamma")
PRESETS = ("fig3", "fig4", "fig5", "fig6", "fig7")

# ceiling on the Monte Carlo chunk memory of the grid points a sweep runs
# at once; every preset needs at most ~0.8 GB even with all its points
# running together
_MEMORY_BUDGET = 2 * 2**30

# stock values; every key can be overridden in the config file
_DEFAULTS = {
    "bs_density": 5e-5,            # BSs per m^2
    "path_loss_exponent": 4.0,
    "tx_power": 1.0,               # W (30 dBm)
    "noise_power": 1e-5,
    "channel_variance": 1.0,
    "num_fas": 4,
    "ports_per_fa": 15,
    "skipped_ports": 1,
    "aperture_wavelengths": 0.2,
    "wavelength": 0.06,            # m
    "charge": 0.07,                # V
    "viscosity": 0.002,            # Pa s
    "thickness_to_length": 0.2,
    "voltage_delta": 10.0,         # V
    "coherence_bandwidth": 1e8,    # Hz
    "coherence_time": 0.05,        # s
    "estimation_fraction": 0.16,
    "rate": 1.0,                   # bits per channel use
    "target_variance": 0.5,
    "trials": 20000,
    "seed": 1,
    "chunk_size": 2048,
    "faithful_pilots": 0,
}

_INT_KEYS = {key for key, value in _DEFAULTS.items() if isinstance(value, int)}


class ConfigError(ValueError):
    """Bad config file, sweep definition, or flag combination."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run inputs, ready to derive budgets and targets."""

    array: FaArrayConfig
    fluid: FluidParams
    network: NetworkConfig
    coherence_bandwidth: float   # Hz
    coherence_time: float        # s
    estimation_fraction: float   # share of the block spent training
    rate: float                  # bits per channel use
    target_variance: float       # error-variance goal for skip sizing
    plan: TrialPlan

    def __post_init__(self):
        if not self.coherence_bandwidth > 0.0:
            raise ValueError("coherence_bandwidth must be positive")
        if not self.coherence_time > 0.0:
            raise ValueError("coherence_time must be positive")
        if not 0.0 < self.estimation_fraction < 1.0:
            raise ValueError("estimation_fraction must lie strictly in (0, 1)")
        if not self.rate >= 0.0:
            raise ValueError("rate must be nonnegative")
        if not 0.0 < self.target_variance < self.network.channel_variance:
            raise ValueError(
                "target_variance must lie strictly between 0 and "
                "channel_variance"
            )

    def budget(self):
        return build_frame_budget(
            self.array,
            self.fluid,
            self.coherence_bandwidth,
            self.coherence_time,
            self.estimation_fraction,
        )

    def target(self, budget=None, printed_exponent=False):
        if budget is None:
            budget = self.budget()
        return sinr_threshold(self.rate, budget, printed_exponent)

    def describe(self):
        """Every config key with its resolved value, in file-key order."""
        values = {"trials": self.plan.num_trials}
        for part in (self, self.network, self.array, self.fluid, self.plan):
            values.update(vars(part))
        return " ".join(
            f"{key}={int(values[key])}" if key in _INT_KEYS
            else f"{key}={values[key]:g}"
            for key in _DEFAULTS
        )


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, its grid, and the engines to run on it."""

    parameter: str
    grid: tuple
    engines: tuple = ("analytic",)
    interference_limited: bool = False

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose one of {', '.join(SWEEP_PARAMETERS)}"
            )
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ConfigError("sweep grid must be nonempty")
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        if diffs and not (all(d > 0 for d in diffs)
                          or all(d < 0 for d in diffs)):
            raise ConfigError("sweep grid must be strictly monotone")
        if _SWEEP_FIELDS[self.parameter][2] is int:
            for v in grid:
                if v != int(v) or v < 1:
                    raise ConfigError(
                        f"{self.parameter} grid values must be positive "
                        "integers"
                    )
        engines = tuple(self.engines)
        if not engines:
            raise ConfigError("at least one engine must be requested")
        for engine in engines:
            if engine not in ENGINES:
                raise ConfigError(
                    f"unknown engine {engine!r}; "
                    f"choose from {', '.join(ENGINES)}"
                )
        if "bounds" in engines and not self.interference_limited:
            raise ConfigError(
                "the bounds engine applies only to interference-limited "
                "runs; pass --interference-limited to assert that"
            )
        if self.parameter == "target-variance":
            if engines != ("analytic",):
                raise ConfigError(
                    "target-variance sweeps support only the analytic "
                    "engine (they report a minimum skip count)"
                )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "engines", engines)


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

def _parse_value(key, text):
    try:
        if key in _INT_KEYS:
            return int(text)
        return float(text)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise ConfigError(
            f"config key {key!r}: could not parse {text!r} as {kind}"
        ) from None


def _build_run_config(values):
    values = dict(values, num_trials=values["trials"],
                  faithful_pilots=bool(values["faithful_pilots"]))

    def build(cls, **parts):
        own = {f.name: values[f.name] for f in fields(cls) if f.name in values}
        return cls(**own, **parts)

    try:
        return build(RunConfig, array=build(FaArrayConfig),
                     fluid=build(FluidParams), network=build(NetworkConfig),
                     plan=build(TrialPlan))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    """Read a flat key=value config; missing keys take stock defaults."""
    values = dict(_DEFAULTS)
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(key, text)
    return _build_run_config(values)


def default_config():
    """The stock parameter set as a ready RunConfig."""
    return _build_run_config(dict(_DEFAULTS))


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------

def _apply_sweep_value(base, parameter, value):
    part, name, cast = _SWEEP_FIELDS[parameter]
    change = {name: cast(value)}
    if part is not None:
        change = {part: replace(getattr(base, part), **change)}
    return replace(base, **change)


def _common_correlation(array):
    ports = trained_port_indices(array)
    tail = [abs(autocorrelation(p, array)) for p in ports[1:]]
    return sum(tail) / len(tail) if tail else 0.0


def _format(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.12g}"


def _compute_point(index, value, spec, base, printed_forms, mode):
    """One grid point: returns (row dict, list of failure strings)."""
    row = {column: "" for column in CSV_COLUMNS}
    row["sweep_value"] = _format(value)
    failures = []
    started = time.perf_counter()

    def fail(engine, columns, exc):
        for column in columns:
            row[column] = "error"
        failures.append(
            f"point {index} ({spec.parameter}={_format(value)}) "
            f"{engine}: {exc}"
        )

    def run(engine, columns, compute):
        # one cell per value that compute() returns, or error cells
        try:
            values = compute()
        except Exception as exc:
            fail(engine, columns, exc)
        else:
            row.update((c, f"{v:.12g}") for c, v in zip(columns, values))

    try:
        cfg = _apply_sweep_value(base, spec.parameter, value)
        budget = cfg.budget()
    except Exception as exc:
        for engine in spec.engines:
            fail(engine, _ENGINE_COLUMNS[engine], exc)
    else:
        _run_engines(run, index, spec, cfg, budget, printed_forms, mode)
    row["wall_ms"] = f"{(time.perf_counter() - started) * 1e3:.3f}"
    return row, failures


def _run_engines(run, index, spec, cfg, budget, printed_forms, mode):
    """Fill one point's cells through ``run(engine, columns, compute)``."""
    if spec.parameter == "target-variance":
        # design-rule sweep: the analytic column carries the minimum
        # skip count at the typical serving distance, nothing else
        run("analytic", ("outage_analytic_common",), lambda: [
            min_skipped_ports(
                cfg.target_variance,
                1.0 / math.sqrt(math.pi * cfg.network.bs_density),
                1,
                cfg.array,
                cfg.fluid,
                cfg.network,
                cfg.coherence_bandwidth,
                cfg.coherence_time,
                cfg.estimation_fraction,
            )
        ])
        return

    target = cfg.target(budget, printed_exponent=printed_forms)
    if "analytic" in spec.engines:
        for name, column in zip(_ANALYTIC_MODES, _ENGINE_COLUMNS["analytic"]):
            if mode in ("both", name):
                run("analytic", (column,), lambda: [outage_probability(
                    cfg.array, cfg.network, budget, target,
                    mode=name, printed_form=printed_forms,
                )])
    if "bounds" in spec.engines:
        run("bounds", _ENGINE_COLUMNS["bounds"],
            lambda: averaged_outage_bounds(
                _common_correlation(cfg.array), cfg.array, cfg.network,
                budget, target,
            ))
    if "monte-carlo" in spec.engines:
        run("monte-carlo", _ENGINE_COLUMNS["monte-carlo"],
            lambda: estimate_outage(
                cfg.plan, cfg.array, cfg.network, budget, target,
                workers=1, stream_key=(index,),
            ))


def _check_memory(configs, concurrent):
    """Refuse configs whose Monte Carlo chunks, ``concurrent`` at once,
    would pass the memory budget."""
    need = concurrent * max(chunk_bytes(c.plan, c.array) for c in configs)
    if need > _MEMORY_BUDGET:
        raise ConfigError(
            f"Monte Carlo chunks would need about {need / 2**20:.0f} MiB "
            f"with {concurrent} grid point(s) at once, above the "
            f"{_MEMORY_BUDGET / 2**20:.0f} MiB budget; lower chunk_size, "
            f"trials or ports_per_fa, or {WORKERS_ENV}"
        )


def run_sweep(spec, base, printed_forms=False, mode="both"):
    """Evaluate every grid point; returns (rows, failure messages).

    Raises :class:`ConfigError` before any point runs when a grid value
    lies outside its parameter's domain, or when one Monte Carlo chunk
    of the base config or of any grid value, times the number of points
    run at once, would pass the memory budget. A frame that cannot fit
    at a valid value is a failure of that point only.

    Grid points run on a worker pool but rows come back in grid order,
    and each Monte Carlo point owns a stream keyed by its grid index,
    so the output is identical for any worker count.
    """
    if mode not in ("both",) + _ANALYTIC_MODES:
        raise ConfigError(f"unknown analytic mode {mode!r}")
    configs = [base]
    for value in spec.grid:
        try:
            configs.append(_apply_sweep_value(base, spec.parameter, value))
        except ValueError as exc:
            raise ConfigError(f"{spec.parameter}={value:g}: {exc}") from exc
    workers = worker_count(default=os.cpu_count() or 1)
    _check_memory(configs, min(workers, len(spec.grid)))

    def point(args):
        return _compute_point(args[0], args[1], spec, base,
                              printed_forms, mode)

    items = list(enumerate(spec.grid))
    if workers <= 1 or len(items) == 1:
        results = [point(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(point, items))

    rows = [row for row, _ in results]
    failures = [msg for _, msgs in results for msg in msgs]
    return rows, failures


def write_rows(rows, path):
    """Write sweep rows as CSV to ``path`` ('-' for stdout)."""
    with (nullcontext(sys.stdout) if path == "-"
          else open(path, "w", encoding="utf-8", newline="")) as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def figure_preset(name, **overrides):
    """Sweep matching one of the stock figures; overrides win."""
    if name == "fig3":
        # transmit power 0..60 dBm in 4 dB steps, applied in watts
        grid = tuple(10.0 ** ((dbm - 30.0) / 10.0)
                     for dbm in range(0, 61, 4))
        spec = dict(parameter="tx-power", grid=grid,
                    engines=("analytic", "monte-carlo"))
    elif name == "fig4":
        spec = dict(parameter="num-fas",
                    grid=tuple(float(m) for m in range(1, 8)),
                    engines=("analytic", "monte-carlo"))
    elif name == "fig5":
        spec = dict(parameter="ports-per-fa",
                    grid=tuple(float(n) for n in range(2, 31)),
                    engines=("analytic", "monte-carlo"))
    elif name == "fig6":
        grid = tuple(float(v) for v in np.logspace(-6.0, -3.0, 13))
        spec = dict(parameter="bs-density", grid=grid,
                    engines=("analytic", "monte-carlo"))
    elif name == "fig7":
        spec = dict(parameter="target-variance",
                    grid=tuple(float(v) for v in np.linspace(0.1, 0.9, 17)),
                    engines=("analytic",))
    else:
        raise ConfigError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESETS)}"
        )
    spec.update(overrides)
    return SweepSpec(**spec)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_sweep_flag(text):
    try:
        key, _, rest = text.partition("=")
        start_text, stop_text, steps_text = rest.split(":")
        start = float(start_text)
        stop = float(stop_text)
        steps = int(steps_text)
    except ValueError:
        raise ConfigError(
            f"--sweep expects KEY=start:stop:steps, got {text!r}"
        ) from None
    if steps < 1:
        raise ConfigError("--sweep needs at least one step")
    if steps == 1:
        grid = (start,)
    else:
        grid = tuple(float(v) for v in np.linspace(start, stop, steps))
    return key.strip(), grid


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fluidcell",
        description=(
            "Outage sweeps for fluid-antenna receivers in a random "
            "cellular downlink; writes one CSV row per grid value."
        ),
    )
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
    parser.add_argument("--preset", choices=PRESETS,
                        help="stock figure sweep")
    parser.add_argument("--sweep", metavar="KEY=START:STOP:STEPS",
                        help="custom linear sweep over one parameter")
    parser.add_argument("--engines", metavar="LIST",
                        help="comma separated subset of "
                             + ",".join(ENGINES))
    parser.add_argument("--trials", type=int, metavar="N",
                        help="Monte Carlo trials per grid point")
    parser.add_argument("--seed", type=int, metavar="S",
                        help="Monte Carlo base seed")
    parser.add_argument("--out", metavar="PATH", default="-",
                        help="output CSV path (default stdout)")
    parser.add_argument("--compat-printed-forms", action="store_true",
                        help="evaluate the as-printed threshold and "
                             "conditional-outage variants")
    parser.add_argument("--mode",
                        choices=("both",) + _ANALYTIC_MODES,
                        default="both",
                        help="which analytic averaging modes to compute")
    parser.add_argument("--interference-limited", action="store_true",
                        help="assert the run is interference limited "
                             "(required by the bounds engine)")
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        base = load_config(args.config) if args.config else default_config()
        overrides = {"num_trials": args.trials, "seed": args.seed}
        overrides = {k: v for k, v in overrides.items() if v is not None}
        try:
            base = replace(base, plan=replace(base.plan, **overrides))
            worker_count()  # a bad FLUIDCELL_WORKERS fails before any point
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        engines = None
        if args.engines:
            engines = tuple(
                part.strip() for part in args.engines.split(",") if part.strip()
            )

        if args.preset and args.sweep:
            raise ConfigError("--preset and --sweep are mutually exclusive")
        if args.preset:
            overrides = {"interference_limited": args.interference_limited}
            if engines is not None:
                overrides["engines"] = engines
            spec = figure_preset(args.preset, **overrides)
        elif args.sweep:
            key, grid = _parse_sweep_flag(args.sweep)
            spec = SweepSpec(
                parameter=key,
                grid=grid,
                engines=engines if engines is not None else ("analytic",),
                interference_limited=args.interference_limited,
            )
        else:
            parser.error("one of --preset or --sweep is required")

        log.info("resolved config: %s", base.describe())
        log.info(
            "sweep %s over %d points, engines: %s, mode: %s%s",
            spec.parameter, len(spec.grid), ",".join(spec.engines),
            args.mode,
            ", printed forms" if args.compat_printed_forms else "",
        )

        rows, failures = run_sweep(
            spec, base,
            printed_forms=args.compat_printed_forms,
            mode=args.mode,
        )
    except ConfigError as exc:
        log.error("%s", exc)
        return 2

    write_rows(rows, args.out)
    for message in failures:
        log.error("%s", message)
    if failures:
        log.error("%d grid point engine(s) failed", len(failures))
        return 1
    log.info("wrote %d rows", len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
