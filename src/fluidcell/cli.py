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
instead: exit code 2 before any point runs, as is a grid of more than
1000 values, a ``--config`` that cannot be read as UTF-8 text, an
``--out`` that cannot be opened for writing (an existing one is left
as it was), or a sweep whose Monte Carlo chunks or analytic outage
arrays, over the grid points run at once, would need more than a fixed
memory budget. For ``target-variance`` sweeps the analytic column
carries the minimum skip count that meets the target error variance at
the typical serving distance 1/sqrt(pi*density) (evaluated at the
first port), not an outage.
"""

from __future__ import annotations

import argparse
import csv
import functools
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import autocorrelation, min_skipped_ports
from .field import NetworkConfig
from .geometry import (
    FaArrayConfig,
    FluidParams,
    build_frame_budget,
    trained_port_count,
    trained_port_indices,
)
from .mc import TrialPlan, chunk_bytes, estimate_outage
from .outage import (
    averaged_outage_bounds,
    outage_averages,
    outage_bytes,
    outage_probability,
    sinr_threshold,
)

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

# grid points a sweep runs at once; unset means the machine's core count
WORKERS_ENV = "FLUIDCELL_WORKERS"

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
# figure -> its sweep; the engines default to analytic and Monte Carlo
_PRESETS = {
    # transmit power 0..60 dBm in 4 dB steps, applied in watts
    "fig3": dict(parameter="tx-power", grid=tuple(
        10.0 ** ((dbm - 30.0) / 10.0) for dbm in range(0, 61, 4))),
    "fig4": dict(parameter="num-fas", grid=range(1, 8)),
    "fig5": dict(parameter="ports-per-fa", grid=range(2, 31)),
    "fig6": dict(parameter="bs-density", grid=np.logspace(-6.0, -3.0, 13)),
    "fig7": dict(parameter="target-variance",
                 grid=np.linspace(0.1, 0.9, 17), engines=("analytic",)),
}
PRESETS = tuple(_PRESETS)
# longest grid a sweep may ask for; every preset has at most 29 points
_MAX_GRID_POINTS = 1000

# ceiling on the engine memory of the grid points a sweep runs at once;
# every preset needs at most ~1.3 GB even with all its points running
# together
_MEMORY_BUDGET = 2 * 2**30
# peak bytes of the bounds engine per trained port: the index, gap, Bessel
# argument and correlation arrays of its common correlation (33 traced at
# 10^5-10^6 trained ports, plus half again as margin)
_BOUNDS_BYTES_PER_PORT = 50

# stock values; every key can be overridden in the config file. The
# network, array and fluid values are their dataclasses' field defaults.
_DEFAULTS = {
    **{f.name: f.default
       for cls in (NetworkConfig, FaArrayConfig, FluidParams)
       for f in fields(cls)},
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
    target_variance: float       # error-variance goal, a share of sigma^2
    plan: TrialPlan

    def __post_init__(self):
        if not 0.0 < self.coherence_bandwidth < math.inf:
            raise ValueError("coherence_bandwidth must be positive and finite")
        if not 0.0 < self.coherence_time < math.inf:
            raise ValueError("coherence_time must be positive and finite")
        if not 0.0 < self.estimation_fraction < 1.0:
            raise ValueError("estimation_fraction must lie strictly in (0, 1)")
        if not 0.0 <= self.rate < math.inf:
            raise ValueError("rate must be nonnegative and finite")
        if not 0.0 < self.target_variance < 1.0:
            raise ValueError("target_variance must lie strictly in (0, 1)")

    def budget(self):
        return build_frame_budget(
            self.array,
            self.fluid,
            self.coherence_bandwidth,
            self.coherence_time,
            self.estimation_fraction,
        )

    def target(self, budget):
        return sinr_threshold(self.rate, budget)

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
        if not all(map(math.isfinite, grid)):
            raise ConfigError("sweep grid values must be finite")
        if len(grid) > _MAX_GRID_POINTS:
            raise ConfigError(
                f"sweep grid has {len(grid)} points, more than the "
                f"{_MAX_GRID_POINTS} allowed"
            )
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
    if values["faithful_pilots"] not in (0, 1):
        raise ConfigError("faithful_pilots must be 0 or 1, got "
                          f"{values['faithful_pilots']}")
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
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
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
    """Mean |correlation| of the trained ports after the first with it."""
    tail = np.abs(autocorrelation(trained_port_indices(array)[1:], array))
    return float(np.mean(tail)) if len(tail) else 0.0


def _format(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.12g}"


def _compute_point(index, value, cfg, spec, mode):
    """One grid point at ``cfg``: returns (row dict, failure strings)."""
    row = {column: "" for column in CSV_COLUMNS}
    row["sweep_value"] = _format(value)
    failures = []
    started = time.perf_counter()

    def fail(engine, columns, exc):
        for column in columns:
            row[column] = "error"
        failures.append(
            f"point {index} ({spec.parameter}={_format(value)}) "
            f"{engine}: {str(exc) or type(exc).__name__}"
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
        budget = cfg.budget()
        target = (None if spec.parameter == "target-variance"
                  else cfg.target(budget))
    except Exception as exc:
        filled = {}  # the cells the point would fill, by engine
        _run_engines(lambda e, c, _: filled.setdefault(e, []).extend(c),
                     index, spec, cfg, None, None, mode)
        for engine in spec.engines:
            fail(engine, filled[engine], exc)
    else:
        _run_engines(run, index, spec, cfg, budget, target, mode)
    row["wall_ms"] = f"{(time.perf_counter() - started) * 1e3:.3f}"
    return row, failures


def _run_engines(run, index, spec, cfg, budget, target, mode):
    """Fill one point's cells through ``run(engine, columns, compute)``;
    only ``run`` calls ``compute``, so it may just collect the columns."""
    if spec.parameter == "target-variance":
        # design-rule sweep: the analytic column carries the minimum
        # skip count at the typical serving distance, nothing else
        run("analytic", ("outage_analytic_common",), lambda: [
            min_skipped_ports(
                cfg.target_variance,
                1.0 / math.sqrt(math.pi * cfg.network.bs_density),
                cfg.array,
                cfg.fluid,
                cfg.network,
                cfg.coherence_bandwidth,
                cfg.coherence_time,
                cfg.estimation_fraction,
            )
        ])
        return

    if "analytic" in spec.engines:
        @functools.cache
        def shared():  # --mode both: one per-port batch; common is row 0
            with suppress(Exception):  # on failure each mode runs alone
                return outage_averages(cfg.array, cfg.network, budget,
                                       target, mode="per-port-gamma")

        for name, column in zip(_ANALYTIC_MODES, _ENGINE_COLUMNS["analytic"]):
            if mode in ("both", name):
                run("analytic", (column,), lambda: [outage_probability(
                    cfg.array, cfg.network, budget, target, mode=name,
                    averages=shared() if mode == "both" else None,
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
                stream_key=(index,),
            ))


def _check_memory(configs, engines, concurrent):
    """Refuse configs whose engines, ``concurrent`` grid points at once,
    would pass the memory budget.

    A point runs its engines one after another, so each estimate is held
    against the budget on its own: Monte Carlo chunks where
    ``monte-carlo`` runs, the analytic arrays where ``analytic`` does,
    and the port sets where ``bounds`` does.
    """

    def check(what, sizes, remedy):
        need = concurrent * max(sizes)
        if need > _MEMORY_BUDGET:
            raise ConfigError(
                f"{what} would need about {need / 2**20:.0f} MiB with "
                f"{concurrent} grid point(s) at once, above the "
                f"{_MEMORY_BUDGET / 2**20:.0f} MiB budget; {remedy}, "
                f"or lower {WORKERS_ENV}"
            )

    if "monte-carlo" in engines:
        check("Monte Carlo chunks",
              [chunk_bytes(c.plan, c.array) for c in configs],
              "lower chunk_size, trials or ports_per_fa")
    if "analytic" in engines:
        check("analytic outage arrays",
              [outage_bytes(c.array) for c in configs],
              "lower ports_per_fa or raise skipped_ports")
    if "bounds" in engines:
        check("bounds port sets",
              [trained_port_count(c.array) * _BOUNDS_BYTES_PER_PORT
               for c in configs],
              "lower ports_per_fa or raise skipped_ports")


def _worker_count():
    """Grid points run at once: ``FLUIDCELL_WORKERS``, else the core count.

    Values below one mean one; a value that is not an integer is a
    :class:`ConfigError`.
    """
    text = os.environ.get(WORKERS_ENV, "").strip()
    if not text:
        return os.cpu_count() or 1
    try:
        return max(1, int(text))
    except ValueError:
        raise ConfigError(
            f"{WORKERS_ENV} must be an integer, got {text!r}"
        ) from None


def run_sweep(spec, base, mode="both"):
    """Evaluate every grid point; returns (rows, failure messages).

    Raises :class:`ConfigError` before any point runs when a grid value
    lies outside its parameter's domain, or when the estimated memory of
    a requested engine (one Monte Carlo chunk, the analytic outage's
    arrays, or the bounds engine's port sets) at any grid value, times
    the number of points run at once, would pass the memory budget;
    ``base`` itself runs at no point, so a value the grid replaces is
    not checked. A frame that cannot fit at a valid value is a failure
    of that point only.

    Grid points run on a worker pool but rows come back in grid order,
    and each Monte Carlo point owns a stream keyed by its grid index,
    so the output is identical for any worker count.
    """
    if mode not in ("both",) + _ANALYTIC_MODES:
        raise ConfigError(f"unknown analytic mode {mode!r}")
    configs = []
    for value in spec.grid:
        try:
            configs.append(_apply_sweep_value(base, spec.parameter, value))
        except ValueError as exc:
            raise ConfigError(f"{spec.parameter}={value:g}: {exc}") from exc
    workers = _worker_count()
    _check_memory(configs, spec.engines,
                  min(workers, len(spec.grid)))

    def point(args):
        return _compute_point(*args, spec, mode)

    items = list(zip(range(len(configs)), spec.grid, configs))
    if workers <= 1 or len(items) == 1:
        results = [point(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(point, items))

    rows = [row for row, _ in results]
    failures = [msg for _, msgs in results for msg in msgs]
    return rows, failures


def _check_writable(path):
    """Raise :class:`ConfigError` unless ``path`` ('-' for stdout) can
    be opened for writing. An existing file keeps its bytes, and a file
    the check had to create is removed again."""
    if path == "-":
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ConfigError(f"--out {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


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
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESETS)}"
        )
    return SweepSpec(**{"engines": ("analytic", "monte-carlo"),
                        **_PRESETS[name], **overrides})


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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("--sweep start and stop must be finite")
    if steps < 1:
        raise ConfigError("--sweep needs at least one step")
    if steps > _MAX_GRID_POINTS:
        raise ConfigError(
            f"--sweep allows at most {_MAX_GRID_POINTS} steps, got {steps}"
        )
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
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        _worker_count()  # a bad FLUIDCELL_WORKERS fails before any point
        _check_writable(args.out)  # as does an --out that cannot be written

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
            "sweep %s over %d points, engines: %s, mode: %s",
            spec.parameter, len(spec.grid), ",".join(spec.engines),
            args.mode,
        )

        rows, failures = run_sweep(spec, base, mode=args.mode)
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
