"""One benchmark workload in one process: set up, sweep, check, report.

Started by ``run.py`` with the thread pins already in the environment.
Prints report lines, then one JSON object as the last line of stdout.
With ``--setup-only`` it stops after set-up and reports only ``setup_s``.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse
import csv
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import replace

import fluidcell.cli
import fluidcell.mc
import fluidcell.outage
from fluidcell import QuadratureSpec

import model
import refsim

HERE = os.path.dirname(os.path.abspath(__file__))
STOCK_CONFIG = os.path.join(HERE, "configs", "stock.cfg")
DESK_CONFIG = os.path.join(HERE, "configs", "desk.cfg")
REFERENCE_MC = os.path.join(HERE, "reference", "mc_stock.json")

# the fixed CSV contract of the command line tool
CSV_COLUMNS = [
    "sweep_value", "outage_analytic_common", "outage_analytic_perport",
    "outage_lower", "outage_upper", "outage_mc", "mc_stderr", "wall_ms",
]
# loose tolerances keep the analytic warm-up call small
WARMUP_SPEC = QuadratureSpec(absolute_tolerance=1e-4, relative_tolerance=1e-3)


def dbm_to_watts(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def quadrature_tolerance(num_fas, spec=QuadratureSpec()):
    """Largest gap the program's quadrature settings allow.

    One antenna's outage nests three quadratures (port magnitudes,
    interference, distance); each may be off by its tolerance, at most
    absolute + relative for a probability, and the weights of the outer
    two integrate to one. Raising to the antenna count multiplies an
    error by at most that count. The truncated exp(-t) tail adds
    exp(-truncation_radius).
    """
    per_level = spec.absolute_tolerance + spec.relative_tolerance
    return num_fas * (3.0 * per_level
                      + math.exp(-spec.truncation_radius))


def cell(row, column):
    """A CSV cell as a probability, or None when empty, error or bad."""
    try:
        value = float(row[column])
    except (KeyError, ValueError):
        return None
    return value if 0.0 <= value <= 1.0 else None


def binomial_stderr_ok(p, stderr, trials):
    expected = math.sqrt(p * (1.0 - p) / trials)
    return math.isclose(stderr, expected, rel_tol=1e-9, abs_tol=1e-12)


class Workload:
    """Set-up, one round of the sweep, and the checks of its outputs."""

    name = ""
    required = ()

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.csv_path = os.path.join(out_dir, "rows.csv")
        self.report = []

    def collect(self, result):
        """A round's outputs, read after its timed interval."""
        return {"rows": result}

    def ops(self):
        """Labels of the operations of one round."""
        raise NotImplementedError

    def check(self, out):
        """Failure messages by operation label for one round's outputs."""
        raise NotImplementedError

    def oracle(self, out):
        """Failure messages of the independent checks, by label."""
        return {}

    def warm_network(self, base, engines):
        budget = base.budget()
        target = base.target(budget)
        if "analytic" in engines:
            fluidcell.outage.outage_probability(
                base.array, base.network, budget, target, spec=WARMUP_SPEC)
        if "bounds" in engines:
            # any valid common correlation runs the same code
            fluidcell.outage.averaged_outage_bounds(
                0.5, base.array, base.network, budget, target,
                spec=WARMUP_SPEC)
        if "monte-carlo" in engines:
            plan = replace(base.plan, num_trials=64, chunk_size=64)
            fluidcell.mc.estimate_outage(
                plan, base.array, base.network, budget, target, workers=1)

    def quadrature_check(self, config, key, value, label, row):
        """Failures of the scipy-only common-gamma outage at one point."""
        import oracle  # scipy.integrate stays out of the set-up time

        values = model.read_config(config)
        values[key] = value
        started = time.perf_counter()
        expected = oracle.network_outage(values)
        got = cell(row, "outage_analytic_common")
        if got is None:
            return ["no common-gamma value to compare"]
        tol = quadrature_tolerance(values["num_fas"])
        self.report.append(
            f"oracle common-gamma at {label}: program {got!r}, scipy "
            f"{expected!r}, gap {abs(got - expected):.3g} (tolerance "
            f"{tol:.3g}, {time.perf_counter() - started:.1f} s)")
        if not abs(got - expected) <= tol:
            return ["independent quadrature disagrees"]
        return []


class AnalyticStock(Workload):
    name = "analytic-stock"
    required = (
        "numerics.marcum_q1", "numerics.integrate_finite",
        "channel.joint_magnitude_cdf", "channel.correlation_profile",
        "field.gamma_interference_model", "outage.outage_thresholds",
        "outage.outage_probability.common", "outage.outage_probability.perport",
        "cli.run_sweep", "cli.write_rows", "cli.load_config",
    )
    # fig3 powers; per-port-gamma costs about nine common-gamma points,
    # so it runs at one of them only
    COMMON_DBM = (28, 40)
    PERPORT_DBM = (40,)

    def setup(self):
        base = fluidcell.cli.load_config(STOCK_CONFIG)
        self.warm_network(base, ("analytic",))

    def _spec(self, dbms):
        return fluidcell.cli.SweepSpec(
            parameter="tx-power",
            grid=tuple(dbm_to_watts(d) for d in dbms),
            engines=("analytic",),
        )

    def round(self):
        cli = fluidcell.cli
        base = cli.load_config(STOCK_CONFIG)
        common, _ = cli.run_sweep(self._spec(self.COMMON_DBM), base,
                                  mode="common-gamma")
        perport, _ = cli.run_sweep(self._spec(self.PERPORT_DBM), base,
                                   mode="per-port-gamma")
        cli.write_rows(common + perport, self.csv_path)
        return common + perport

    def ops(self):
        return ([("common", d) for d in self.COMMON_DBM]
                + [("perport", d) for d in self.PERPORT_DBM])

    def check(self, out):
        rows = out["rows"]
        failures = {}
        common = rows[:len(self.COMMON_DBM)]
        perport = rows[len(self.COMMON_DBM):]
        values = []
        for dbm, row in zip(self.COMMON_DBM, common):
            value = cell(row, "outage_analytic_common")
            values.append(value)
            if value is None:
                failures[("common", dbm)] = [
                    f"common-gamma at {dbm} dBm: {row!r}"]
        for dbm, row in zip(self.PERPORT_DBM, perport):
            if cell(row, "outage_analytic_perport") is None:
                failures[("perport", dbm)] = [
                    f"per-port-gamma at {dbm} dBm: {row!r}"]
        # more transmit power lowers noise and estimation error alike
        for k in range(1, len(values)):
            if None not in values[k - 1:k + 1] and values[k] > values[k - 1]:
                failures.setdefault(("common", self.COMMON_DBM[k]), []).append(
                    f"outage rose from {values[k - 1]} to {values[k]}")
        return failures

    def oracle(self, out):
        index = self.seed % len(self.COMMON_DBM)
        dbm = self.COMMON_DBM[index]
        problems = self.quadrature_check(
            STOCK_CONFIG, "tx_power", dbm_to_watts(dbm), f"{dbm} dBm",
            out["rows"][index])
        return {("common", dbm): problems} if problems else {}


class McStock(Workload):
    name = "mc-stock"
    required = ("mc.estimate_outage", "mc.sample_serving_distance",
                "cli.run_sweep", "cli.write_rows", "cli.load_config")
    DENSITIES = refsim.DENSITIES

    def _base(self):
        base = fluidcell.cli.load_config(STOCK_CONFIG)
        return replace(base, plan=replace(base.plan, seed=self.seed))

    def setup(self):
        self.warm_network(self._base(), ("monte-carlo",))
        with open(REFERENCE_MC, encoding="utf-8") as handle:
            self.reference = json.load(handle)["points"]

    def round(self):
        cli = fluidcell.cli
        base = self._base()
        self.trials = base.plan.num_trials
        spec = cli.SweepSpec(parameter="bs-density", grid=self.DENSITIES,
                             engines=("monte-carlo",))
        rows, _ = cli.run_sweep(spec, base)
        cli.write_rows(rows, self.csv_path)
        return rows

    def ops(self):
        return [("mc", d) for d in self.DENSITIES]

    def check(self, out):
        failures = {}
        for density, row in zip(self.DENSITIES, out["rows"]):
            p = cell(row, "outage_mc")
            se = cell(row, "mc_stderr")
            if p is None or se is None:
                failures[("mc", density)] = [f"bad Monte Carlo cells {row!r}"]
            elif not binomial_stderr_ok(p, se, self.trials):
                failures[("mc", density)] = [
                    f"stderr {se} is not sqrt(p(1-p)/n)"]
        return failures

    def oracle(self, out):
        failures = {}
        for density, row in zip(self.DENSITIES, out["rows"]):
            p = cell(row, "outage_mc")
            se = cell(row, "mc_stderr")
            if p is None or se is None:
                continue
            ref = next(r for r in self.reference
                       if math.isclose(r["bs_density"], density,
                                       rel_tol=1e-9))
            limit = 4.0 * math.hypot(se, ref["stderr"])
            gap = abs(p - ref["outage"])
            self.report.append(
                f"bs_density {density:.6g}: monte carlo {p:.5f} (se "
                f"{se:.5f}), reference {ref['outage']:.5f} (se "
                f"{ref['stderr']:.5f}), gap {gap:.5f}, limit {limit:.5f}")
            if not gap <= limit:
                failures[("mc", density)] = [
                    f"outage {p} vs reference {ref['outage']} differs by "
                    f"more than four combined standard errors"]
        return failures


class CrosscheckDesk(Workload):
    name = "crosscheck-desk"
    required = (
        "numerics.marcum_q1", "numerics.integrate_finite",
        "channel.joint_magnitude_cdf", "channel.correlation_profile",
        "field.gamma_interference_model", "outage.outage_thresholds",
        "outage.outage_probability.common", "outage.outage_probability.perport",
        "outage.averaged_outage_bounds", "mc.estimate_outage",
        "mc.sample_serving_distance", "cli.run_sweep", "cli.write_rows",
        "cli.load_config",
    )
    # the stock density first: the analytic-vs-simulation contract of
    # the test suite (criterion 07) holds there
    DENSITIES = (5e-5, 1e-4)
    SWEEP = "bs-density=5e-5:1e-4:2"
    ENGINES = ("common", "perport", "bounds", "mc")
    CONTRACT_GAP = 0.05

    def setup(self):
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)  # a failed round must not read old rows
        base = fluidcell.cli.load_config(DESK_CONFIG)
        self.trials = base.plan.num_trials
        self.warm_network(base, ("analytic", "bounds", "monte-carlo"))

    def round(self):
        return fluidcell.cli.main([
            "--config", DESK_CONFIG,
            "--sweep", self.SWEEP,
            "--engines", "analytic,bounds,monte-carlo",
            "--mode", "both",
            "--interference-limited",
            "--seed", str(self.seed),
            "--out", self.csv_path,
        ])

    def collect(self, code):
        with open(self.csv_path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header = list(reader.fieldnames or [])
            rows = list(reader)
        return {"code": code, "header": header, "rows": rows}

    def ops(self):
        return [(e, d) for d in self.DENSITIES for e in self.ENGINES]

    def check(self, out):
        everything = {}
        if out["code"] != 0:
            everything = {op: [f"exit code {out['code']}"] for op in self.ops()}
        elif out["header"] != CSV_COLUMNS:
            everything = {op: [f"columns {out['header']}"] for op in self.ops()}
        elif len(out["rows"]) != len(self.DENSITIES):
            everything = {op: ["row count"] for op in self.ops()}
        if everything:
            return everything

        failures = {}
        columns = {"common": ("outage_analytic_common",),
                   "perport": ("outage_analytic_perport",),
                   "bounds": ("outage_lower", "outage_upper"),
                   "mc": ("outage_mc", "mc_stderr")}
        for density, row in zip(self.DENSITIES, out["rows"]):
            for engine, names in columns.items():
                if any(cell(row, n) is None for n in names):
                    failures[(engine, density)] = [
                        f"{engine} cells {[row[n] for n in names]}"]
            if ("bounds", density) not in failures and (
                    cell(row, "outage_lower") > cell(row, "outage_upper")):
                failures[("bounds", density)] = ["lower bound above upper"]
            if ("mc", density) not in failures and not binomial_stderr_ok(
                    cell(row, "outage_mc"), cell(row, "mc_stderr"),
                    self.trials):
                failures[("mc", density)] = ["stderr is not sqrt(p(1-p)/n)"]
            if (("common", density) not in failures
                    and ("mc", density) not in failures
                    and density == self.DENSITIES[0]):
                gap = abs(cell(row, "outage_analytic_common")
                          - cell(row, "outage_mc"))
                if gap > self.CONTRACT_GAP:
                    failures[("common", density)] = [
                        f"analytic-vs-simulation gap {gap:.4f} at the "
                        f"stock density exceeds {self.CONTRACT_GAP}"]
        return failures

    def oracle(self, out):
        rows = out["rows"]
        if len(rows) != len(self.DENSITIES):
            return {}  # check() already fails every operation
        for density, row in zip(self.DENSITIES, rows):
            common = cell(row, "outage_analytic_common")
            mc = cell(row, "outage_mc")
            if common is not None and mc is not None:
                self.report.append(
                    f"bs_density {density:g}: analytic {common:.5f}, "
                    f"monte carlo {mc:.5f}, gap {abs(common - mc):.5f}")
        index = self.seed % len(self.DENSITIES)
        density = self.DENSITIES[index]
        problems = self.quadrature_check(
            DESK_CONFIG, "bs_density", density, f"bs_density {density:g}",
            rows[index])
        return {("common", density): problems} if problems else {}


WORKLOADS = {w.name: w for w in (AnalyticStock, McStock, CrosscheckDesk)}


def comparable(out):
    """A round's rows without the wall-clock column."""
    return [{k: v for k, v in row.items() if k != "wall_ms"}
            for row in out["rows"]]


def timed_round(workload):
    wall = time.perf_counter()
    cpu = time.process_time()
    result = workload.round()
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    return workload.collect(result), wall, cpu


def tally(workload, outputs):
    """(attempted, failed, messages) over all rounds."""
    ops = workload.ops()
    first = outputs[0]
    independent = workload.oracle(first)
    attempted = failed = 0
    messages = []
    for out in outputs:
        failures = workload.check(out)
        for op, problems in independent.items():
            failures.setdefault(op, []).extend(problems)
        if comparable(out) != comparable(first):
            for op in ops:
                failures.setdefault(op, []).append(
                    "rows differ between rounds of one seed")
        attempted += len(ops)
        failed += sum(1 for op in ops if op in failures)
        messages.extend(f"FAILED {op}: {p}" for op, ps in failures.items()
                        for p in ps)
    return attempted, failed, messages


def worker_scaling(seed):
    """Criterion 10 and the two-worker speed-up of one estimate_outage.

    Base: stock config, 4096 trials in four chunks of 1024, default
    pilots, the run's seed. Returns (speedup, identical).
    """
    base = fluidcell.cli.load_config(STOCK_CONFIG)
    plan = replace(base.plan, num_trials=4096, chunk_size=1024, seed=seed)
    budget = base.budget()
    target = base.target(budget)
    results = {}
    times = {}
    for workers in (1, 2):
        started = time.perf_counter()
        results[workers] = fluidcell.mc.estimate_outage(
            plan, base.array, base.network, budget, target,
            workers=workers, stream_key=(0,))
        times[workers] = time.perf_counter() - started
    return times[1] / times[2], results[1] == results[2]


def layer_metrics(summary):
    def get(name, field):
        default = 0 if field in ("calls", "quantity") else 0.0
        return summary.get(name, {}).get(field, default)

    estimate_s = get("mc.estimate_outage", "s")
    return {
        "numerics.marcum_q1.calls": get("numerics.marcum_q1", "calls"),
        "numerics.marcum_q1.evals": get("numerics.marcum_q1", "quantity"),
        "numerics.marcum_q1.s": get("numerics.marcum_q1", "s"),
        "numerics.integrate_finite.calls":
            get("numerics.integrate_finite", "calls"),
        "numerics.integrate_finite.self_s":
            get("numerics.integrate_finite", "self_s"),
        "channel.joint_magnitude_cdf.calls":
            get("channel.joint_magnitude_cdf", "calls"),
        "channel.joint_magnitude_cdf.self_s":
            get("channel.joint_magnitude_cdf", "self_s"),
        "channel.correlation_profile.calls":
            get("channel.correlation_profile", "calls"),
        "field.gamma_interference_model.calls":
            get("field.gamma_interference_model", "calls"),
        "outage.outage_probability.common.s":
            get("outage.outage_probability.common", "s"),
        "outage.outage_probability.perport.s":
            get("outage.outage_probability.perport", "s"),
        "outage.outage_probability.self_s":
            get("outage.outage_probability.common", "self_s")
            + get("outage.outage_probability.perport", "self_s"),
        "outage.outage_thresholds.calls":
            get("outage.outage_thresholds", "calls"),
        "outage.averaged_outage_bounds.s":
            get("outage.averaged_outage_bounds", "s"),
        "mc.estimate_outage.s": estimate_s,
        "mc.trials_per_s": (get("mc.estimate_outage", "quantity") / estimate_s
                            if estimate_s else 0.0),
        "mc.chunks": get("mc.sample_serving_distance", "calls"),
        "cli.run_sweep.self_s": get("cli.run_sweep", "self_s"),
        "cli.write_rows.s": get("cli.write_rows", "s"),
        "cli.load_config.s": get("cli.load_config", "s"),
    }


def measure(workload, seconds):
    """Rounds until the next would end past ``seconds``; at least one."""
    outputs, walls, cpus = [], [], []
    started = time.perf_counter()
    while True:
        out, wall, cpu = timed_round(workload)
        outputs.append(out)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - started + wall > seconds:
            break
    metrics = {"sweep_s": statistics.median(walls),
               "cpu_s": statistics.median(cpus)}
    return outputs, walls, metrics


def trace(workload, seed, out_dir):
    """One untraced and one traced round, then the two-worker check."""
    from tracer import Tracer, TraceError

    out, wall, _ = timed_round(workload)
    outputs = [out]
    tracer = Tracer()
    tracer.install(sys.modules)
    try:
        out, traced_wall, _ = timed_round(workload)
    finally:
        tracer.remove()
    outputs.append(out)
    summary = tracer.summary()
    missing = [n for n in workload.required
               if summary.get(n, {}).get("calls", 0) == 0]
    if missing:
        raise TraceError(f"required functions never called: {missing}")
    speedup, identical = worker_scaling(seed)
    if not identical:
        raise TraceError("Monte Carlo estimate changed with two workers")
    metrics = layer_metrics(summary)
    metrics["mc.workers2.speedup"] = speedup
    metrics["trace.overhead_s"] = traced_wall - wall
    with open(os.path.join(out_dir, "spans.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"columns": ["name", "start", "end", "parent", "quantity"],
                   "spans": tracer.spans}, handle)
    return outputs, [wall, traced_wall], metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        outputs, walls, metrics = trace(workload, args.seed, args.out_dir)
    else:
        outputs, walls, metrics = measure(workload, args.seconds)
    attempted, failed, messages = tally(workload, outputs)
    if not args.trace:
        metrics["setup_s"] = setup_s
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    for line in workload.report + messages:
        print(line)
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "rounds_s": walls, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
