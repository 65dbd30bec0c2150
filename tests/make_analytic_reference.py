"""Fill in the golden CSVs of the analytic, bounds and Monte Carlo engines.

Each run in ``RUNS`` goes through ``cli.main`` as the command line would
run it, and its rows, minus ``wall_ms``, are written to
``tests/reference/<name>.csv``. A refactor of the analytic path or of
the simulator must leave every cell of these files as it is, so only a
change that is meant to move an estimate regenerates them. The two
Monte Carlo runs fix their seed, so their cells also pin numpy's
Generator streams (SFC64 bit generators seeded through SeedSequence;
float32 normals and uniforms; float64 exponentials, Gamma and Poisson
variates), which numpy does not promise to keep across versions. Run
from the repository root (a few seconds):

    PYTHONPATH=src python tests/make_analytic_reference.py

``tests/test_analytic_reference.py`` reruns every run and compares cell
by cell.
"""

import csv
import sys
from pathlib import Path

from fluidcell.cli import main

REFERENCE_DIR = Path(__file__).with_name("reference")
DESK_CONFIG = (Path(__file__).resolve().parent.parent
               / "perfbench" / "configs" / "desk.cfg")
ENGINES = ["--engines", "analytic,bounds", "--interference-limited"]
MC_ENGINE = ["--engines", "monte-carlo", "--trials", "4096", "--seed", "7"]

RUNS = {
    # stock 4 x 15 array over the fig3 transmit powers
    "analytic_fig3": ["--preset", "fig3", *ENGINES],
    # desk 2 x 5 array over a density sweep
    "analytic_desk_density": [
        "--config", str(DESK_CONFIG),
        "--sweep", "bs-density=5e-5:1e-3:3", *ENGINES,
    ],
    # stock array at 29 and 30 ports per antenna, 15 trained ports each:
    # more than the 8 terms past which numpy's sums and products regroup
    "analytic_stock_ports": [
        "--sweep", "ports-per-fa=29:30:2", *ENGINES,
    ],
    # the simulator on the desk array over a density sweep, with the
    # explicit pilot phase that desk.cfg switches on
    "mc_desk_density": [
        "--config", str(DESK_CONFIG),
        "--sweep", "bs-density=5e-5:1e-3:3", *MC_ENGINE,
    ],
    # the simulator on the stock array over transmit powers, default pilots
    "mc_stock_power": [
        "--sweep", "tx-power=0.01:100:3", *MC_ENGINE,
    ],
}


def run_rows(name, out):
    """Rows of ``RUNS[name]`` written through ``out``, minus wall_ms."""
    code = main([*RUNS[name], "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name}: the command line exited {code}")
    return read_rows(out)


def read_rows(path):
    """CSV rows of ``path`` as dicts, without a ``wall_ms`` cell."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        row.pop("wall_ms", None)
    return rows


def main_reference():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in RUNS:
        path = REFERENCE_DIR / f"{name}.csv"
        rows = run_rows(name, path)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"{path}: {len(rows)} rows", file=sys.stderr)


if __name__ == "__main__":
    main_reference()
