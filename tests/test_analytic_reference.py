"""Golden-CSV check of the analytic and bounds engines.

Reruns the command lines of ``make_analytic_reference.py`` and compares
every cell except ``wall_ms`` with the CSVs it wrote under
``reference/``, so a refactor of the quadrature, the joint port
statistics or the outage averages that moves any printed digit fails
here.
"""

import pytest

from fluidcell.cli import WORKERS_ENV
from make_analytic_reference import REFERENCE_DIR, RUNS, read_rows, run_rows


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rows_match_the_golden_csv(name, tmp_path, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    expected = read_rows(REFERENCE_DIR / f"{name}.csv")
    got = run_rows(name, tmp_path / "rows.csv")
    assert len(got) == len(expected)
    for k, (row, want) in enumerate(zip(got, expected)):
        assert row == want, f"{name} row {k}"
