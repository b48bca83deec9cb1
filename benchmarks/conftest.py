"""Shared infrastructure for the experiment benchmarks (E1-E12).

Each ``bench_eN_*.py`` module reproduces one claim/figure of the paper (see
DESIGN.md §5 and EXPERIMENTS.md).  Benchmarks record their paper-style result
tables through :func:`emit`; the tables are appended to
``benchmarks/results.txt`` and replayed after the run by the
``pytest_terminal_summary`` hook (pytest's fd-level capture would otherwise
swallow mid-run prints), so ``pytest benchmarks/ --benchmark-only`` shows
every experiment table at the end of its output.

Each table also lands in ``benchmarks/tables/<experiment>.txt`` (one file
per benchmark module, so test order does not matter).  The quick-mode
(``UNISTORE_QUICK=1``) tables are committed as ``benchmarks/golden/``; CI
regenerates them and fails on any difference, so a change that moves a
simulated figure shows the move as a diff of the golden file.
"""

from __future__ import annotations

import os
import pathlib
import shutil

from repro.bench import ResultTable

HERE = pathlib.Path(__file__).parent
RESULTS_FILE = HERE / "results.txt"
TABLES_DIR = HERE / "tables"


def _experiment() -> str:
    """The running benchmark module's name without its ``bench_`` prefix."""
    test_file = os.environ["PYTEST_CURRENT_TEST"].split("::", 1)[0]
    return pathlib.Path(test_file).stem.removeprefix("bench_")


def emit(table: ResultTable) -> None:
    """Record one experiment table (shown in the terminal summary)."""
    text = table.render()
    print("\n" + text)  # visible with -s / on failure
    with RESULTS_FILE.open("a") as fh:
        fh.write(text + "\n\n")
    TABLES_DIR.mkdir(exist_ok=True)
    with (TABLES_DIR / f"{_experiment()}.txt").open("a") as fh:
        fh.write(text + "\n\n")


def pytest_sessionstart(session):
    """Start a fresh results log and table directory per run."""
    if RESULTS_FILE.exists():
        RESULTS_FILE.unlink()
    shutil.rmtree(TABLES_DIR, ignore_errors=True)


def pytest_terminal_summary(terminalreporter):
    """Replay all experiment tables after capture is released."""
    if RESULTS_FILE.exists():
        terminalreporter.write_sep("=", "experiment result tables (also in benchmarks/results.txt)")
        terminalreporter.write(RESULTS_FILE.read_text())
