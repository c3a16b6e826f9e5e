"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints its pass/fail line (visible with ``pytest -s`` or in the
failure report) and asserts the criterion outcome.  The same checks back
the ``torusbridge check`` command.
"""

import tracemalloc

import pytest

from torusbridge import acceptance


@pytest.mark.parametrize(
    "runner",
    acceptance.CRITERIA,
    ids=[f"criterion-{i}-{fn.__name__.removeprefix('check_')}"
         for i, fn in enumerate(acceptance.CRITERIA, start=1)],
)
def test_criterion(runner):
    result = runner()
    print(result.line())
    assert result.passed, result.line()


def test_determinism_check_prints_nothing(capsys):
    """Criterion 8's in-process CLI runs keep their own output lines out of check's."""
    assert acceptance.check_determinism().passed
    assert capsys.readouterr().out == ""


def test_density_normalization_builds_the_grid_in_row_blocks():
    """Criterion 7 takes its 400 x 400 grid 10 rows at a time, so it peaks
    below 2 MiB; the whole grid's points and meshgrids alone take 4.9 MiB."""
    tracemalloc.start()
    try:
        result = acceptance.check_density_normalization()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result.line()
    assert peak < 2 * 2**20


def test_drift_bound_reads_the_kept_paths_in_place():
    """Criterion 5 sums each kept path's |b|^2 dt from its own states, so it
    peaks below 25 MiB; stacking the 1000 paths into one array took 47.7 MiB."""
    tracemalloc.start()
    try:
        result = acceptance.check_drift_bound()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result.line()
    assert peak < 25 * 2**20
