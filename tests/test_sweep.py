"""The sweep's blocks, its streamed CSV and its memory bound.

run_sweep selects the weights of the valid grid points first and judges them in
full blocks, filling each column once, and write_csv formats one block's rows at
a time, so besides the weights and one copy of the columns a sweep holds one
block's working set, whatever the grid. Every block but the last holds
_block_size(d) points, and the CSV does not depend on the block size. The
streamed bytes must equal the one-shot formatter's (tests/oracles.py) across
slice boundaries, tracemalloc bounds what the d = 3 grid-300 sweep allocates
beyond its columns, and a fresh interpreter bounds how far a whole sweep and
its CSV raise the peak RSS. The PPT and cycle-map eigenvalue columns must match
the family's closed-form spectra at every row.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from loowit import criteria, sweep
from loowit.sweep import BLOCK_OPERATORS, COLUMN_NAMES, SweepResult, _block_size, run_sweep, write_csv
from oracles import (
    family_cycle_min_closed_form,
    family_ppt_min_closed_form,
    family_realignment_closed_form,
    sweep_csv_one_shot,
)

SRC = Path(__file__).resolve().parents[1] / "src"
# ru_maxrss is the peak of the whole process (KiB on Linux), so it is read in a fresh interpreter
# after the import, around run_sweep and write_csv; the child prints the growth in MB
PEAK_RSS_GROWTH = (
    "import resource, sys; from loowit.sweep import run_sweep, write_csv; "
    "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024; before = rss(); "
    "write_csv(run_sweep(int(sys.argv[1]), int(sys.argv[2])), sys.argv[3]); print(rss() - before)"
)


def traced_peak(fn):
    """fn() and the peak bytes tracemalloc sees allocated during it, above what was traced before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def streamed_bytes(result, path) -> bytes:
    write_csv(result, path)
    return path.read_bytes()


# each grid gives more rows than one slice of BLOCK_OPERATORS // (d - 1)
@pytest.mark.parametrize("d, grid", [(3, 100), (4, 30), (5, 35), (6, 30)])
def test_streamed_csv_is_the_one_shot_text(tmp_path, d, grid):
    result = run_sweep(d, grid)
    assert len(result.columns["a1"]) > BLOCK_OPERATORS // (d - 1)
    assert streamed_bytes(result, tmp_path / "sweep.csv") == sweep_csv_one_shot(result).encode("utf-8")


# a d = 3 slice holds 256 rows: grid 22 fits in one, grid 23 spills 12 rows into a second
@pytest.mark.parametrize("grid, rows", [(22, 253), (23, 268)])
def test_streamed_csv_across_one_slice(tmp_path, grid, rows):
    result = run_sweep(3, grid)
    assert len(result.columns["a1"]) == rows
    assert streamed_bytes(result, tmp_path / "sweep.csv") == sweep_csv_one_shot(result).encode("utf-8")


def test_float_cells_are_one_repr_each(tmp_path):
    # 0.0 and -0.0 compare equal but print apart, so cells are keyed by bit pattern, not by value;
    # each float column repeats values within a slice and across the d = 3 slice boundary (256 rows)
    rows = _block_size(3) + 6
    pattern = np.array([0.0, -0.0, 0.5, -0.0, 1.0 / 3.0, 0.0, -1e-300])
    columns = {
        name: np.resize(np.roll(pattern, i), rows) for i, name in enumerate(COLUMN_NAMES) if "region" not in name
    }
    columns["analytic_region"] = np.resize(np.array(["free", "bound", "separable"]), rows)
    columns["numeric_region"] = np.resize(np.array(["bound", "free"]), rows)
    columns["boundary_flag"] = np.resize([True, False, False], rows)
    result = SweepResult(3, 2, columns, 0, 0, 0, 0)
    text = streamed_bytes(result, tmp_path / "sweep.csv").decode("utf-8")
    assert text == sweep_csv_one_shot(result)
    lines = text.splitlines()[2:]
    assert len(lines) == rows
    assert lines[1].startswith("-0.0,0.0,")
    # every column repeats within 42 rows, so a row past the slice boundary reads as its repeat before it
    assert all(lines[i] == lines[i % 42] for i in range(rows))


@pytest.mark.parametrize("d, grid", [(3, 100), (6, 30)])
def test_every_block_but_the_last_is_full(monkeypatch, d, grid):
    sizes, battery = [], sweep.battery

    def spy(rho, *args):
        sizes.append(len(rho))
        return battery(rho, *args)

    monkeypatch.setattr(sweep, "battery", spy)
    rows = len(run_sweep(d, grid).columns["a1"])
    assert len(sizes) > 1
    assert sizes[:-1] == [_block_size(d)] * (len(sizes) - 1)
    assert 0 < sizes[-1] <= _block_size(d)
    assert sum(sizes) == rows


def test_each_point_is_weighed_once(monkeypatch):
    # special_slice weighs each a1 row of the grid once; a block labels the weights it already holds
    calls = {}
    for module in (sweep, criteria):
        def spy(*args, name=module.__name__, special_slice=module.special_slice):
            calls[name] = calls.get(name, 0) + 1
            return special_slice(*args)

        monkeypatch.setattr(module, "special_slice", spy)
    run_sweep(3, 30)
    assert calls == {"loowit.sweep": 30}


# every row, boundary-flagged ones included: rho_B = I/d makes both spectra, and the realigned
# trace norm, closed-form in the weights
@pytest.mark.parametrize("d, grid", [(3, 40), (4, 40), (5, 40), (6, 40), (7, 30), (8, 30)])
def test_min_eig_columns_match_closed_forms(d, grid):
    columns = run_sweep(d, grid).columns
    weights = np.repeat(columns["a1"][:, None], d, axis=1)
    weights[:, 1], weights[:, d - 1] = columns["a2"], columns["a_d"]
    closed_forms = {
        "ppt_min_eig": family_ppt_min_closed_form,
        "oreduction_min_eig": family_cycle_min_closed_form,
        "realignment": family_realignment_closed_form,
    }
    for name, closed_form in closed_forms.items():
        value, expected = columns[name], closed_form(weights)
        assert len(value) > 0
        assert np.all(np.abs(value - expected) <= 1e-14 * np.maximum(1.0, np.abs(value))), name


# BLOCK_OPERATORS = d - 1 puts one point in each block; 9 and 64 split the grid rows unevenly
@pytest.mark.parametrize("d, operators", [(3, 2), (3, 9), (3, 64), (4, 3), (4, 9), (4, 64)])
def test_csv_does_not_depend_on_the_block_size(monkeypatch, tmp_path, d, operators):
    default = streamed_bytes(run_sweep(d, 25), tmp_path / "default.csv")
    monkeypatch.setattr(sweep, "BLOCK_OPERATORS", operators)
    assert streamed_bytes(run_sweep(d, 25), tmp_path / "small.csv") == default


@pytest.fixture(scope="module")
def traced_sweep():
    """The d = 3 grid-300 sweep (45,118 rows) and its traced peak."""
    return traced_peak(lambda: run_sweep(3, 300))


class TestMemoryBound:
    def test_run_sweep_holds_one_block_beyond_its_columns(self, traced_sweep):
        result, peak = traced_sweep
        columns = sum(column.nbytes for column in result.columns.values())
        assert peak - columns < 6e6, (peak, columns)

    def test_write_csv_holds_one_slice(self, traced_sweep, tmp_path):
        result, _ = traced_sweep
        _, peak = traced_peak(lambda: write_csv(result, tmp_path / "sweep.csv"))
        assert peak < 1e6, peak

    # at d = 6 a full block reaches the operator cap (102 points x 5 cycle maps)
    @pytest.mark.parametrize("d, grid, rows, megabytes", [(3, 400, 80200, 40), (6, 60, 476, 50)])
    def test_peak_rss_grows_by_less_than(self, tmp_path, d, grid, rows, megabytes):
        path = tmp_path / "sweep.csv"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_GROWTH, str(d), str(grid), str(path)],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        grew = float(proc.stdout)
        assert len(path.read_text().splitlines()) - 2 == rows
        assert grew < megabytes, grew
