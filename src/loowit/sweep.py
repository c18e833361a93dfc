"""Phase-diagram sweep over the special slice of the diagonal family.

Each grid point (a1, a2) gets an analytic region label and a numeric one
derived solely from eigensolves: free when the partial transpose fails
is_psd, bound when it passes and some cyclic-permutation reduction map fails
it; the CSV also holds the smallest eigenvalue of each kind. The slice needs
d >= 3. Points within the EPSILON band of either analytic boundary are
flagged and excluded from the agreement statistic. The CSV schema is
versioned; figure scripts depend on it.

The valid points are selected first, one a1 row of the grid at a time, and
judged in blocks, each one stack of family states against the stack of
cyclic-permutation mixings: a fixed number of array calls per block.
BLOCK_OPERATORS caps the reduction operators, and so the memory, of a block:
BLOCK_OPERATORS // (d - 1) valid points (the last block holds the rest), so
d > BLOCK_OPERATORS + 1 is rejected. Each block is one criteria.battery call,
which gathers its states against the standard set once and reads realignment,
rho_B and the reduction maps off that residue. Results are columns, one array
each, allocated once and filled block by block; the CSV is written in slices of
one block's rows. So a sweep holds one block's working set, one row of the
grid's weights and one copy of the columns, whatever the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import ALGEBRAIC_TOL, battery, classify_family_point
from .loo import cycle_mixings
from .states import family_stack, special_slice

BLOCK_OPERATORS = 512
# Half-width of the band around the analytic boundaries, in the weights a1, a2, a_d.
EPSILON = 1e-3

CSV_HEADER = "# loowit sweep v1"
CSV_COLUMNS = (
    "a1,a2,a_d,analytic_region,ppt_min_eig,oreduction_min_eig,realignment,numeric_region,boundary_flag"
)
COLUMN_NAMES = tuple(CSV_COLUMNS.split(","))


@dataclass(frozen=True, eq=False)
class SweepResult:
    d: int
    resolution: int
    columns: dict[str, np.ndarray]  # one array per CSV column, rows in grid order
    n_compared: int
    n_agree: int
    n_bound: int
    n_bound_realignment_blind: int

    @property
    def agreement(self) -> float:
        """Fraction of off-boundary points whose labels agree (1.0 when none compared)."""
        return 1.0 if self.n_compared == 0 else self.n_agree / self.n_compared


def _near_boundary(a1: np.ndarray, a2: np.ndarray, a_d: np.ndarray) -> np.ndarray:
    return (
        (np.abs(a2 - a1) <= EPSILON)
        | (np.abs(a_d - a1) <= EPSILON)
        | (np.abs(a2 * a_d - a1 * a1) <= EPSILON)
    )


def _evaluate_block(d: int, a1: np.ndarray, a2: np.ndarray) -> dict:
    """Columns of the points (a1[i], a2[i]) that lie in the parameter simplex, in input order."""
    weights, valid = special_slice(d, a1, a2)
    a1, a2, weights = a1[valid], a2[valid], weights[valid]
    a_d = weights[:, d - 1]
    # the states are not bound to a name, so battery drops them once their residue replaces them
    ppt_ok, ppt_min, realignment, cycle_ok, cycle_min = battery(family_stack(weights), d, cycle_mixings(d))
    oreduction_min = cycle_min.min(axis=-1)  # the smallest eigenvalue over the cyclic shifts l = 1 .. d-1
    numeric = np.where(~ppt_ok, "free", np.where(cycle_ok.all(axis=-1), "separable", "bound"))
    values = (
        a1,
        a2,
        a_d,
        classify_family_point(d, a1, a2),
        ppt_min,
        oreduction_min,
        realignment,
        numeric,
        _near_boundary(a1, a2, a_d),
    )
    return dict(zip(COLUMN_NAMES, values))


def evaluate_point(d: int, a1: float, a2: float) -> dict | None:
    """One sweep row as {column: value}, or None when the point leaves the parameter simplex."""
    columns = _evaluate_block(d, np.array([a1], dtype=float), np.array([a2], dtype=float))
    return {name: column.tolist()[0] for name, column in columns.items()} if len(columns["a1"]) else None


def _block_size(d: int) -> int:
    if d > BLOCK_OPERATORS + 1:
        raise ValueError(f"the sweep needs d <= {BLOCK_OPERATORS + 1}, got {d}: a block holds no grid point")
    return BLOCK_OPERATORS // max(d - 1, 1)  # d < 3 reaches special_slice, which rejects it


def run_sweep(d: int, resolution: int) -> SweepResult:
    """Sweep a resolution x resolution grid over (a1, a2) in [0, 1]^2; rows in grid order.

    Points within EPSILON of an analytic boundary are flagged; the criteria use ALGEBRAIC_TOL.
    The valid points are selected first, one a1 row at a time, so each column is allocated once
    and filled one full block of points at a time.
    """
    if resolution < 2:
        raise ValueError(f"grid resolution must be >= 2, got {resolution}")
    size = _block_size(d)
    grid = np.linspace(0.0, 1.0, resolution)
    valid = np.array([special_slice(d, a1, grid)[1] for a1 in grid])
    # the valid points, masked out of broadcast views with no index array, are the a1 and a2 columns
    a1, a2 = (np.broadcast_to(axis, valid.shape)[valid] for axis in (grid[:, None], grid))
    columns = {"a1": a1, "a2": a2}
    for start in range(0, len(a1), size):
        block = _evaluate_block(d, a1[start:start + size], a2[start:start + size])
        for name, values in block.items():
            if name not in columns:  # each column takes the dtype of its first block
                columns[name] = np.empty(len(a1), dtype=values.dtype)
            columns[name][start:start + size] = values

    compared = ~columns["boundary_flag"]
    bound = columns["numeric_region"] == "bound"
    return SweepResult(
        d=d,
        resolution=resolution,
        columns=columns,
        n_compared=int(compared.sum()),
        n_agree=int((compared & (columns["analytic_region"] == columns["numeric_region"])).sum()),
        n_bound=int(bound.sum()),
        n_bound_realignment_blind=int((bound & (columns["realignment"] <= 1.0 + ALGEBRAIC_TOL)).sum()),
    )


def _cells(column: np.ndarray):
    """CSV cells of one column, made one at a time: floats by repr, labels as they are, the flag as 1/0."""
    if column.dtype == bool:
        column = column.astype(int)
    return map(repr if column.dtype.kind == "f" else str, column.tolist())


def write_csv(result: SweepResult, path: str | Path) -> None:
    """Write the CSV (schema v1) in slices of one block's rows, so the text of the whole grid is never held."""
    size = _block_size(result.d)
    columns = [result.columns[name] for name in COLUMN_NAMES]
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"{CSV_HEADER}\n{CSV_COLUMNS}\n")
        for start in range(0, len(columns[0]), size):
            cells = [_cells(column[start:start + size]) for column in columns]
            out.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def summary_lines(result: SweepResult) -> list[str]:
    return [
        f"grid {result.resolution}x{result.resolution} (d={result.d}), "
        f"{len(result.columns['a1'])} valid points, boundary band epsilon={EPSILON:g}",
        f"analytic vs numeric agreement off-boundary: {100.0 * result.agreement:.2f}% "
        f"({result.n_agree}/{result.n_compared})",
        f"bound-entangled points detected: {result.n_bound} "
        f"(realignment-blind among them: {result.n_bound_realignment_blind})",
    ]
