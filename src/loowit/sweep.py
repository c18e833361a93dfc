"""Phase-diagram sweep over the special slice of the diagonal family.

Each grid point (a1, a2) gets an analytic region label and a numeric one
derived solely from eigensolves: free when the partial transpose fails
is_psd, bound when it passes and some cyclic-permutation reduction map fails
it; the CSV also holds the smallest eigenvalue of each kind. The slice needs
d >= 3. Points within the EPSILON band of either analytic boundary are
flagged and excluded from the agreement statistic. The CSV schema is
versioned; figure scripts depend on it.

The valid points are selected first, one a1 row of the grid at a time, and
judged in blocks, each one stack of family states against battery_mixings(d),
the d - 1 cyclic-permutation mixings: a fixed number of array calls per block.
BLOCK_OPERATORS caps the reduction operators, and so the memory, of a block:
BLOCK_OPERATORS // (d - 1) valid points (the last block holds the rest), so
d > BLOCK_OPERATORS + 1 is rejected. Each block is one criteria.battery call,
which gathers its states against the standard set once and reads realignment,
rho_B and the reduction maps off that residue. Results are columns, one array
each, allocated once and filled block by block; the CSV is written in slices of
one block's rows. So besides d weights per valid point and one copy of the
columns, a sweep holds one block's working set, whatever the grid. The family
states, their partial transposes and the reduction operators are exactly
Hermitian, so is_psd never computes a Hermiticity defect in a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import ALGEBRAIC_TOL, battery
from .linalg import DimPair, require_count
from .loo import battery_mixings
from .states import family_region, family_stack, special_slice

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


def _evaluate_block(d: int, weights: np.ndarray) -> dict:
    """Columns of the valid special-slice points whose weights are the rows of weights, in input order."""
    a1, a2, a_d = weights[:, 0], weights[:, 1], weights[:, d - 1]
    dims = DimPair.square(d)
    ppt_ok, ppt_min, realignment, cycle_ok, cycle_min = battery(family_stack(weights), dims, battery_mixings(d))
    oreduction_min = cycle_min.min(axis=-1)  # the smallest eigenvalue over the cyclic shifts l = 1 .. d-1
    numeric = np.where(~ppt_ok, "free", np.where(cycle_ok.all(axis=-1), "separable", "bound"))
    values = (
        a1,
        a2,
        a_d,
        family_region(weights),
        ppt_min,
        oreduction_min,
        realignment,
        numeric,
        _near_boundary(a1, a2, a_d),
    )
    return dict(zip(COLUMN_NAMES, values))


def evaluate_point(d: int, a1: float, a2: float) -> dict | None:
    """One sweep row as {column: value}, None off the simplex; kept for perfbench's tracer until ROADMAP item 3."""
    weights, valid = special_slice(d, a1, a2)
    if not valid:
        return None
    return {name: column.tolist()[0] for name, column in _evaluate_block(d, weights[None]).items()}


def _block_size(d: int) -> int:
    if d > BLOCK_OPERATORS + 1:
        raise ValueError(f"the sweep needs d <= {BLOCK_OPERATORS + 1}, got {d}: a block holds no grid point")
    return BLOCK_OPERATORS // max(d - 1, 1)  # d < 3 reaches special_slice, which rejects it


def run_sweep(d: int, resolution: int) -> SweepResult:
    """Sweep a resolution x resolution grid over (a1, a2) in [0, 1]^2; rows in grid order.

    Points within EPSILON of an analytic boundary are flagged; the criteria use ALGEBRAIC_TOL.
    The weights of the valid points are selected first, one a1 row at a time, so each column is
    allocated once and filled one full block of points at a time.
    """
    require_count(resolution, "grid resolution", 2)
    size = _block_size(d)
    grid = np.linspace(0.0, 1.0, resolution)
    weights = np.concatenate([w[valid] for w, valid in (special_slice(d, a1, grid) for a1 in grid)])
    columns = {}
    for start in range(0, len(weights), size):
        block = _evaluate_block(d, weights[start:start + size])
        for name, values in block.items():
            if name not in columns:  # each column takes the dtype of its first block
                columns[name] = np.empty(len(weights), dtype=values.dtype)
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
    """CSV cells of one column: labels as they are, the flag as 1/0, floats by repr.

    repr runs once per distinct bit pattern, so 0.0 and -0.0 (equal as floats) keep their own text.
    """
    if column.dtype == bool:
        column = column.astype(int)
    if column.dtype.kind != "f":
        return map(str, column.tolist())
    bits = column.view(f"i{column.itemsize}").tolist()
    text = {key: repr(value) for key, value in dict(zip(bits, column.tolist())).items()}
    return map(text.__getitem__, bits)


def write_csv(result: SweepResult, path: str | Path) -> None:
    """Write the CSV (schema v1) in slices of one block's rows, so the text of the whole grid is never held.

    Each float cell is its repr, made once per distinct value of the slice (_cells).
    """
    size = _block_size(result.d)
    columns = [result.columns[name] for name in COLUMN_NAMES]
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"{CSV_HEADER}\n{CSV_COLUMNS}\n")
        for start in range(0, len(columns[0]), size):
            cells = [_cells(column[start:start + size]) for column in columns]
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def summary_lines(result: SweepResult) -> list[str]:
    return [
        f"grid {result.resolution}x{result.resolution} (d={result.d}), "
        f"{len(result.columns['a1'])} valid points, boundary band epsilon={EPSILON:g}",
        f"analytic vs numeric agreement off-boundary: {100.0 * result.agreement:.2f}% "
        f"({result.n_agree}/{result.n_compared})",
        f"bound-entangled points detected: {result.n_bound} "
        f"(realignment-blind among them: {result.n_bound_realignment_blind})",
    ]
