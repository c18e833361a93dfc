"""Phase-diagram sweep over the special slice of the diagonal family.

Each grid point (a1, a2) gets an analytic region label and a numeric one
derived solely from eigensolves: the partial-transpose minimum eigenvalue and
the best (most negative) cyclic-permutation reduction eigenvalue. Points
within an epsilon band of either analytic boundary are flagged and excluded
from the agreement statistic. The CSV schema is versioned; figure scripts
depend on it.

The grid is judged in blocks, each one stack of family states against the
stack of cyclic-permutation mixings: a fixed number of array calls per block.
BLOCK_OPERATORS caps the reduction operators, and so the memory, of a block:
BLOCK_OPERATORS // (d - 1) grid points. Results are columns, one array each.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import classify_family_point, o_reduction_operator, ppt_psd, realignment_norm
from .linalg import DimPair, is_psd, require_nonnegative
from .loo import cycle_mixings
from .states import family_stack, special_slice

BLOCK_OPERATORS = 512

CSV_HEADER = "# loowit sweep v1"
CSV_COLUMNS = (
    "a1,a2,a_d,analytic_region,ppt_min_eig,oreduction_min_eig,realignment,numeric_region,boundary_flag"
)
COLUMN_NAMES = tuple(CSV_COLUMNS.split(","))


@dataclass(frozen=True, eq=False)
class SweepResult:
    d: int
    resolution: int
    epsilon: float
    columns: dict[str, np.ndarray]  # one array per CSV column, rows in grid order
    n_compared: int
    n_agree: int
    n_bound: int
    n_bound_realignment_blind: int

    @property
    def agreement(self) -> float:
        """Fraction of off-boundary points whose labels agree (1.0 when none compared)."""
        return 1.0 if self.n_compared == 0 else self.n_agree / self.n_compared


def _near_boundary(a1: np.ndarray, a2: np.ndarray, a_d: np.ndarray, epsilon: float) -> np.ndarray:
    return (
        (np.abs(a2 - a1) <= epsilon)
        | (np.abs(a_d - a1) <= epsilon)
        | (np.abs(a2 * a_d - a1 * a1) <= epsilon)
    )


def _evaluate_block(d: int, a1: np.ndarray, a2: np.ndarray, epsilon: float, tol: float) -> dict:
    """Columns of the points (a1[i], a2[i]) that lie in the parameter simplex, in input order."""
    require_nonnegative("tol", tol)
    require_nonnegative("epsilon", epsilon)
    weights, valid = special_slice(d, a1, a2)
    a1, a2, weights = a1[valid], a2[valid], weights[valid]
    a_d = weights[:, d - 1]
    rho = family_stack(weights)

    ppt_ok, ppt_min = ppt_psd(rho, DimPair.square(d), tol)
    # the smallest eigenvalue over the cyclic shifts l = 1 .. d-1
    cycle_min = is_psd(o_reduction_operator(rho[:, None], d, cycle_mixings(d)), tol=tol)[1]
    oreduction_min = cycle_min.min(axis=-1)
    numeric = np.where(~ppt_ok, "free", np.where(oreduction_min < -tol, "bound", "separable"))
    values = (
        a1,
        a2,
        a_d,
        classify_family_point(d, a1, a2),
        ppt_min,
        oreduction_min,
        realignment_norm(rho, d),
        numeric,
        _near_boundary(a1, a2, a_d, epsilon),
    )
    return dict(zip(COLUMN_NAMES, values))


def evaluate_point(d: int, a1: float, a2: float, epsilon: float, tol: float) -> dict | None:
    """One sweep row as {column: value}, or None when the point leaves the parameter simplex."""
    columns = _evaluate_block(d, np.array([a1], dtype=float), np.array([a2], dtype=float), epsilon, tol)
    return {name: column.tolist()[0] for name, column in columns.items()} if len(columns["a1"]) else None


def run_sweep(
    d: int,
    resolution: int,
    epsilon: float = 1e-3,
    tol: float = 1e-9,
) -> SweepResult:
    """Sweep a resolution x resolution grid over (a1, a2) in [0, 1]^2; rows in grid order."""
    if resolution < 2:
        raise ValueError(f"grid resolution must be >= 2, got {resolution}")
    grid = np.linspace(0.0, 1.0, resolution)
    a1_all = np.repeat(grid, resolution)
    a2_all = np.tile(grid, resolution)
    size = BLOCK_OPERATORS // max(d - 1, 1)  # the first block rejects d < 2
    blocks = [
        _evaluate_block(d, a1_all[start:start + size], a2_all[start:start + size], epsilon, tol)
        for start in range(0, a1_all.size, size)
    ]
    columns = {name: np.concatenate([block[name] for block in blocks]) for name in COLUMN_NAMES}

    compared = ~columns["boundary_flag"]
    bound = columns["numeric_region"] == "bound"
    return SweepResult(
        d=d,
        resolution=resolution,
        epsilon=epsilon,
        columns=columns,
        n_compared=int(compared.sum()),
        n_agree=int((compared & (columns["analytic_region"] == columns["numeric_region"])).sum()),
        n_bound=int(bound.sum()),
        n_bound_realignment_blind=int((bound & (columns["realignment"] <= 1.0 + tol)).sum()),
    )


def _cells(column: np.ndarray):
    """CSV cells of one column, made one at a time: floats by repr, labels as they are, the flag as 1/0."""
    if column.dtype == bool:
        column = column.astype(int)
    return map(repr if column.dtype.kind == "f" else str, column.tolist())


def write_csv(result: SweepResult, path: str | Path) -> None:
    cells = [_cells(result.columns[name]) for name in COLUMN_NAMES]
    lines = [CSV_HEADER, CSV_COLUMNS] + [",".join(row) for row in zip(*cells)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_lines(result: SweepResult) -> list[str]:
    return [
        f"grid {result.resolution}x{result.resolution} (d={result.d}), "
        f"{len(result.columns['a1'])} valid points, boundary band epsilon={result.epsilon:g}",
        f"analytic vs numeric agreement off-boundary: {100.0 * result.agreement:.2f}% "
        f"({result.n_agree}/{result.n_compared})",
        f"bound-entangled points detected: {result.n_bound} "
        f"(realignment-blind among them: {result.n_bound_realignment_blind})",
    ]
