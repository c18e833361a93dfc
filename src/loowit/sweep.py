"""Phase-diagram sweep over the special slice of the diagonal family.

Each grid point (a1, a2) gets an analytic region label and a numeric one
derived solely from eigensolves: the partial-transpose minimum eigenvalue and
the best (most negative) cyclic-permutation reduction eigenvalue. Points
within an epsilon band of either analytic boundary are flagged and excluded
from the agreement statistic. The CSV schema is versioned; figure scripts
depend on it.

The grid is judged in blocks of BLOCK_POINTS grid points: each block is one
stack of family states through the stacked criterion kernels, a fixed number
of array calls whatever its size. The block size caps the memory the stacks
take.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .criteria import (
    classify_family_point,
    o_reduction_operator,
    ppt_psd,
    realignment_norm,
)
from .linalg import DimPair, is_psd, require_nonnegative
from .loo import diag_cycle, permutation_transform
from .states import family_stack, special_slice

BLOCK_POINTS = 256

CSV_HEADER = "# loowit sweep v1"
CSV_COLUMNS = (
    "a1,a2,a_d,analytic_region,ppt_min_eig,oreduction_min_eig,realignment,numeric_region,boundary_flag"
)


@dataclass(frozen=True)
class SweepRow:
    a1: float
    a2: float
    a_d: float
    analytic_region: str
    ppt_min_eig: float
    oreduction_min_eig: float
    realignment: float
    numeric_region: str
    boundary: bool

    def to_csv(self) -> str:
        return ",".join(
            [
                repr(self.a1),
                repr(self.a2),
                repr(self.a_d),
                self.analytic_region,
                repr(self.ppt_min_eig),
                repr(self.oreduction_min_eig),
                repr(self.realignment),
                self.numeric_region,
                "1" if self.boundary else "0",
            ]
        )


@dataclass(frozen=True)
class SweepResult:
    d: int
    resolution: int
    epsilon: float
    rows: tuple[SweepRow, ...]
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


def _evaluate_block(d: int, a1: np.ndarray, a2: np.ndarray, epsilon: float, tol: float) -> list[SweepRow]:
    """Rows of the points (a1[i], a2[i]) that lie in the parameter simplex, in input order."""
    require_nonnegative("tol", tol)
    require_nonnegative("epsilon", epsilon)
    weights, valid = special_slice(d, a1, a2)
    if not valid.any():
        return []
    a1, a2, weights = a1[valid], a2[valid], weights[valid]
    a_d = weights[:, d - 1]
    rho = family_stack(weights)

    ppt_ok, ppt_min = ppt_psd(rho, DimPair.square(d), tol)
    cycle_min_eigs = [
        is_psd(o_reduction_operator(rho, d, permutation_transform(diag_cycle(d, l))), tol=tol)[1]
        for l in range(1, d)
    ]
    # The smallest over the shifts, the earlier shift winning ties as with Python's min().
    oreduction_min = reduce(lambda best, x: np.where(x < best, x, best), cycle_min_eigs)
    realignment = realignment_norm(rho, d)
    numeric = np.where(~ppt_ok, "free", np.where(oreduction_min < -tol, "bound", "separable"))
    columns = (
        a1,
        a2,
        a_d,
        classify_family_point(d, a1, a2),
        ppt_min,
        oreduction_min,
        realignment,
        numeric,
        _near_boundary(a1, a2, a_d, epsilon),
    )
    return [SweepRow(*fields) for fields in zip(*(c.tolist() for c in columns))]


def evaluate_point(d: int, a1: float, a2: float, epsilon: float, tol: float) -> SweepRow | None:
    """One sweep row, or None when the point leaves the parameter simplex (a block of one)."""
    rows = _evaluate_block(d, np.array([a1], dtype=float), np.array([a2], dtype=float), epsilon, tol)
    return rows[0] if rows else None


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
    rows = tuple(
        row
        for start in range(0, a1_all.size, BLOCK_POINTS)
        for row in _evaluate_block(
            d, a1_all[start:start + BLOCK_POINTS], a2_all[start:start + BLOCK_POINTS], epsilon, tol
        )
    )

    compared = [row for row in rows if not row.boundary]
    bound = [row for row in rows if row.numeric_region == "bound"]
    return SweepResult(
        d=d,
        resolution=resolution,
        epsilon=epsilon,
        rows=rows,
        n_compared=len(compared),
        n_agree=sum(row.analytic_region == row.numeric_region for row in compared),
        n_bound=len(bound),
        n_bound_realignment_blind=sum(row.realignment <= 1.0 + tol for row in bound),
    )


def write_csv(result: SweepResult, path: str | Path) -> None:
    lines = [CSV_HEADER, CSV_COLUMNS]
    lines += [row.to_csv() for row in result.rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_lines(result: SweepResult) -> list[str]:
    return [
        f"grid {result.resolution}x{result.resolution} (d={result.d}), "
        f"{len(result.rows)} valid points, boundary band epsilon={result.epsilon:g}",
        f"analytic vs numeric agreement off-boundary: {100.0 * result.agreement:.2f}% "
        f"({result.n_agree}/{result.n_compared})",
        f"bound-entangled points detected: {result.n_bound} "
        f"(realignment-blind among them: {result.n_bound_realignment_blind})",
    ]
