"""Phase-diagram sweep over the special slice of the diagonal family.

Each grid point (a1, a2) gets an analytic region label and a numeric one
derived solely from eigensolves: the partial-transpose minimum eigenvalue and
the best (most negative) cyclic-permutation reduction eigenvalue. Points
within an epsilon band of either analytic boundary are flagged and excluded
from the agreement statistic. The CSV schema is versioned; figure scripts
depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import classify_family_point, perm_reduction_family, ppt_check, realignment_value
from .states import family_rho, family_special

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


def _near_boundary(a1: float, a2: float, a_d: float, epsilon: float) -> bool:
    return (
        abs(a2 - a1) <= epsilon
        or abs(a_d - a1) <= epsilon
        or abs(a2 * a_d - a1 * a1) <= epsilon
    )


def evaluate_point(d: int, a1: float, a2: float, epsilon: float, tol: float) -> SweepRow | None:
    """One sweep row, or None when the point leaves the parameter simplex."""
    try:
        params = family_special(d, a1, a2)
    except ValueError:
        return None
    a_d = params.a[d - 1]
    state = family_rho(params)

    ppt_report = ppt_check(state, tol=tol)
    oreduction_min = min(perm_reduction_family(state, l, tol=tol)[1].scalar for l in range(1, d))
    value, _ = realignment_value(state, tol=tol)

    if ppt_report.verdict == "violated":
        numeric = "free"
    elif oreduction_min < -tol:
        numeric = "bound"
    else:
        numeric = "separable"
    return SweepRow(
        a1=a1,
        a2=a2,
        a_d=a_d,
        analytic_region=classify_family_point(d, a1, a2),
        ppt_min_eig=ppt_report.scalar,
        oreduction_min_eig=oreduction_min,
        realignment=value,
        numeric_region=numeric,
        boundary=_near_boundary(a1, a2, a_d, epsilon),
    )


def run_sweep(
    d: int,
    resolution: int,
    epsilon: float = 1e-3,
    tol: float = 1e-9,
) -> SweepResult:
    """Sweep a resolution x resolution grid over (a1, a2) in [0, 1]^2; rows in grid order."""
    if resolution < 2:
        raise ValueError(f"grid resolution must be >= 2, got {resolution}")
    grid = [float(a) for a in np.linspace(0.0, 1.0, resolution)]
    maybe_rows = (evaluate_point(d, a1, a2, epsilon, tol) for a1 in grid for a2 in grid)
    rows = tuple(row for row in maybe_rows if row is not None)

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
