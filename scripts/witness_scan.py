#!/usr/bin/env python3
"""Scan the 3x3 PPT-entangled state family and check its detection.

For each parameter value the state must be PPT (partial transpose stays
positive) yet give a strictly negative tailored witness expectation, equal to
the paper's closed form 1 - sqrt(1 + n^2) with n^2 = (1 - a) a^2 / ((2 + a)(1 + 8a)^2),
so every point in the open interval is bound entangled. The realignment value
is printed alongside for comparison. Exits 1 when any row fails one of the
three checks.
"""

import argparse
import sys

import numpy as np

from loowit.criteria import battery
from loowit.loo import cycle_mixings
from loowit.states import horodecki_rho
from loowit.witness import expectation, horodecki_ew

CLOSED_FORM_TOL = 1e-9


def closed_form(a: float) -> float:
    """The paper's witness value 1 - sqrt(1 + n^2) at parameter a."""
    n_sq = (1.0 - a) * a * a / ((2.0 + a) * (1.0 + 8.0 * a) ** 2)
    return 1.0 - np.sqrt(1.0 + n_sq)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=19, help="grid points in (0, 1)")
    args = parser.parse_args(argv)
    if args.points < 1:  # a scan of no points would pass having checked nothing
        parser.error(f"argument --points: must be an integer >= 1, got {args.points}")

    failed = 0
    print(f"{'a':>6}  {'witness value':>15}  {'closed form':>15}  {'PT min eig':>12}  {'realignment':>12}  check")
    for a in np.linspace(0.05, 0.95, args.points):
        a = float(a)
        state = horodecki_rho(a)
        value = expectation(horodecki_ew(a), state)
        closed = closed_form(a)
        ppt_ok, pt_min, realign_val, _, _ = battery(state.rho, state.dims, cycle_mixings(3))
        ok = value < 0.0 and abs(value - closed) <= CLOSED_FORM_TOL and ppt_ok
        failed += not ok
        print(f"{a:6.3f}  {value:15.9e}  {closed:15.9e}  {pt_min:12.3e}  {realign_val:12.8f}  {'ok' if ok else 'FAIL'}")
    if failed:
        print(
            f"{failed} of {args.points} points failed: the witness value must be negative, "
            f"within {CLOSED_FORM_TOL:g} of the closed form, on a PPT state",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
