#!/usr/bin/env python3
"""Scan the 3x3 PPT-entangled state family and tabulate its detection.

For each parameter value the state is PPT (partial transpose stays positive)
yet the tailored witness expectation 1 - sqrt(1 + n^2) is strictly negative,
so every point in the open interval is bound entangled. The realignment value
is printed alongside for comparison.
"""

import argparse

import numpy as np

from loowit.criteria import battery
from loowit.loo import cycle_mixings
from loowit.states import horodecki_rho
from loowit.witness import expectation, horodecki_ew


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=19, help="grid points in (0, 1)")
    args = parser.parse_args()

    print(f"{'a':>6}  {'witness value':>15}  {'closed form':>15}  {'PT min eig':>12}  {'realignment':>12}")
    for a in np.linspace(0.05, 0.95, args.points):
        a = float(a)
        state = horodecki_rho(a)
        witness, data = horodecki_ew(a)
        value = expectation(witness, state)
        closed = 1.0 - np.sqrt(1.0 + data.n_sq)
        _, pt_min, realign_val, _, _ = battery(state.rho, 3, cycle_mixings(3))
        print(f"{a:6.3f}  {value:15.9e}  {closed:15.9e}  {pt_min:12.3e}  {realign_val:12.8f}")


if __name__ == "__main__":
    main()
