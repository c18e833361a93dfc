#!/usr/bin/env python3
"""Reproduce the bound-entanglement phase diagram of the diagonal family.

Sweeps the (a1, a2) slice, writes the CSV that any plotter can consume, and
prints the analytic-vs-numeric agreement summary. Equivalent to
``loowit sweep`` with the same flags.
"""

import argparse
import time

from loowit.sweep import run_sweep, summary_lines, write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3, help="local dimension")
    parser.add_argument("--grid", type=int, default=100, help="grid resolution per axis")
    parser.add_argument("--epsilon", type=float, default=1e-3, help="boundary band width")
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    start = time.perf_counter()
    result = run_sweep(d=args.d, resolution=args.grid, epsilon=args.epsilon)
    elapsed = time.perf_counter() - start
    write_csv(result, args.out)
    for line in summary_lines(result):
        print(line)
    print(f"wrote {args.out} in {elapsed:.1f}s")

    regions = {}
    for row in result.rows:
        regions[row.numeric_region] = regions.get(row.numeric_region, 0) + 1
    print("numeric region counts:", dict(sorted(regions.items())))


if __name__ == "__main__":
    main()
