"""Per-layer metrics of the traced run, and what each one should move.

Every entry names the end-to-end metrics the layer metric should move and the
workloads where the layer does most of its work. On the other workloads the
prediction is little or no change. ``TRACED`` lists the public functions the
traced run wraps, as "module.function" inside the loowit package.
"""

from __future__ import annotations

from typing import NamedTuple

LATENCY_AND_RATE = ("op_p50_s", "states_per_s")


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]  # end-to-end metrics it should move
    workloads: tuple[str, ...]  # where it does most of its work


def _calls_total(fn: str, *workloads: str) -> list[LayerMetric]:
    return [
        LayerMetric(f"{fn}.calls", "count", "lower", LATENCY_AND_RATE, workloads),
        LayerMetric(f"{fn}.total_s", "s", "lower", LATENCY_AND_RATE, workloads),
    ]


LAYER_METRICS: list[LayerMetric] = [
    LayerMetric("cli.main.self_s", "s", "lower", ("op_p50_s",), ("screen",)),
    LayerMetric("sweep.run_sweep.self_s", "s", "lower", LATENCY_AND_RATE, ("sweep",)),
    LayerMetric("sweep.evaluate_point.calls", "count", "lower", LATENCY_AND_RATE, ("sweep",)),
    LayerMetric("sweep.evaluate_point.self_s", "s", "lower", LATENCY_AND_RATE, ("sweep",)),
    LayerMetric("sweep.write_csv.total_s", "s", "lower", LATENCY_AND_RATE, ("sweep",)),
    LayerMetric("sweep.write_csv.bytes", "bytes", "lower", LATENCY_AND_RATE, ("sweep",)),
    LayerMetric("criteria.x_search.total_s", "s", "lower", LATENCY_AND_RATE, ("check",)),
    LayerMetric("criteria.x_search.self_s", "s", "lower", LATENCY_AND_RATE, ("check",)),
    LayerMetric("criteria.x_search.evals_per_s", "1/s", "higher", LATENCY_AND_RATE, ("check",)),
    # Detection power of the search over the entangled check inputs: the share
    # on which x_search itself reports "violated", and the median best
    # eigenvalue it found. Quality figures, so they move no timing.
    LayerMetric("criteria.x_search.detect_frac", "frac", "higher", (), ("check",)),
    LayerMetric("criteria.x_search.min_eig_p50", "1", "lower", (), ("check",)),
    *_calls_total("criteria._x_min_eig", "check"),
    *_calls_total("loo.random_orthogonal", "check"),
    *_calls_total("loo.random_unitary", "check"),
    *_calls_total("criteria.ppt_check", "sweep", "screen"),
    *_calls_total("criteria.realignment_value", "sweep", "screen"),
    *_calls_total("criteria.pair_correlation", "screen"),
    *_calls_total("criteria.o_reduction_apply", "screen"),
    *_calls_total("criteria.perm_reduction_family", "sweep"),
    *_calls_total("criteria.classify_family_point", "sweep"),
    *_calls_total("witness.horodecki_ew", "check"),
    *_calls_total("witness.expectation", "check"),
    *_calls_total("states.make_state", "sweep", "screen"),
    *_calls_total("states.family_rho", "sweep"),
    *_calls_total("states.load_state", "screen"),
    LayerMetric("states.load_state.bytes", "bytes", "lower", LATENCY_AND_RATE, ("screen",)),
    *_calls_total("loo.apply_orthogonal", "screen"),
    *_calls_total("linalg.is_psd", "sweep", "screen"),
    # Sum of n^3 over the is_psd eigensolves: a batched solver keeps this work
    # and cuts the calls.
    LayerMetric("linalg.is_psd.work", "count", "lower", LATENCY_AND_RATE, ("sweep", "screen")),
    *_calls_total("linalg.herm_eigvalues", "sweep", "screen"),
    *_calls_total("linalg.partial_transpose", "sweep", "screen"),
    *_calls_total("linalg.partial_trace", "sweep", "screen"),
    *_calls_total("linalg.realign", "sweep", "screen"),
    *_calls_total("linalg.trace_norm", "sweep", "screen"),
    # Traced wall time against untraced wall time of the same ops, minus one.
    LayerMetric("trace_overhead_frac", "frac", "lower", (), ()),
]

TRACED: list[str] = [
    "cli.main",
    "sweep.run_sweep",
    "sweep.evaluate_point",
    "sweep.write_csv",
    "criteria.x_search",
    "criteria._x_min_eig",
    "criteria.ppt_check",
    "criteria.realignment_value",
    "criteria.pair_correlation",
    "criteria.o_reduction_apply",
    "criteria.perm_reduction_family",
    "criteria.classify_family_point",
    "witness.horodecki_ew",
    "witness.expectation",
    "states.make_state",
    "states.family_rho",
    "states.load_state",
    "loo.random_orthogonal",
    "loo.random_unitary",
    "loo.apply_orthogonal",
    "linalg.is_psd",
    "linalg.herm_eigvalues",
    "linalg.partial_transpose",
    "linalg.partial_trace",
    "linalg.realign",
    "linalg.trace_norm",
]
