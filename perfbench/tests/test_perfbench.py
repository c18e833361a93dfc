"""Tests of the benchmark itself (not part of the repository's test suite).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from loowit import cli, criteria, linalg, states  # noqa: E402

SCRATCH = BENCH / "out" / "tests"


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


# --- oracles -----------------------------------------------------------------


def test_check_oracle_accepts_true_verdicts_and_rejects_wrong_ones():
    op = wl.Op(("check", "--builtin", "phi:d=2", "--json", "--no-search"), wl.ENTANGLED, 1)
    code, stdout = run_cli(*op.argv)
    assert wl.check_problems(op, code, stdout) == []

    report = json.loads(stdout)
    report["overall"] = "no entanglement detected"
    assert wl.check_problems(op, code, json.dumps(report))
    assert wl.check_problems(op, 0, stdout)
    mislabelled = wl.Op(op.argv, wl.SEPARABLE, 1)
    assert wl.check_problems(mislabelled, code, stdout)
    assert wl.check_problems(op, code, "not json")


def test_screen_oracle_rejects_a_violated_criterion_on_a_separable_file():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / "product.json"
    states.save_state(states.random_product_state(linalg.DimPair.square(3), seed=5), path)
    op = wl.Op(("check", "--file", str(path), "--json", "--no-search"), wl.SEPARABLE, 1)
    code, stdout = run_cli(*op.argv)
    assert wl.check_problems(op, code, stdout) == []

    report = json.loads(stdout)
    report["reports"][1]["verdict"] = "violated"
    assert any("violated" in p for p in wl.check_problems(op, code, json.dumps(report)))


def test_sweep_oracle_rejects_a_one_byte_csv_change():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    out = SCRATCH / "sweep.csv"
    code, stdout = run_cli("sweep", "--d", "3", "--grid", "12", "--out", str(out))
    data = out.read_bytes()
    assert wl.sweep_problems(12, code, stdout, data) == []

    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    assert wl.sweep_problems(12, code, stdout, bytes(flipped))
    assert wl.sweep_problems(12, code, stdout.replace("100.00%", "99.99%"), data)


def test_sampled_family_points_carry_the_programs_region():
    rng = wl.np.random.default_rng(0)
    for d in (3, 4, 6):
        for region in ("separable", "bound", "free"):
            a1, a2 = wl.family_point(rng, d, region)
            assert criteria.classify_family_point(d, a1, a2) == region


# --- spans -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    recorded = [
        spans.Span("root", 0.0, 10.0, -1, 0),
        spans.Span("a", 1.0, 3.0, 0, 0),
        spans.Span("leaf", 1.5, 2.5, 1, 0),
        spans.Span("b", 2.0, 4.0, 0, 0),  # overlaps a: the union [1, 4] counts once
        spans.Span("a", 6.0, 7.0, 0, 0),
        spans.Span("other", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 1.0, 1.0, 2.0, 1.0, 1.0])
    table = spans.aggregate(recorded)
    assert table["a"] == pytest.approx({"calls": 2, "total_s": 3.0, "self_s": 2.0})
    assert table["root"]["self_s"] == pytest.approx(6.0)


def test_tracer_wraps_every_binding_and_restores_them():
    import loowit

    original = linalg.is_psd
    tracer = spans.Tracer()
    with tracer.installed(["linalg.is_psd", "criteria.ppt_check"]):
        assert criteria.is_psd is linalg.is_psd is not original
        criteria.ppt_check(states.max_entangled(2))
    assert criteria.is_psd is linalg.is_psd is loowit.is_psd is original
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("criteria.ppt_check", -1), ("linalg.is_psd", 0)]
    assert tracer.counters["linalg.is_psd.work"] == 4**3


# --- BENCHMARK.json and whole runs -------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == ["check", "sweep", "screen"]
    traced = {m.name.rsplit(".", 1)[0] for m in layers.LAYER_METRICS if m.name.count(".") >= 2}
    assert traced <= set(layers.TRACED)


@pytest.mark.parametrize("workload", ["check", "sweep", "screen"])
def test_tiny_run_completes_with_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_check_counts_are_exact():
    done = bench("--workload", "check", "--seed", "3", "--size", "tiny", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m.name for m in layers.LAYER_METRICS]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    budget, searches = wl.SIZES["tiny"].budget, 10
    assert values["criteria._x_min_eig.calls"] == budget * 81 * searches
    assert values["loo.random_orthogonal.calls"] == budget * searches
    assert values["witness.horodecki_ew.calls"] == 1


def test_without_the_program_the_run_fails_without_a_result():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(BENCH / "expected.json", bare / "perfbench")
    done = bench("--workload", "check", "--seed", "1", "--seconds", "1", cwd=bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
