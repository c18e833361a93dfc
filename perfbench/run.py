#!/usr/bin/env python3
"""loowit benchmark: closed-loop runs of ``loowit.cli.main`` from one caller.

Run from the repository root:

    python3 perfbench/run.py --workload check --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs one fixed round of ops untraced, then the same ops with
span-recording wrappers around the public functions listed in
``layers.TRACED``, and reports the per-layer metrics of ``layers.py``. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# Pin the environment before numpy loads: one BLAS/OpenMP thread, and no
# sweep thread cap inherited from the caller.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LOOWIT_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("check", "sweep", "screen")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402


def load_program():
    """Import loowit from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "loowit" / "__init__.py").is_file():
        raise SystemExit(f"error: no loowit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import loowit
    import loowit.cli

    if Path(loowit.__file__).resolve().parent != SRC / "loowit":
        raise SystemExit(f"error: imported loowit from {loowit.__file__}, not from {SRC}")
    return loowit


class Workload:
    """Inputs, ops and oracle of one workload for one seed."""

    def __init__(self, loowit, name: str, seed: int, size: wl.Size):
        self.loowit, self.name, self.seed, self.size = loowit, name, seed, size
        self.work = OUT / f"work-{name}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.stream = []

    def generate(self) -> None:
        if self.name == "screen":
            self.stream = wl.screen_stream(self.loowit, self.seed, self.size, self.work)

    def round(self, index: int) -> list:
        """The ops of round ``index``; a run always executes whole rounds."""
        if self.name == "check":
            return wl.check_round(self.seed, index, self.size)
        if self.name == "sweep":
            return [wl.sweep_op(self.size, self.work / "sweep.csv")]
        return self.stream

    def warm_up(self) -> None:
        """One cheap call per input kind, so lazy set-up is done before timing."""
        if self.name == "check":
            ops = [wl.Op(op.argv + ("--budget", "1"), op.label, 1) for op in self.round(0)]
        elif self.name == "sweep":
            ops = [wl.sweep_op(wl.SIZES["tiny"], self.work / "warm-up.csv")]
        else:
            ops = self.stream[: len(self.stream) // self.size.cycles]
        for op in ops:
            call(self.loowit, op)

    def problems(self, op, code: int, stdout: str) -> list[str]:
        if op.label == "sweep":
            return wl.sweep_problems(self.size.grid, code, stdout, Path(op.argv[-1]).read_bytes())
        return wl.check_problems(op, code, stdout)


def call(loowit, op, timer: speed.Timer | None = None) -> tuple[int, str]:
    """One closed-loop call: exit code and captured stdout, timed by ``timer``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with timer.timing() if timer else contextlib.nullcontext():
            code = loowit.cli.main(list(op.argv))
    if err.getvalue():
        print(f"[{' '.join(op.argv)}] stderr: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue()


class Tally:
    """Timings, states decided, and oracle misses of the ops run so far."""

    def __init__(self, workload: Workload, probe: speed.SpeedProbe):
        self.workload = workload
        self.timer = speed.Timer(probe)
        self.attempted = 0
        self.states = 0
        self.failed = 0
        self.search: list[tuple[bool, float]] = []

    def run(self, op) -> str:
        """Run and check one op; return its standard output."""
        self.attempted += 1
        try:
            code, stdout = call(self.workload.loowit, op, self.timer)
            problems = self.workload.problems(op, code, stdout)
        except Exception:  # an op that raises is a failed op, not a crashed run
            traceback.print_exc()
            stdout, problems = "", ["raised"]
        else:
            self.states += op.states
        if problems:
            self.failed += 1
            print(f"FAILED [{' '.join(op.argv)}]: {'; '.join(problems)}", file=sys.stderr)
        if op.label == wl.ENTANGLED and (outcome := wl.search_outcome(stdout)) is not None:
            self.search.append(outcome)
        return stdout


def setup_once(args) -> float:
    """Imports plus input generation plus warm-up, timed from process start."""
    loowit = load_program()
    workload = Workload(loowit, args.workload, args.seed, wl.SIZES[args.size])
    workload.generate()
    workload.warm_up()
    return time.perf_counter() - START


def measure_setup(args, probe: speed.SpeedProbe) -> speed.Timer:
    """Set up SETUP_REPEATS times, each in a fresh interpreter.

    The probe is sampled between set-ups, never beside one: a probe running
    on the other core while a child runs measures the child, not the host.
    """
    argv = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    timer = speed.Timer(probe)
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{done.stderr.strip()}")
        timer.add(start, time.perf_counter(), float(done.stdout.strip().splitlines()[-1]))
    probe.sample()
    return timer


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile; with fewer than 100 values, the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def end_to_end(latencies: list[float], states: int, setup: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "states_per_s": (states / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_untraced(workload: Workload, probe: speed.SpeedProbe, seconds: float) -> Tally:
    """Whole rounds until ``seconds`` of wall time have passed (at least one)."""
    tally = Tally(workload, probe)
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        for op in workload.round(index):
            tally.run(op)
        index += 1
    return tally


def search_quality(tally: Tally) -> tuple[float, float]:
    if not tally.search:
        return 0.0, 0.0
    return (
        sum(hit for hit, _ in tally.search) / len(tally.search),
        statistics.median(value for _, value in tally.search),
    )


def run_traced(workload: Workload, probe: speed.SpeedProbe) -> tuple[Tally, dict[str, tuple[float, str]]]:
    """Each op of round 0 untraced, then at once again with the wrappers installed.

    Running the pair back to back keeps host drift out of the overhead ratio.
    The probe is sampled between ops only, so no probe time lands in a span.
    """
    ops = workload.round(0)
    plain, traced = Tally(workload, probe), Tally(workload, probe)
    tracer = spans.Tracer()
    for index, op in enumerate(ops):
        probe.sample()
        before = plain.run(op)
        with tracer.installed(layers.TRACED):
            tracer.op = index
            after = traced.run(op)
        if before != after:
            traced.failed += 1
            print(f"FAILED [{' '.join(op.argv)}]: traced output differs from untraced", file=sys.stderr)
    probe.sample()

    recorded = [s for s in tracer.spans if s is not None]
    spans.write_spans(recorded, str(OUT / f"spans-{workload.name}.csv"))
    table = spans.aggregate(recorded)
    values = dict(tracer.counters)
    for fn in layers.TRACED:
        for key, value in table.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).items():
            values[f"{fn}.{key}"] = value
    search_total = values["criteria.x_search.total_s"]
    values["criteria.x_search.evals_per_s"] = (
        values["criteria._x_min_eig.calls"] / search_total if search_total else 0.0
    )
    values["criteria.x_search.detect_frac"], values["criteria.x_search.min_eig_p50"] = search_quality(plain)
    values["trace_overhead_frac"] = sum(traced.timer.scaled()) / sum(plain.timer.scaled()) - 1.0

    plain.attempted += traced.attempted  # the result counts both passes
    plain.failed += traced.failed
    metrics = {m.name: (float(values.get(m.name, 0.0)), m.unit) for m in layers.LAYER_METRICS}
    return plain, metrics


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "loowit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "LOOWIT_THREADS": os.environ.get("LOOWIT_THREADS", "unset"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run_one(args) -> int:
    probe = speed.SpeedProbe()
    setup = measure_setup(args, probe)
    loowit = load_program()
    workload = Workload(loowit, args.workload, args.seed, wl.SIZES[args.size])
    workload.generate()
    workload.warm_up()
    if args.trace:
        tally, metrics = run_traced(workload, probe)
    else:
        with probe.periodic():
            tally = run_untraced(workload, probe, args.seconds)
        metrics = end_to_end(tally.timer.scaled(), tally.states, setup.scaled())

    env = environment(args.seed)
    detect_frac, min_eig_p50 = search_quality(tally)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "setup_wall_s": setup.wall,
        "setup_scaled_s": setup.scaled(),
        "wall_op_p50_s": statistics.median(tally.timer.wall) if tally.timer.wall else None,
        "op_p99_s": p99(tally.timer.scaled()) if tally.timer.wall else None,
        "probe_s": probe.values,
        "ops": tally.attempted,
        "failed_frac": tally.failed / tally.attempted,
        "search_detect_frac": detect_frac if tally.search else None,
        "search_min_eig_p50": min_eig_p50 if tally.search else None,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )

    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload} (trace {args.trace}): {tally.attempted} ops, "
          f"{tally.failed} failed, failed_frac = {report['failed_frac']:.4g}")
    if tally.search:
        print(f"  search_detect_frac = {detect_frac:.4g} over {len(tally.search)} entangled inputs; "
              f"search_min_eig_p50 = {min_eig_p50:+.6g}")
    if tally.timer.wall:
        print(f"  unscaled wall: op_p50 = {report['wall_op_p50_s']:.6g} s; median probe = "
              f"{statistics.median(probe.values) * 1e3:.4g} ms (nominal {speed.NOMINAL_S * 1e3:g} ms)")
    if not args.trace:
        note = "" if tally.attempted >= 1000 else f"; from {tally.attempted} ops it is the slowest call"
        print(f"  op_p99_s = {report['op_p99_s']:.6g} s (not gated{note})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of metrics and oracles."""
    results = {}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"\n{'metric':<36}{'unit':<8}" + "".join(f"{n:>14}" for n in WORKLOADS))
    for metric, first in results[WORKLOADS[0]]["metrics"].items():
        row = "".join(f"{results[n]['metrics'][metric]['value']:>14.6g}" for n in WORKLOADS)
        print(f"{metric:<36}{first['unit']:<8}{row}")
    for name, result in results.items():
        print(f"oracle {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.4g}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(wl.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        print(setup_once(args))
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
