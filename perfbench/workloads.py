"""Workload inputs and correctness oracles.

Each workload is a closed loop of ``loowit.cli.main`` calls from one caller.
Inputs come from the benchmark's seed only; the program sees the generated
CLI arguments and state files. Every op is checked against a label the
benchmark knows independently of the program (closed-form region conditions
of the built-in states, or the sweep CSV that commit 0117155 writes).

- check: one-state ``check --builtin`` calls at the default search budget.
  About 90% of each call is the correlation-matrix search, so search changes
  show here and nowhere else.
- sweep: the paper's 100x100 d=3 phase diagram, 4966 per-point Python round
  trips through the 9x9 criteria, written to a 4966-row CSV. It never calls
  the search and ignores the seed: its input is the figure's fixed grid and its
  oracle is the byte-identical CSV.
- screen: ``check --file ... --no-search`` over a stream of state files at
  d = 2..6, so the algebraic battery runs on 4x4 to 36x36 matrices and the
  file-validation path is exercised; a change tuned for 9x9 stacks, or one
  that slows the single-state path, shows here and not on sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np

ENTANGLED = "entangled"
SEPARABLE = "separable"
OVERALL = {ENTANGLED: "entangled", SEPARABLE: "no entanglement detected"}
EXIT_CODE = {ENTANGLED: 2, SEPARABLE: 0}

# Sampled family points keep this distance from every analytic region
# boundary, far outside the criteria's tolerances.
MARGIN = 0.02


def expected_sweep(grid: int) -> dict:
    """SHA-256 and row count of the sweep CSV written at commit 0117155."""
    payload = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))
    return payload["sweep"][str(grid)]


@dataclass(frozen=True)
class Size:
    """Input sizes: search budget (None = CLI default), sweep grid, screen cycles."""

    budget: int | None
    grid: int
    cycles: int


SIZES = {"full": Size(budget=None, grid=100, cycles=8), "tiny": Size(budget=2, grid=12, cycles=1)}


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call with the label its output must match."""

    argv: tuple[str, ...]
    label: str  # ENTANGLED or SEPARABLE for check calls, "sweep" for sweeps
    states: int  # states the call decides


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def family_region(d: int, a1: float, a2: float, margin: float = MARGIN) -> str | None:
    """Analytic region of a special-slice family point, or None off the simplex
    or within ``margin`` of a region boundary.

    The slice is a = (a1, a2, a1, ..., a1, a_d): separable iff a2 >= a1 and
    a_d >= a1; PPT iff a2 a_d >= a1^2; PPT but not separable is bound.
    """
    a_d = 1.0 - (d - 2) * a1 - a2
    if min(a1, a2, a_d) < 0.0:
        return None
    if min(abs(a2 - a1), abs(a_d - a1), abs(a2 * a_d - a1 * a1)) < margin:
        return None
    if a2 >= a1 and a_d >= a1:
        return "separable"
    return "bound" if a2 * a_d >= a1 * a1 else "free"


def family_point(rng: np.random.Generator, d: int, region: str) -> tuple[float, float]:
    """A rounded (a1, a2) in the given region, clear of its boundaries."""
    while True:
        a1 = round(float(rng.uniform(0.0, 1.0 / (d - 1))), 4)
        a2 = round(float(rng.uniform(0.0, 1.0)), 4)
        if family_region(d, a1, a2) == region:
            return a1, a2


def check_round(seed: int, index: int, size: Size) -> list[Op]:
    """Round ``index`` of the check rotation: the same ten state kinds every
    round, with seeded parameters and search seeds."""
    rng = np.random.default_rng([seed, index])
    specs = [
        (f"horodecki:a={rng.uniform(0.05, 0.95):.4f}", ENTANGLED),
        (f"werner:p={rng.uniform(0.45, 1.0):.4f}", ENTANGLED),
        (f"werner:p={rng.uniform(0.0, 0.25):.4f}", SEPARABLE),
        ("phi:d=2", ENTANGLED),
        ("phi:d=3", ENTANGLED),
    ]
    for region in ("separable", "bound", "free"):
        a1, a2 = family_point(rng, 3, region)
        specs.append((f"family:d=3,a1={a1},a2={a2}", SEPARABLE if region == "separable" else ENTANGLED))
    specs.append((f"separable:d=3,k={int(rng.integers(1, 7))},seed={_draw_seed(rng)}", SEPARABLE))
    specs.append((f"product:d=4,seed={_draw_seed(rng)}", SEPARABLE))
    budget = () if size.budget is None else ("--budget", str(size.budget))
    return [
        Op(("check", "--builtin", spec, "--json", "--seed", str(_draw_seed(rng)), *budget), label, 1)
        for spec, label in specs
    ]


def sweep_op(size: Size, out: Path) -> Op:
    return Op(
        ("sweep", "--d", "3", "--grid", str(size.grid), "--out", str(out)),
        "sweep",
        expected_sweep(size.grid)["points"],
    )


def _free_family(loowit: ModuleType, rng: np.random.Generator, d: int):
    if d == 2:  # the special slice needs d >= 3; at d = 2 free means a2 < a1
        a1 = float(rng.uniform(0.6, 1.0))
        return loowit.states.FamilyParams(d=2, a=(a1, 1.0 - a1))
    return loowit.states.family_special(d, *family_point(rng, d, "free"))


def screen_stream(loowit: ModuleType, seed: int, size: Size, directory: Path) -> list[Op]:
    """Write the seeded stream of state files and return one check op per file.

    Each cycle holds, for d = 2..6, random product and separable states
    (pure and mixed factors, k = 1..6 terms), the maximally entangled state
    and a free (NPT) family state, plus two-qubit Werner states on both sides
    of p = 1/3.
    """
    states = loowit.states
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for cycle in range(size.cycles):
        rng = np.random.default_rng([seed, cycle])
        for d in range(2, 7):
            dims = loowit.linalg.DimPair.square(d)
            items = [
                (f"product-{mode}", states.random_product_state(dims, seed=_draw_seed(rng), mode=mode), SEPARABLE)
                for mode in ("pure", "mixed")
            ]
            items += [
                (
                    f"separable-{mode}",
                    states.random_separable_state(dims, k=int(rng.integers(1, 7)), seed=_draw_seed(rng), mode=mode),
                    SEPARABLE,
                )
                for mode in ("pure", "mixed")
            ]
            items.append(("phi", states.max_entangled(d), ENTANGLED))
            items.append(("family-free", states.family_rho(_free_family(loowit, rng, d)), ENTANGLED))
            if d == 2:
                items.append(("werner-entangled", states.werner2(float(rng.uniform(0.45, 1.0))), ENTANGLED))
                items.append(("werner-separable", states.werner2(float(rng.uniform(0.0, 0.25))), SEPARABLE))
            for kind, state, label in items:
                path = directory / f"{cycle:02d}-d{d}-{kind}.json"
                states.save_state(state, path)
                ops.append(Op(("check", "--file", str(path), "--json", "--no-search"), label, 1))
    return ops


def check_problems(op: Op, code: int, stdout: str) -> list[str]:
    """Oracle for one check call: the overall verdict and exit code match the
    known label, and no criterion reports "violated" on a separable input."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"output is not one JSON object: {stdout[:200]!r}"]
    problems = []
    if code != EXIT_CODE[op.label]:
        problems.append(f"exit code {code}, expected {EXIT_CODE[op.label]}")
    if report.get("overall") != OVERALL[op.label]:
        problems.append(f"overall {report.get('overall')!r}, expected {OVERALL[op.label]!r}")
    if op.label == SEPARABLE:
        violated = [r["criterion"] for r in report.get("reports", ()) if r.get("verdict") == "violated"]
        if violated:
            problems.append(f"separable input reported violated by {violated}")
    return problems


def sweep_problems(grid: int, code: int, stdout: str, csv_bytes: bytes) -> list[str]:
    """Oracle for one sweep: 100.00% off-boundary agreement and a CSV that is
    byte-identical to the one commit 0117155 writes."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if "agreement off-boundary: 100.00%" not in stdout:
        problems.append("off-boundary agreement is not 100.00%")
    digest = hashlib.sha256(csv_bytes).hexdigest()
    if digest != expected_sweep(grid)["sha256"]:
        problems.append(f"CSV sha256 {digest} differs from the one commit 0117155 writes")
    return problems


def search_outcome(stdout: str) -> tuple[bool, float] | None:
    """(x_search reported "violated", its best eigenvalue), if the search ran."""
    try:
        reports = json.loads(stdout).get("reports", ())
    except json.JSONDecodeError:
        return None
    for r in reports:
        if r.get("criterion") == "x_search":
            return r["verdict"] == "violated", float(r["scalar"])
    return None
