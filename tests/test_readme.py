"""README.md runs as written, points only at names that exist, and holds no measurements.

Each ```python block runs in a fresh namespace inside a temporary directory.
A ``print(...)  # value`` line states the line that call prints. Each ``loowit``
line of a ```bash block runs through cli.main there too, beside the state and
transform files it reads. A backticked ``module.name`` in the prose must
resolve in that loowit submodule, and every name the package root exports must
appear in a Python example. Timings, memory figures and host descriptions
belong in CHANGES.md, which logs them per change; the README describes
behaviour. The README points at docstrings rather than restating them, so it
stays short, and it names no function kept only for the benchmark's tracer
(test_routes.PENDING).
"""

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from loowit import cli, loo
from loowit.linalg import DimPair
from loowit.states import random_separable_state, save_state
from test_routes import PENDING

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, flags=re.DOTALL)
COMMANDS = [
    line for block in re.findall(r"```bash\n(.*?)```", TEXT, flags=re.DOTALL)
    for line in block.splitlines() if line.startswith("loowit ")
]
PROSE = re.sub(r"```.*?```", "", TEXT, flags=re.DOTALL)
MODULES = ("linalg", "loo", "states", "criteria", "witness", "sweep", "cli")
MEASUREMENT = re.compile(r"\d\s*(ms|µs|MB)\b|page faults|best of \w+|2-core host")


def stated_outputs(block: str) -> list[str | None]:
    """The value each top-level print line's comment states, in order (None for no comment)."""
    return [line.partition("  # ")[2] or None for line in block.splitlines() if line.startswith("print(")]


def test_readme_has_examples():
    stated = [value for block in BLOCKS for value in stated_outputs(block) if value is not None]
    for value in ("entangled", "False", "(False, -0.5)", "True"):
        assert value in stated


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    printed: list[str] = []

    def record(*args, sep=" ", **_):
        printed.append(sep.join(map(str, args)))

    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {"print": record})
    stated = stated_outputs(BLOCKS[index])
    assert len(printed) == len(stated)
    for got, want in zip(printed, stated):
        if want is not None:
            assert got == want


def test_readme_states_no_measurements():
    found = [
        f"README.md:{number}: {line.strip()}"
        for number, line in enumerate(TEXT.splitlines(), 1)
        if MEASUREMENT.search(line)
    ]
    assert not found, found


def test_readme_pointers_resolve():
    # each (module, name) of a backticked `module.name`, also where the span breaks across lines
    pointers = re.findall(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)", PROSE.replace("\n", " "))
    assert len(pointers) >= 20
    missing = sorted(
        f"{module}.{name}" for module, name in set(pointers)
        if not hasattr(importlib.import_module(f"loowit.{module}"), name)
    )
    assert not missing, f"README names that loowit does not define: {missing}"


def test_readme_examples_use_every_export():
    tree = ast.parse((ROOT / "src" / "loowit" / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    code = "\n".join(BLOCKS)
    unused = sorted(name for name in exported if not re.search(rf"\b{name}\b", code))
    assert not unused, f"exports no README example uses: {unused}"


def test_readme_stays_under_300_lines():
    assert len(TEXT.splitlines()) <= 300


def test_readme_names_no_benchmark_only_function():
    # every identifier of a code span or block, so `realign` matches the name but `realignment` does not
    pending = {name.split(".")[1] for name in PENDING}
    spans = re.findall(r"```.*?```|`[^`]*`", TEXT, flags=re.DOTALL)
    named = sorted({word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span) if word in pending})
    assert not named, f"README names functions kept only for the benchmark's tracer: {named}"


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_state(random_separable_state(DimPair.square(3), 4, seed=0), "mystate.json")
    transform = loo.random_orthogonal(9, np.random.default_rng(0))
    Path("o.json").write_text(json.dumps({"matrix": transform.tolist()}), encoding="utf-8")
    assert len(COMMANDS) >= 6
    failed = []
    for line in COMMANDS:
        code = cli.main(shlex.split(line, comments=True)[1:])
        err = capsys.readouterr().err
        if code not in (cli.EXIT_OK, cli.EXIT_ENTANGLED) or err:
            failed.append(f"{line}: exit {code}, stderr {err!r}")
    assert not failed, failed
