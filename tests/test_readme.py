"""The Python examples in README.md run as written and print what their comments say.

Each ```python block runs in a fresh namespace inside a temporary directory.
A ``print(...)  # value`` line states the line that call prints.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)


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
