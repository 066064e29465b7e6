"""README's Python API block runs as written, and its command lines are
reference runs (tests/reference_runs.txt), so CI runs each of them."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
REFERENCE_RUNS = Path(__file__).resolve().parent / "reference_runs.txt"


def test_python_api_block_runs():
    text = README.read_text()
    section = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}:Python API", "exec"), namespace)
    assert namespace["deviation"] < 1e-8  # the triple's
    assert abs(abs(namespace["c"]) - 1) < 1e-8


def test_command_lines_are_reference_runs():
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    rows = {line.split(maxsplit=4)[4] for line in REFERENCE_RUNS.read_text().splitlines()
            if line.strip() and not line.startswith("#")}
    commands = [line.removeprefix("holobraid ") for line in block.splitlines()
                if line.startswith("holobraid ")]
    assert commands
    for command in commands:
        args = re.sub(r" --report \S+", "", command)
        args = re.sub(r"--dump-dir \S+", "--dump-dir {dir}", args)
        assert args in rows, command
