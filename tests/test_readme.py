"""README's Python API block runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs():
    text = README.read_text()
    section = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}:Python API", "exec"), namespace)
    assert namespace["deviation"] < 1e-8  # the triple's
    assert abs(abs(namespace["c"]) - 1) < 1e-8
