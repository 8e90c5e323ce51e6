"""README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README's library example has no python block"
    exec(compile(block.group(1), f"{README}:library-example", "exec"), {})
