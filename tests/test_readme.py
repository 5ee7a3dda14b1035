"""The README's "Library use" examples run as written, so a renamed or
removed name cannot leave them stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_examples_run():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md, Library use block {i}", "exec"), {})
