"""The README's Python examples run against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # padded so that a traceback names the README's own line
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), {})
