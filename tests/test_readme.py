"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    # the blocks share one namespace, as a reader pasting them into one session would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
