"""README's Python examples run as written, in order, in one namespace, so a
changed signature of anything they show fails here instead of leaving the
docs stale."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_and_print_what_they_document():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the quick start prints its partition and gives it in a comment
    documented = re.search(r"^print\(groups\)\s+# (.*)$", text, flags=re.M).group(1)
    assert namespace["groups"] == ast.literal_eval(documented)
