"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks, "README.md has no python block"
    for block in blocks:
        # Pad with blank lines so a traceback names the README's own line.
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
