"""README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block_under(heading: str) -> str:
    """The first ```python block after the README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(_python_block_under("## Library use"), "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert "status: pass" in printed
