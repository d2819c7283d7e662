"""The README's library example runs as written, so the documented API
cannot drift from the code."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The one Python block of the README's ``## Library`` section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs():
    exec(compile(library_block(), f"{README}:Library", "exec"), {})
