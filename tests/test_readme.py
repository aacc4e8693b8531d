import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(capsys):
    """Every Python block of README.md runs against the current API."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
