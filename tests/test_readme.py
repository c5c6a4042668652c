"""The README's library example runs as printed."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    for line in block.splitlines():
        code, _, expected = line.partition("  # ")
        if expected == "True":
            assert eval(code, namespace) is True, code
        else:
            exec(line, namespace)
