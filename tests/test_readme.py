"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    first, second, third = capsys.readouterr().out.splitlines()
    assert first.startswith("65 (0.0, 2.0) 3.74")  # the figures the CLI section quotes
    assert 0.0 < float(second) < 0.1  # L_64(1) is within O(1/N) of e^(A+B)
    assert float(third) < 1e-12  # the grid transform is L_64 at every point
