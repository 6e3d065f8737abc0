import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_quick_start"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(15, 0, 16, 0, 9)"
    numbers = [float(x) for x in lines[1].split()]
    assert len(numbers) == 3 and all(math.isfinite(x) for x in numbers)
