import importlib
import json
import math
import pkgutil
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import jointspace
from jointspace.cli import build_parser
from jointspace.training import TrainConfig

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


def test_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("jointspace ")]
    assert len(lines) == 9
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_config_keys_table_is_the_train_config():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, re.MULTILINE)
    assert [key for key, _ in rows] == [f.name for f in fields(TrainConfig)]
    for key, default in rows:
        value, expected = json.loads(default), getattr(TrainConfig(), key)
        assert (value, type(value)) == (expected, type(expected)), key


def test_library_names_resolve():
    # Every backticked `module.NAME` whose module is one of the package's.
    text = README.read_text(encoding="utf-8")
    modules = {m.name for m in pkgutil.iter_modules(jointspace.__path__)}
    cited = [(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", text)
             if module in modules]
    assert cited
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"jointspace.{module}"), name)]
    assert not missing, f"README cites names that do not exist: {missing}"
