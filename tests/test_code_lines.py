"""The committed size ruler, ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    """``tools/<name>.py`` as a module: the tools are scripts, not a package."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_only_lines_carrying_code_count(tmp_path):
    ruler = load_tool("code_lines")
    fixture = tmp_path / "fixture.py"
    fixture.write_text('"""A docstring."""\n# a comment\nx = "code"  # counts\n')
    assert ruler.code_lines(fixture) == 1


def test_no_path_is_a_usage_error_not_a_zero_total(capsys):
    assert load_tool("code_lines").main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage:")
