"""The committed size ruler, ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

RULER = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def test_only_lines_carrying_code_count(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", RULER)
    ruler = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ruler)
    fixture = tmp_path / "fixture.py"
    fixture.write_text('"""A docstring."""\n# a comment\nx = "code"  # counts\n')
    assert ruler.code_lines(fixture) == 1
