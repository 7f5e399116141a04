"""Every script in examples/ runs to completion.

Each example asserts its own invariants, so exit status 0 is the check.
They run in a scratch working directory because several write their
artefacts (``observability-out/``, ``slo-out/``, ...) into the cwd.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
